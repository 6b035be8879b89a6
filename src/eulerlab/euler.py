"""f-vectors and the alternating-sum check f^0 - f^1 + ... + (-1)^d f^d = 1.

Also the half alternating sums and the sampling schedule that the two
flag-counting proof harnesses share.
"""

from __future__ import annotations

from fractions import Fraction

from .polytope import FaceLattice, Polytope, face_lattice

FVector = tuple[int, ...]

# Rejection sampling in both proof harnesses: the number of candidate lines
# tried before giving up, and how many rejections double the coordinate range.
SAMPLE_BUDGET = 256
RANGE_DOUBLING_PERIOD = 32


def f_vector(lattice: FaceLattice) -> FVector:
    """Face counts by dimension, (f^0, ..., f^d); includes the top face."""
    counts = tuple(len(lattice.faces(c)) for c in range(lattice.dim + 1))
    if counts[-1] != 1:
        raise ValueError("lattice has no unique top face")
    return counts


def euler_alternating_sum(f: FVector) -> int:
    """sum of (-1)^c f^c over all dimensions c, computed exactly."""
    return sum((-1) ** c * n for c, n in enumerate(f))


def half_alternating_sum(counts, upto: int) -> Fraction:
    """(1/2) * sum of (-1)^c counts[c] for c in 0..upto (inclusive)."""
    return Fraction(sum((-1) ** c * counts[c] for c in range(upto + 1)), 2)


def check_euler(p: Polytope) -> bool:
    """Whether the alternating face-count sum of p equals 1."""
    return euler_alternating_sum(f_vector(face_lattice(p))) == 1
