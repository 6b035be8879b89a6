"""f-vectors and the alternating-sum check f^0 - f^1 + ... + (-1)^d f^d = 1.

Also the core of the two flag-counting proof harnesses: the rejection loop
that samples their certified lines, the entries of those certificates, the
check of one piece of a flag count (a cell, the outside, or a facet) face by
face against its shadow and then as a sum chain, and the grand-total checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import SamplingBudgetError
from .linalg import Vector, format_point
from .polytope import FaceLattice, Polytope, face_lattice
from .projection import Shadow

FVector = tuple[int, ...]
T = TypeVar("T")

# Rejection sampling in both proof harnesses: the number of candidate lines
# tried before giving up, and how many rejections double the coordinate range.
SAMPLE_BUDGET = 256
RANGE_DOUBLING_PERIOD = 32


def f_vector(lattice: FaceLattice) -> FVector:
    """Face counts by dimension, (f^0, ..., f^d); includes the top face.
    Counting builds no face."""
    counts = tuple(lattice.count(c) for c in range(lattice.dim + 1))
    if counts[-1] != 1:
        raise ValueError("lattice has no unique top face")
    return counts


def euler_alternating_sum(f: FVector) -> int:
    """sum of (-1)^c f^c over all dimensions c, computed exactly."""
    return sum((-1) ** c * n for c, n in enumerate(f))


def half_alternating_sum(counts, upto: int) -> Fraction:
    """(1/2) * sum of (-1)^c counts[c] for c in 0..upto (inclusive)."""
    return Fraction(sum((-1) ** c * counts[c] for c in range(upto + 1)), 2)


@dataclass(frozen=True)
class CertificateEntry:
    """One exact check of a named kind on a subject, backing a sampled line."""

    kind: str  # "facet-not-parallel" | "affine-miss" | "incidence"
    subject: tuple  # a facet, a (cell, facet) pair or a ridge's (facet, facet)
    ok: bool


def rejection_sample(what: str, bound: int, attempt: Callable[[int], Optional[T]]) -> T:
    """The first sample that attempt(bound) returns instead of None.

    Tries SAMPLE_BUDGET times and doubles the coordinate range `bound`
    every RANGE_DOUBLING_PERIOD tries; then raises, naming `what`.
    """
    for tries in range(SAMPLE_BUDGET):
        if tries and tries % RANGE_DOUBLING_PERIOD == 0:
            bound *= 2
        sample = attempt(bound)
        if sample is not None:
            return sample
    raise SamplingBudgetError(
        f"no {what} found in {SAMPLE_BUDGET} tries (coordinate range up to {bound})"
    )


def check_piece(
    failures: list[str],
    label: str,
    piece: Polytope,
    points: Sequence[Vector],
    received: Mapping[frozenset[int], int],
    actual: Fraction,
    expected: Fraction,
    shadow: Optional[Shadow] = None,
    sign: int = -1,
) -> None:
    """Check one piece of a flag count (a cell, the outside or a facet), a
    k-polytope, face by face and then as a sum.

    `received` counts the flags the piece took at each face, keyed by the
    names of its vertices (`piece.names`); only the failure lines read
    `points`, where points[v] is the point named v.  A (k-1)-face must take
    1 flag and a lower face 1 + sign * [its image is a face of the
    shadow]; a flag at no face is a failure too.  Then the sum chain:
    actual == via_counts == via_tops == expected, where via_counts is half
    the alternating sum of the piece's face counts below the top plus sign
    times that of its shadow's, and via_tops is the same from the top-face
    counts alone.  Each broken check adds one line to failures.
    """
    lat = face_lattice(piece)
    k = lat.dim
    faces = set()
    for c in range(k):
        for face in lat.faces(c):
            key = frozenset(piece.names[j] for j in face.vertex_indices)
            faces.add(key)
            want = 1
            if shadow is not None and c < k - 1:
                want += sign * shadow.is_face_image(face)
            got = received.get(key, 0)
            if got != want:
                failures.append(
                    f"{label}: dim-{c} face {_points(points, key)} took {got} flags, expected {want}"
                )
    for key in sorted(received.keys() - faces, key=lambda key: _sorted_points(points, key)):
        failures.append(f"{label}: {received[key]} flags at {_points(points, key)}, not a face")

    fv = f_vector(lat)
    sign_k = (-1) ** k
    via_counts = half_alternating_sum(fv, k - 1)
    via_tops = Fraction(1 - sign_k * fv[k], 2)
    if shadow is not None:
        gv = f_vector(face_lattice(shadow.polytope))
        via_counts += sign * half_alternating_sum(gv, k - 2)
        via_tops += sign * Fraction(1 + sign_k * gv[k - 1], 2)
    if not (actual == via_counts == via_tops == expected):
        failures.append(
            f"{label}: sum chain {actual} = {via_counts} = {via_tops} = {expected} broken"
        )


def _sorted_points(points: Sequence[Vector], key: frozenset[int]) -> list[Vector]:
    return sorted(points[v] for v in key)


def _points(points: Sequence[Vector], key: frozenset[int]) -> str:
    return f"[{', '.join(map(format_point, _sorted_points(points, key)))}]"


def check_totals(
    failures: list[str],
    f_p: FVector,
    values: Iterable[Fraction],
    piece_sums: Iterable[Fraction],
    by: str,
    decomposition: Fraction,
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Check the grand total of the flag values on a d-polytope, k = d - 1:
    summed by base face it is the alternating sum of f^0..f^(k-1) (lhs) and
    the total of the piece sums, which is `decomposition`; lhs is the needed
    1 + (-1)^k (1 - f^k) (rhs).  Appends each broken link to failures and
    returns (total_by_base, total, lhs, rhs)."""
    k = len(f_p) - 2
    lhs = Fraction(euler_alternating_sum(f_p[:k]))
    rhs = Fraction(1 + (-1) ** k * (1 - f_p[k]))
    total_by_base = sum(values, Fraction(0))
    total = sum(piece_sums, Fraction(0))
    if total_by_base != lhs:
        failures.append(f"flag total {total_by_base} != alternating sum {lhs}")
    if total_by_base != total:
        failures.append(f"double count broken: {total_by_base} by base, {total} by {by}")
    if total != decomposition:
        failures.append(f"classified total {total} != decomposition {decomposition}")
    if lhs != rhs:
        failures.append(f"needed identity broken: {lhs} != {rhs}")
    return total_by_base, total, lhs, rhs
