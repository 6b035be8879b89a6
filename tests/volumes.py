"""Exact determinants and volumes for tests: nothing in the package needs
them, but the sum of cell volumes is a strong check on a Schlegel complex."""

import itertools
import math
from fractions import Fraction

from eulerlab.linalg import SpanBuilder, lift, vsub
from eulerlab.polytope import Face, FaceLattice, Polytope, face_lattice


def det(rows):
    """Exact determinant of a square matrix, by the package's elimination.

    Row i of a full-rank matrix pivots on column pivots[i], and the span's d
    is the determinant of the lifted rows with their columns in that order;
    so the sign is the parity of that order."""
    n = len(rows)
    span = SpanBuilder(n)
    for row in rows:
        span.add(lift(row))
    if span.rank < n:
        return Fraction(0)
    pivots = span._pivots
    inversions = sum(a > b for a, b in itertools.combinations(pivots, 2))
    scales = (math.lcm(*(Fraction(x).denominator for x in row)) for row in rows)
    return Fraction((-1) ** inversions * span._d, math.prod(scales))


def children(lat: FaceLattice, face: Face) -> tuple[Face, ...]:
    """Faces of one dimension lower contained in the given face."""
    return tuple(
        g for g in lat.faces(face.dimension - 1) if g.vertex_indices <= face.vertex_indices
    )


def triangulate(
    lat: FaceLattice, face: Face, memo: dict[Face, list[tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """Pulling triangulation of a face into vertex-index simplices."""
    if face in memo:
        return memo[face]
    if face.dimension == 0:
        (v,) = face.vertex_indices
        memo[face] = [(v,)]
        return memo[face]
    pivot = min(face.vertex_indices)
    simplices = []
    for child in children(lat, face):
        if pivot in child.vertex_indices:
            continue
        for s in triangulate(lat, child, memo):
            simplices.append(s + (pivot,))
    memo[face] = simplices
    return simplices


def volume(p: Polytope) -> Fraction:
    """Exact dim(p)-dimensional volume in the working frame."""
    k = p.dim
    if k == 0:
        return Fraction(1)
    lat = face_lattice(p)
    memo: dict[Face, list[tuple[int, ...]]] = {}
    total = Fraction(0)
    for s in triangulate(lat, lat.top, memo):
        rows = [vsub(p.vertices[i], p.vertices[s[0]]) for i in s[1:]]
        total += abs(det(rows))
    return total / math.factorial(k)
