"""Exact rational linear algebra: vectors, spans, affine frames, hyperplanes and an LP.

Vectors are tuples of :class:`fractions.Fraction` or ints, matrices lists of
such rows.  Predicates (rank, incidence, sidedness) are decided exactly, on
Fractions or on ints: `lift` and `lift_points` scale a row or a point set by
one positive integer, which moves no sign, and `reduce_lifted` restates int
points over a scale as `lift_points` gives them; an affine frame is such
ints, built by `affine_frame`, and charts and embeds points on ints.  Two
kernels divide only exactly, by Sylvester's identity: `SpanBuilder`, which
rank, nullspace, solve, affine frames and their charts run on, reduces
each new row forward against its echelon rows (Bareiss steps) and builds
the RREF only when read; the phase-1 simplex of `linear_feasible` keeps a
condensed integer dictionary, nonbasic columns only, and takes exchange
steps, `_pivot`.  Both take ints only, much faster than Fractions at this
scale; rationals become ints once, where they enter: `_span` lifts each
row, `affine_hull` and `affine_dim` their point set, and a caller of the
simplex each row with its rhs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form 'p' or 'p/q' (q > 0): the regex checks
    it, and one Fraction is built from p and q as ints."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def format_point(x: Vector) -> str:
    """A point as rational strings, e.g. (0, 1/2, 1)."""
    return f"({', '.join(map(format_rational, x))})"


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Vector, b: Vector) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


def barycenter(points: Sequence[Vector]) -> Vector:
    if not points:
        raise ValueError("no points")
    n = Fraction(len(points))
    return tuple(sum(col, Fraction(0)) / n for col in zip(*points))


def lift(row: Sequence[Fraction]) -> list[int]:
    """The rational row times the least positive integer that makes every
    entry whole, as ints."""
    m = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def rational_point(q: Sequence[int]) -> Vector:
    """The point of the ints (n_1, ..., n_d, D), D != 0: (n_1/D, ..., n_d/D),
    undoing `lift` on [*point, 1]."""
    *nums, den = q
    return tuple(Fraction(c, den) for c in nums)


def lift_points(points: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """V, the lcm of every coordinate's denominator, and each point times V
    as ints: one positive scale for all, so no sign and no incidence moves.
    Coordinates are ints or Fractions; neither is copied."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    return scale, tuple(tuple(x.numerator * (scale // x.denominator) for x in p) for p in points)


def reduce_lifted(scale: int, points: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The points q/scale, scale > 0, as `lift_points` states them: scale
    and every coordinate over their gcd g.  Each denominator of q/scale is
    scale/gcd(q_j, scale), and their lcm is scale/g."""
    g = math.gcd(scale, *(c for q in points for c in q))
    return scale // g, tuple(tuple(c // g for c in q) for q in points)


class SpanBuilder:
    """Incrementally maintained row space: the package's exact elimination.

    Takes int rows only; a caller with rationals lifts them first (`_span`
    does).  Holds the rows in fraction-free echelon form (Bareiss 1968), in
    the order they were added: each new row reduced forward against the rows
    before it, and never touched again.  A new row's pivot c_i is its first
    nonzero column after reduction, and no column that depends on earlier
    ones over the row space can come first, so the pivots are exactly the
    RREF pivots; p_i is the row's entry there.  `_rows`, d times the reduced
    row echelon form with d = p_t, is built on its first read after an add.
    """

    def __init__(self, width: int):
        self.width = width
        self._echelon: list[list[int]] = []
        self._pivots: list[int] = []
        self._rref: Optional[list[list[int]]] = None

    def _reduce(self, v: Sequence[int]) -> list[int]:
        """The int row v after one Bareiss step per stored row, in order: w
        becomes (p_i*w - w[c_i]*r_i) // p_(i-1), with p_0 = 1, exact by
        Sylvester's identity, so w[c_i] = 0 still scales w by p_i/p_(i-1).
        That is d*v minus the RREF rows weighted by v's pivot-column
        entries; it is zero exactly when v lies in the span."""
        if len(v) != self.width:
            raise DimensionMismatchError(f"row of length {len(v)} in a span of width {self.width}")
        w, prev = v, 1
        for row, c in zip(self._echelon, self._pivots):
            p, f = row[c], w[c]
            w = [(p * a - f * b) // prev for a, b in zip(w, row)]
            prev = p
        return w if self._echelon else list(v)

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v lies in the span, on zero-ness alone: a step here is
        p_i*w - w[c_i]*r_i, undivided and skipped where w[c_i] = 0, so w
        stays a nonzero multiple of the `_reduce` row."""
        if len(v) != self.width:
            raise DimensionMismatchError(f"row of length {len(v)} in a span of width {self.width}")
        w = v
        for row, c in zip(self._echelon, self._pivots):
            if f := w[c]:
                p = row[c]
                w = [p * a - f * b for a, b in zip(w, row)]
        return not any(w)

    def add(self, v: Sequence[int]) -> bool:
        """Add v to the span; True if it enlarged the space."""
        red = self._reduce(v)
        for col, x in enumerate(red):
            if x:
                self._echelon.append(red)
                self._pivots.append(col)
                self._rref = None
                return True
        return False

    def copy(self) -> "SpanBuilder":
        """The same span, sharing its rows and RREF, which no add changes."""
        other = SpanBuilder(self.width)
        other._echelon, other._pivots, other._rref = self._echelon[:], self._pivots[:], self._rref
        return other

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def _d(self) -> int:
        return self._echelon[-1][self._pivots[-1]] if self._pivots else 1

    @property
    def _rows(self) -> list[list[int]]:
        """d times the RREF, by back-substitution from the last row: R_t = r_t
        and R_i = (d*r_i - sum over j > i of r_i[c_j]*R_j) // p_i."""
        if self._rref is None:
            d, done = self._d, []
            for row, c in zip(reversed(self._echelon), reversed(self._pivots)):
                w = [d * a for a in row]
                for r, cj in done:
                    if f := row[cj]:
                        w = [a - f * b for a, b in zip(w, r)]
                done.append(([a // row[c] for a in w], c))
            self._rref = [r for r, _ in reversed(done)]
        return self._rref

    def integer_nullspace(self) -> list[list[int]]:
        """Basis of {x : row·x = 0 for every row of the span} times |d|, in
        ints: per free column, |d| there, 0 in the other free columns, and in
        each pivot column minus its `_rows` entry times the sign of d."""
        d, cols, rows = self._d, range(self.width), dict(zip(self._pivots, self._rows))
        sign = 1 if d > 0 else -1
        return [
            [sign * (d if c == fc else -rows[c][fc] if c in rows else 0) for c in cols]
            for fc in cols
            if fc not in rows
        ]


def _span(rows: Sequence[Sequence[Fraction]], width: int) -> SpanBuilder:
    """The span of rational rows, each lifted to ints."""
    span = SpanBuilder(width)
    for row in rows:
        span.add(lift(row))
    return span


def rank(rows: Sequence[Vector]) -> int:
    """Exact rank of the linear span of the given row vectors."""
    rows = list(rows)
    if not rows:
        return 0
    return _span(rows, len(rows[0])).rank


def nullspace(rows: Sequence[Vector], width: int) -> list[Vector]:
    """Basis of {x : rows·x = 0} in Q^width: the integer nullspace over |d|."""
    span = _span(rows, width)
    return [tuple(Fraction(x, abs(span._d)) for x in v) for v in span.integer_nullspace()]


def solve_linear(rows: Sequence[Vector], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of rows·x = rhs, or None if inconsistent.

    For underdetermined consistent systems the free variables are set to 0.
    """
    n = len(rows[0]) if rows else 0
    span = _span([(*row, b) for row, b in zip(rows, rhs, strict=True)], n + 1)
    if n in span._pivots:
        return None
    x = [Fraction(0)] * n
    for row, col in zip(span._rows, span._pivots):
        x[col] = Fraction(row[n], span._d)
    return tuple(x)


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(b_1, ..., b_k), independent, held as `lifted` = (s,
    (s*base, s*b_1, ..., s*b_k)) in `reduce_lifted` form, so equal frames
    compare equal; it charts its points in that basis, on ints."""

    lifted: tuple[int, tuple[tuple[int, ...], ...]]

    @property
    def dim(self) -> int:
        return len(self.lifted[1]) - 1

    @cached_property
    def _chart(self) -> SpanBuilder:
        """The span of the rows (b_1[j], ..., b_k[j], unit_j), one per
        ambient coordinate j, each the primitive int row of the lifted basis:
        the transposed basis next to the identity, eliminated once.

        Each span row (R | C) has R = C times the transposed basis.  The
        basis is independent, so k rows have R = d*unit_p, for the span's
        d and their pivot p < k, and the others have R = 0."""
        s, (base, *basis) = self.lifted
        span, n = SpanBuilder(self.dim + len(base)), len(base)
        for j in range(n):
            g = math.gcd(s, *(b[j] for b in basis))
            span.add([*(b[j] // g for b in basis), *(s // g * (i == j) for i in range(n))])
        return span

    def chart(self, scale: int, points: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
        """Coordinates in the basis of the points q/scale for int rows q,
        as D > 0 and ints that are the coordinates times D.

        Over m = lcm(scale, s), y = Y/m with Y = (m/scale)*q - (m/s)*s*base,
        and (m/s)*C.(s*base) is taken once per chart row.  The row with
        pivot p < k gives C.Y = d*m*w_p, so D is m*|d|; the point is on the
        subspace exactly when C.Y = 0 for every other row, or ValueError."""
        span, k = self._chart, self.dim
        s, (base, *_) = self.lifted
        m = math.lcm(scale, s)
        sign, to_m = 1 if span._d > 0 else -1, m // scale
        rows = [(row[k:], p, m // s * sum(map(mul, row[k:], base))) for row, p in zip(span._rows, span._pivots)]
        out = []
        for q in points:
            w = [0] * k
            for c, p, c_base in rows:
                c_y = to_m * sum(map(mul, c, q)) - c_base
                if p < k:
                    w[p] = sign * c_y
                elif c_y:
                    raise ValueError("point not on the affine subspace")
            out.append(tuple(w))
        return m * abs(span._d), out

    def embed(self, scale: int, ys: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
        """The points base + (y_1*b_1 + ... + y_k*b_k)/scale for int rows y,
        scale > 0, undoing `chart`, as s*scale and the points times it."""
        s, (base, *basis) = self.lifted
        rows = list(zip(base, zip(*basis) if basis else [()] * len(base)))
        return scale * s, [tuple(scale * c + sum(map(mul, y, col)) for c, col in rows) for y in ys]


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal·x = offset}, normal nonzero; a facet's are ints with gcd 1."""

    normal: Vector
    offset: Fraction

    def __post_init__(self):
        if is_zero(self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def side(self, point: Vector) -> Fraction:
        """normal·point - offset: 0 on the plane, sign gives the side."""
        return dot(self.normal, point) - self.offset


def affine_basis(points: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a greedy affine basis of int points: the first point, then
    each later one whose difference from it enlarges the span.  A positive
    scale moves no dependency, so rational points lifted to ints with
    `lift_points` give the indices of the rational points."""
    if not points:
        raise ValueError("no points")
    base = points[0]
    width = len(base)
    span = SpanBuilder(width)
    chosen = [0]
    for i in range(1, len(points)):
        if span.rank == width:
            break
        q = points[i]
        if len(q) != width:
            raise DimensionMismatchError(f"points of lengths {width} and {len(q)}")
        if span.add([a - b for a, b in zip(q, base)]):
            chosen.append(i)
    return chosen


def affine_frame(scale: int, points: Sequence[Sequence[int]], chosen: Sequence[int]) -> AffineSubspace:
    """The frame of the int points q/scale on their `affine_basis` `chosen`:
    the first basis point, and each later one minus it."""
    base, *rest = (points[i] for i in chosen)
    return AffineSubspace(reduce_lifted(scale, [base, *(vsub(q, base) for q in rest)]))


def affine_hull(points: Sequence[Vector]) -> AffineSubspace:
    """Smallest affine subspace containing the points, framed on their
    lifted ints."""
    scale, lifted = lift_points(points)
    return affine_frame(scale, lifted, affine_basis(lifted))


def affine_dim(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    return len(affine_basis(lift_points(points)[1])) - 1 if points else -1


def hyperplane_through(points: Sequence[Vector], beneath: Vector) -> Hyperplane:
    """Hyperplane spanned by `points` in primitive ints, normal·beneath < offset.

    The points must span affine dimension d-1 in ambient dimension d; the
    beneath point must be strictly off the plane.
    """
    base = points[0]
    width = len(base)
    normals = _span([vsub(p, base) for p in points[1:]], width).integer_nullspace()
    if len(normals) != 1:
        raise ValueError(
            f"points span affine dimension {width - len(normals)}, need {width - 1}"
        )
    *n, c = lift([*normals[0], dot(normals[0], base)])
    gap = dot(n, beneath) - c
    if gap == 0:
        raise ValueError("orientation point lies on the hyperplane")
    g = math.gcd(*n, c) * (-1 if gap > 0 else 1)
    return Hyperplane(tuple(x // g for x in n), c // g)


def _pivot(dic: list[list[int]], r: int, c: int, d: int) -> int:
    """One exchange step of the integer dictionary on p = dic[r][c]: row r's
    basic variable and column c's nonbasic one trade places.  Every other
    row becomes (p*a - f*b) // d, exact by Sylvester's identity, and takes
    -f in column c, f its entry there; row r takes d there.  When p < 0 the
    whole dictionary is negated in the same pass.  Returns |p|, the new d.
    """
    prow = dic[r]
    s = 1 if prow[c] > 0 else -1
    p = s * prow[c]
    for i, row in enumerate(dic):
        if i != r:
            f = s * row[c]
            if f or p != d:
                row = dic[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            row[c] = -f
    if s < 0:
        prow = dic[r] = [-x for x in prow]
    prow[c] = s * d
    return p


def linear_feasible(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[Vector]:
    """Exact witness for {y : rows·y <= rhs}, or None when infeasible.

    Phase-1 simplex on a condensed integer dictionary (integer pivoting as
    in lrs, Avis 2000), on int rows and rhs only: a caller with rationals
    lifts each row with its rhs first.  Row i reads d*x_i + T_i·x_N = b_i
    for its basic x_i and the nonbasic x_N, and holds T_i and b_i only: n + 2
    ints with the artificial's entry.  Rows start on the slacks, columns on
    y.  Each free y_j is pivoted in once, in the first row not yet taken
    with a nonzero entry in column j (y_j = 0 if none has one); those rows
    leave the ratio test, and y_j is its row's b over d.  If another b is
    then negative, phase 1 is Chvátal's auxiliary problem (Chvátal 1983,
    ch. 3): one artificial x0, entry -d in each other row, enters at the
    least b, and Bland's rule lowers it until it leaves the basis (feasible)
    or no column lowers it (empty).  Every step is the exchange `_pivot`.
    """
    m = len(rows)
    if m == 0:
        return tuple()
    n = len(rows[0])
    dic: list[list[int]] = []
    for row, b in zip(rows, rhs, strict=True):
        if len(row) != n:
            raise DimensionMismatchError("rows of unequal length")
        dic.append([*row, 0, b])
    d, free = 1, {}  # free column -> its row
    for j in range(n):
        r = next((i for i in range(m) if dic[i][j] and i not in free.values()), None)
        if r is not None:
            d, free[j] = _pivot(dic, r, j, d), r
    rest = [i for i in range(m) if i not in free.values()]
    low = min(rest, key=lambda i: dic[i][-1], default=None)
    if low is not None and dic[low][-1] < 0:
        # Bland's order: x0 is -1, so it leaves on every tie; y_j is j and
        # row i's slack n + i.  A y_j column is 0 outside the free rows.
        basis = [n + i for i in range(m)]
        cols = [n + free[j] if j in free else j for j in range(n)] + [-1]
        for i in rest:
            dic[i][n] = -d
        enter, leave = n, low
        while True:
            d = _pivot(dic, leave, enter, d)
            cols[enter], basis[leave] = basis[leave], cols[enter]
            if cols[enter] == -1:
                break  # x0 left the basis at 0
            # x0 = (b - T·x_N)/d in its row: x_j lowers it when T_j > 0.
            objective = dic[low]
            lowers = [(cols[j], j) for j in range(n + 1) if objective[j] > 0]
            if not lowers:
                return None
            enter, leave = min(lowers)[1], None
            for i in rest:
                # b_i / f against the least ratio so far, cross-multiplied;
                # a tie goes to the lower index.
                if (f := dic[i][enter]) > 0 and (
                    leave is None or (gap := dic[i][-1] * den - num * f) < 0
                    or gap == 0 and basis[i] < basis[leave]
                ):
                    leave, num, den = i, dic[i][-1], f
    return tuple(Fraction(dic[free[j]][-1] if j in free else 0, d) for j in range(n))
