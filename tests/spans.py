"""Face spans for tests: the per-face general-position checks that both
samplers made before they certified lines from facet normals alone.  The
reference samplers, and the tests that re-prove a sampled line's general
position face by face, build on these, and read a face's points with
face_points.  `rational_frame` reads a frame's base point and basis as
Fractions, `to_working` is the rational chart that the int chart
`AffineSubspace.chart` replaced, and `GaussJordanSpan` is the span that
kept d times the RREF current on every add, before `SpanBuilder` held
echelon rows and built the RREF on first read."""

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from eulerlab.errors import DimensionMismatchError
from eulerlab.linalg import (
    Hyperplane,
    SpanBuilder,
    Vector,
    _pivot,
    dot,
    is_zero,
    lift,
    lift_points,
    rational_point,
    vsub,
)


def vec(*coords) -> Vector:
    """Build a Vector, coercing ints/strings to Fraction."""
    return tuple(Fraction(c) for c in coords)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(a: Vector, s) -> Vector:
    s = Fraction(s)
    return tuple(x * s for x in a)


def face_points(p, face) -> tuple[Vector, ...]:
    """The vertices of a face of the polytope p, by increasing index."""
    return tuple(p.vertices[j] for j in sorted(face.vertex_indices))


def rational_frame(sub) -> tuple[Vector, tuple[Vector, ...]]:
    """An AffineSubspace's base point and basis as rational points, read
    off its `lifted` ints."""
    scale, (base, *basis) = sub.lifted
    return rational_point((*base, scale)), tuple(rational_point((*b, scale)) for b in basis)


def to_working(sub, x: Vector) -> Vector:
    """Coordinates in the basis of sub of a point x on the subspace.

    With y = x - base, the chart row with pivot p < k gives C.y = d*w_p,
    and the point is on the subspace exactly when C.y = 0 for every other
    row; y is lifted to ints for these products."""
    span, k = sub._chart, sub.dim
    *y, scale = lift([*vsub(x, rational_frame(sub)[0]), 1])
    w = [Fraction(0)] * k
    for row, p in zip(span._rows, span._pivots):
        c_y = sum(map(mul, row[k:], y))
        if p < k:
            w[p] = Fraction(c_y, scale * span._d)
        elif c_y:
            raise ValueError("point not on the affine subspace")
    return tuple(w)


def active_facets(p, x: Vector) -> tuple[int, ...]:
    """Indices of the facets of p whose hyperplane passes through x."""
    return tuple(i for i, f in enumerate(p.facets) if f.hyperplane.side(x) == 0)


def through(points) -> SpanBuilder:
    """The direction space of the points' affine hull: the span of every
    point minus the first, on the points lifted to ints."""
    _, lifted = lift_points(points)
    span = SpanBuilder(len(lifted[0]))
    for q in lifted[1:]:
        span.add(vsub(q, lifted[0]))
    return span


def meets_line(span: SpanBuilder, point: Vector, direction: Vector) -> bool:
    """Whether the line {point + t*direction} meets the span: exactly when
    the reduced row of point is a multiple of that of direction.  Each is
    lifted to ints on its own, as a positive scale moves no multiple."""
    a, b = span._reduce(lift(point)), span._reduce(lift(direction))
    j = next((j for j, x in enumerate(b) if x), None)
    if j is None:
        return not any(a)
    return all(x * b[j] == y * a[j] for x, y in zip(a, b))


def line_hyperplane_intersection(
    line_point: Vector, line_dir: Vector, h: Hyperplane
) -> Optional[Vector]:
    """Unique line/hyperplane intersection point, or None when parallel."""
    if is_zero(line_dir):
        raise ValueError("line direction must be nonzero")
    denom = dot(h.normal, line_dir)
    if denom == 0:
        return None
    t = (h.offset - dot(h.normal, line_point)) / denom
    return vadd(line_point, vscale(line_dir, t))


class GaussJordanSpan:
    """Incrementally maintained row space: the package's exact elimination.

    Takes int rows only; a caller with rationals lifts them first (`_span`
    does).  Holds integer rows that are d times the reduced row echelon form
    of the span, in the order they were added.  A new row's pivot is its first
    nonzero column after reduction, and no column that depends on earlier
    ones over the row space can come first, so the pivots are exactly the
    RREF pivots.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []
        self._d = 1

    def _reduce(self, v: Sequence[int]) -> list[int]:
        """The row the kernel would hold for the int row v after the span's
        pivot steps: d*v minus the span rows weighted by v's pivot-column
        entries.  It is zero exactly when v lies in the span."""
        if len(v) != self.width:
            raise DimensionMismatchError(
                f"row of length {len(v)} in a span of width {self.width}"
            )
        w = [self._d * a for a in v]
        for row, p in zip(self._rows, self._pivots):
            f = v[p]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self._reduce(v))

    def add(self, v: Sequence[int]) -> bool:
        """Add v to the span; True if it enlarged the space."""
        red = self._reduce(v)
        col = next((c for c, x in enumerate(red) if x), None)
        if col is None:
            return False
        self._rows.append(red)
        self._pivots.append(col)
        self._d = _pivot(self._rows, len(self._rows) - 1, col, self._d)
        return True

    def copy(self) -> "GaussJordanSpan":
        """The same span, sharing rows, which `_pivot` rebinds but never changes."""
        other = GaussJordanSpan(self.width)
        other._rows, other._pivots, other._d = self._rows[:], self._pivots[:], self._d
        return other

    @property
    def rank(self) -> int:
        return len(self._rows)

    def integer_nullspace(self) -> list[list[int]]:
        """Basis of {x : row·x = 0 for every row of the span} times |d|, in
        ints: per free column, |d| there, 0 in the other free columns, and in
        each pivot column minus its row's entry times the sign of d (the rows
        are d times the RREF)."""
        cols, rows = range(self.width), dict(zip(self._pivots, self._rows))
        sign = 1 if self._d > 0 else -1
        return [
            [sign * (self._d if c == fc else -rows[c][fc] if c in rows else 0) for c in cols]
            for fc in cols
            if fc not in rows
        ]
