"""Face spans for tests: the per-face general-position checks that both
samplers made before they certified lines from facet normals alone.  The
reference samplers, and the tests that re-prove a sampled line's general
position face by face, build on these, and read a face's points with
face_points.  `to_working` is the rational chart that the int chart
`AffineSubspace.chart` replaced."""

from fractions import Fraction
from operator import mul
from typing import Optional

from eulerlab.linalg import (
    Hyperplane,
    SpanBuilder,
    Vector,
    dot,
    is_zero,
    lift,
    lift_points,
    vsub,
)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(a: Vector, s) -> Vector:
    s = Fraction(s)
    return tuple(x * s for x in a)


def face_points(p, face) -> tuple[Vector, ...]:
    """The vertices of a face of the polytope p, by increasing index."""
    return tuple(p.vertices[j] for j in sorted(face.vertex_indices))


def to_working(sub, x: Vector) -> Vector:
    """Coordinates in sub.direction_basis of a point x on the subspace.

    With y = x - base_point, the chart row with pivot p < k gives
    C.y = d*w_p, and the point is on the subspace exactly when C.y = 0
    for every other row; y is lifted to ints for these products."""
    span, k = sub._chart, sub.dim
    *y, scale = lift([*vsub(x, sub.base_point), 1])
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
