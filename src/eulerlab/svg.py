"""Deterministic SVG renderings of Schlegel complexes.

A 2-dimensional complex (from a 3-polytope) is drawn directly as a planar
subdivision, one polygon per cell.  A 3-dimensional complex (from a
4-polytope) is drawn as the wireframe of its edge skeleton under the fixed
parallel projection

    u = x + z/3,    v = y + z/4,

whose small rational entries keep the drawing exactly reproducible; the
same comment appears in the emitted file header.  All geometry is computed
in rationals and only formatted to fixed-precision decimals at the end, so
output bytes are a pure function of the complex.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Vector, dot
from .polytope import Polytope
from .projection import SchlegelComplex

CANVAS = Fraction(560)
MARGIN = Fraction(24)

PROJECTION_ROWS: tuple[Vector, Vector] = (
    (Fraction(1), Fraction(0), Fraction(1, 3)),
    (Fraction(0), Fraction(1), Fraction(1, 4)),
)


def _project3(point: Vector) -> tuple[Fraction, Fraction]:
    return (dot(PROJECTION_ROWS[0], point), dot(PROJECTION_ROWS[1], point))


def _fmt(x: Fraction) -> str:
    return f"{float(x):.3f}"


class _Mapper:
    """Affine map from rational plane coordinates to the SVG canvas, with
    the vertical axis flipped to screen orientation."""

    def __init__(self, points: list[tuple[Fraction, Fraction]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.min_x, self.max_y = min(xs), max(ys)
        spread = max(max(xs) - min(xs), max(ys) - min(ys))
        self.scale = (CANVAS - 2 * MARGIN) / (spread if spread else Fraction(1))

    def __call__(self, p: tuple[Fraction, Fraction]) -> str:
        x = MARGIN + (p[0] - self.min_x) * self.scale
        y = MARGIN + (self.max_y - p[1]) * self.scale
        return f"{_fmt(x)} {_fmt(y)}"


def _polygon_cycle(cell: Polytope) -> list[int]:
    """Vertex indices of a 2-dimensional polytope in boundary order,
    starting at vertex 0 and taking its lowest-index neighbour first."""
    neighbours: dict[int, list[int]] = {i: [] for i in range(len(cell.vertices))}
    for f in cell.facets:
        a, b = sorted(f.vertex_indices)
        neighbours[a].append(b)
        neighbours[b].append(a)
    cycle = [0, min(neighbours[0])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(n for n in sorted(neighbours[cur]) if n != prev)
        if nxt == 0:
            return cycle
        cycle.append(nxt)


def _render_subdivision(cx: SchlegelComplex) -> list[str]:
    cell_cycles = [
        (cell, _polygon_cycle(cell)) for cell in cx.cells
    ]
    mapper = _Mapper([v for cell in cx.cells for v in cell.vertices])
    body = [
        "  <!-- planar Schlegel subdivision drawn in carrier coordinates -->",
        '  <g fill="none" stroke="#000" stroke-width="1.5">',
    ]
    for cell, cycle in cell_cycles:
        pts = " ".join(
            mapper(cell.vertices[i]).replace(" ", ",") for i in cycle
        )
        body.append(f'    <polygon points="{pts}" />')
    body.append("  </g>")
    return body


def _render_wireframe(cx: SchlegelComplex) -> list[str]:
    flat = [_project3(cx.face_points(f)[0]) for f in cx.faces(0)]
    mapper = _Mapper(flat)
    body = [
        "  <!-- wireframe under the parallel projection"
        " u = x + z/3, v = y + z/4 -->",
        '  <g stroke="#000" stroke-width="1.2">',
    ]
    for a, b in map(cx.face_points, cx.faces(1)):
        body.append(
            f'    <path d="M {mapper(_project3(a))} L {mapper(_project3(b))}" />'
        )
    body.append("  </g>")
    body.append('  <g fill="#000">')
    for v in flat:
        x, y = mapper(v).split()
        body.append(f'    <circle cx="{x}" cy="{y}" r="3" />')
    body.append("  </g>")
    return body


def render_schlegel_svg(cx: SchlegelComplex) -> str:
    """The complex as a standalone SVG string (byte-deterministic)."""
    if cx.dim == 2:
        body = _render_subdivision(cx)
    elif cx.dim == 3:
        body = _render_wireframe(cx)
    else:
        raise ValueError("SVG output supports Schlegel complexes of 3- and 4-polytopes")
    size = _fmt(CANVAS)
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"
