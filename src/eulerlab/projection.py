"""Projections shared by both verification harnesses.

Three constructions: the Schlegel complex of a polytope at a facet (each
vertex centrally projected once, from a beyond point onto the facet's
hyperplane, and charted there, all on ints; each piece is a facet on those
images, read off the polytope's ridges; faces are named by their vertex
indices, with incidences from `Polytope.facets_of`), orthogonal projection
along a direction, and central projection from an exterior point in the
polytope's own hyperplane.  Shadows are new point sets, so they run the hull,
and carry the exact "image of this face is a face of the shadow" predicate,
computed by full face-lattice comparison of vertex index sets rather than
any silhouette criterion.  Each shadow's images are full-dimensional int
points, lifted vertices read through the integer nullspace of the direction
or of the screen's normal (the screen's offset only decides separation), so
no shadow is reframed, and its hull starts from those ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatchError, GeneralPositionError
from .linalg import (
    Hyperplane,
    SpanBuilder,
    Vector,
    affine_basis,
    affine_frame,
    is_zero,
    lift,
    lift_points,
    rational_point,
    reduce_lifted,
    vsub,
)
from .polytope import (
    Face,
    Polytope,
    _assemble,
    _hull_facets,
    face_lattice,
    facet_polytope,
    point_polytope,
)


def beyond_point(p: Polytope, i: int) -> Vector:
    """A rational point beyond facet i and beneath all others.

    Starts one unit outward from the facet's vertex barycenter and halves
    the step until every strict inequality holds (all are open conditions
    satisfied in the limit, so this terminates).  On ints: with X the sum of
    the facet's lifted vertices, the point at step 1/t is (t·X + V|F|·n) over
    t·V|F|, and each side is an int product over that positive scale.
    """
    if not 0 <= i < len(p.facets):
        raise ValueError(f"facet index {i} out of range")
    (scale, points), held = p.lifted, p.facets[i].vertex_indices
    big_x = [sum(c) for c in zip(*(points[v] for v in held))]
    push = [scale * len(held) * x for x in p.facets[i].hyperplane.normal]
    t = 1
    while True:
        y, den = [t * a + b for a, b in zip(big_x, push)], t * scale * len(held)
        sides = [sum(map(mul, f.hyperplane.normal, y)) - den * f.hyperplane.offset for f in p.facets]
        if sides.pop(i) > 0 and all(s < 0 for s in sides):
            return rational_point((*y, den))
        t *= 2


@dataclass(frozen=True)
class ComplexFace:
    """A face of a Schlegel complex, the image of a face of the polytope
    projected and named by that face's vertex indices there.

    Its incidences, which take no part in equality: `cells` pairs the index
    of each cell that has this face as a face with the indices of that
    cell's facets containing it, and `carrier_facets` indexes the carrier's
    facets containing it.
    """

    vertex_indices: frozenset[int]
    dimension: int
    cells: tuple[tuple[int, tuple[int, ...]], ...] = field(compare=False, repr=False)
    carrier_facets: tuple[int, ...] = field(compare=False, repr=False)


# Signs of facet normals against a direction: per cell per facet, then per
# carrier facet.
SignTable = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


@dataclass(eq=False)
class SchlegelComplex:
    """Subdivision of the facet `carrier` induced by projecting the other
    facets of a polytope from a viewpoint just beyond the carrier.

    Carrier and cells are full-dimensional polytopes in a shared working
    frame of the carrier's hyperplane, spanned by `images`, the polytope's
    vertices projected into that frame, which `lifted` holds as ints
    (`lift_points` of the images); every piece names its vertices by their
    indices in the polytope.  The complex is face-to-face, so each
    face records the cells and facets it lies in (see ComplexFace);
    `facet_signs` tabulates the sign of every facet normal against a line
    direction.
    """

    facet_index: int
    carrier: Polytope
    cells: tuple[Polytope, ...]
    images: tuple[Vector, ...]
    lifted: tuple[int, list[tuple[int, ...]]]

    @property
    def a(self) -> int:
        return len(self.cells)

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @cached_property
    def faces_by_dimension(self) -> dict[int, tuple[ComplexFace, ...]]:
        """Distinct proper faces of the complex (dims 0..k-1) with their
        incidences, ordered by their sorted images, read as the sorted lifted
        images (one positive scale keeps the lexicographic order).  A face
        is named by its vertex indices in the polytope, read off each
        piece's `names`.

        Each cell and the carrier answer which of their facets hold a face
        (`Polytope.facets_of`).  A complex face lies in a carrier facet only
        when it is a carrier face: a complex vertex that is no carrier
        vertex is the image of a vertex off the carrier's facet of the
        polytope, so it lies in the carrier's interior."""

        def proper_faces(piece: Polytope):
            lat = face_lattice(piece)
            for c in range(piece.dim):
                for face in lat.faces(c):
                    key = frozenset(piece.names[j] for j in face.vertex_indices)
                    yield key, c, piece.facets_of(face)

        seen: dict[frozenset[int], tuple[int, list]] = {}
        for i, cell in enumerate(self.cells):
            for key, c, through in proper_faces(cell):
                seen.setdefault(key, (c, []))[1].append((i, through))
        carrier_facets = {key: through for key, _, through in proper_faces(self.carrier)}
        points = self.lifted[1]
        faces = sorted(
            (ComplexFace(key, c, tuple(cells), carrier_facets.get(key, ()))
             for key, (c, cells) in seen.items()),
            key=lambda f: sorted(points[v] for v in f.vertex_indices),
        )
        return {c: tuple(f for f in faces if f.dimension == c) for c in range(self.dim)}

    def faces(self, c: int) -> tuple[ComplexFace, ...]:
        return self.faces_by_dimension.get(c, ())

    def face_points(self, face: ComplexFace) -> list[Vector]:
        """The face's vertex images in the carrier frame, sorted."""
        return sorted(self.images[v] for v in face.vertex_indices)

    def facet_signs(self, direction: Vector) -> SignTable:
        """sign(n·direction) as -1, 0 or 1 for the outer normal n of every
        facet of every cell, and of every carrier facet: int products with
        the lifted direction, a positive multiple of it."""
        e = lift(direction)
        cells = tuple(_normal_signs(cell, e) for cell in self.cells)
        return cells, _normal_signs(self.carrier, e)


def _normal_signs(p: Polytope, e: Sequence[int]) -> tuple[int, ...]:
    products = (sum(map(mul, f.hyperplane.normal, e)) for f in p.facets)
    return tuple((s > 0) - (s < 0) for s in products)


def schlegel(p: Polytope, facet: int) -> SchlegelComplex:
    """Schlegel complex of p at facet index `facet`.

    Every vertex of p is centrally projected once, from a beyond point onto
    the facet's hyperplane, and charted in the facet's frame, on ints and
    lifted once.  The map keeps each facet's face lattice, so its piece is
    `facet_polytope` on the images, read off p's ridges.  The carrier is
    the facet's own piece, as a vertex on its plane is its own image; the
    other pieces are the cells, and they tile the carrier.
    """
    if p.dim < 3:
        raise ValueError("Schlegel requires d >= 3")
    (scale, points), (v_scale, (v,)) = p.lifted, lift_points([beyond_point(p, facet)])
    n, b = p.facets[facet].hyperplane.normal, p.facets[facet].hyperplane.offset
    # The line from v through x meets the plane at v + (x - v)·a/(a - s) =
    # (x·a - v·s)/(a - s), for v's side a > 0 of it and x's side s <= 0.
    # With x = X/V, v = A/W, a = a'/W and s = s'/V that is (X·a' - A·s') over
    # a'·V - s'·W, and over m, the lcm of those; the frame then charts it.
    a = sum(map(mul, n, v)) - v_scale * b
    sides = [sum(map(mul, n, x)) - scale * b for x in points]
    m = math.lcm(*(a * scale - s * v_scale for s in sides))
    on_plane = [
        tuple(m // (a * scale - s * v_scale) * (a * c - s * e) for c, e in zip(x, v))
        for x, s in zip(points, sides)
    ]
    # The facet's vertices, their own images, frame the plane.
    held = [points[v] for v in sorted(p.facets[facet].vertex_indices)]
    frame = affine_frame(scale, held, affine_basis(held))
    lifted = reduce_lifted(*frame.chart(m, on_plane))
    images = tuple(rational_point((*q, lifted[0])) for q in lifted[1])
    pieces = [facet_polytope(p, j, lifted) for j in range(len(p.facets))]
    carrier = pieces.pop(facet)
    return SchlegelComplex(facet, carrier, tuple(pieces), images, lifted)


@dataclass
class Shadow:
    """Projection image of a polytope, one dimension down.

    `vertex_map` gives, for each source vertex, the index of the shadow
    vertex that is its image, or None when its image is no shadow vertex;
    `face_image` maps each source face (by vertex index set) to whether its
    image is a face of the shadow.
    """

    polytope: Polytope
    vertex_map: tuple[Optional[int], ...]
    face_image: dict[frozenset[int], bool]

    def is_face_image(self, face: Face) -> bool:
        return self.face_image[face.vertex_indices]

    def face_source_labels(self) -> dict[int, frozenset[frozenset[int]]]:
        """Shadow faces per dimension, each named by the set of source
        vertices landing on its vertex set (for frame-free comparison)."""
        lat = face_lattice(self.polytope)
        return {
            c: frozenset(
                frozenset(v for v, w in enumerate(self.vertex_map) if w in g.vertex_indices)
                for g in lat.faces(c)
            )
            for c in range(lat.dim + 1)
        }


def _make_shadow(src: Polytope, images: Sequence[tuple[int, ...]]) -> Shadow:
    """The shadow of src whose vertex v has the int point images[v]: the
    hull of the images, each distinct one named by its first vertex."""
    first: dict[tuple[int, ...], int] = {}
    for v, x in enumerate(images):
        first.setdefault(x, v)
    if len(first) == 1:
        shadow_poly = point_polytope(images[0])
    else:
        shadow_poly = _assemble(1, list(first), _hull_facets, list(first.values()))
    if shadow_poly.dim != src.dim - 1:
        raise GeneralPositionError(
            f"shadow has dimension {shadow_poly.dim}, expected {src.dim - 1}"
        )
    # An image that is no shadow vertex maps to None, so no face holding it matches.
    vertex_of = {v: w for w, v in enumerate(shadow_poly.names)}
    vertex_map = tuple(vertex_of.get(first[x]) for x in images)
    families = face_lattice(shadow_poly).vertex_set_families()
    face_image = {
        face.vertex_indices: frozenset(vertex_map[i] for i in face.vertex_indices)
        in families.get(face.dimension, ())
        for face in face_lattice(src).all_faces()
    }
    return Shadow(polytope=shadow_poly, vertex_map=vertex_map, face_image=face_image)


def _functionals(row: Sequence[int]) -> list[list[int]]:
    """The integer nullspace of one int row, as functionals: x -> (w_i·x)
    has kernel span(row), so it is injective on the row's complement."""
    span = SpanBuilder(len(row))
    span.add(row)
    return span.integer_nullspace()


def project_along(src: Polytope, direction: Vector) -> Shadow:
    """Orthogonal projection of src along a direction of its working frame.

    The screen is the direction's orthogonal complement, charted by the
    `_functionals` of the lifted direction, so each image is an int point:
    the rational image times one positive scale.  The image of a face is a
    face of the shadow iff its projected vertex set equals the vertex set
    of a shadow face of the same dimension.
    """
    if len(direction) != src.dim:
        raise DimensionMismatchError(
            "direction must live in the source's working frame"
        )
    if is_zero(direction):
        raise ValueError("direction must be nonzero")
    functionals = _functionals(lift(direction))
    images = [tuple(sum(map(mul, w, x)) for w in functionals) for x in src.lifted[1]]
    return _make_shadow(src, images)


def project_from_point(
    src: Polytope, apex: Vector, screen: Optional[Hyperplane] = None
) -> Shadow:
    """Central projection of src from an exterior apex in its working frame.

    The default screen separates the apex from src halfway along a violated
    facet inequality (normal·x = (b+b')/2); any screen with the apex
    strictly on one side and every vertex strictly on the other is
    admissible and yields the same face structure.  The offset only decides
    that separation: the screen enters the images only through the chart W
    of its normal n, its `_functionals`.  Vertex x lands at
    W·(x-a)/(n·(x-a)), its image on the screen translated by W·a and scaled
    by the apex a's side.  The apex is lifted and brought with the
    vertices' `lifted` ints to one scale, and one lcm of the n·(x-a), signed
    so that every multiplier is positive, makes each image an int point.
    """
    if len(apex) != src.dim:
        raise DimensionMismatchError("apex must live in the source's working frame")
    (v_scale, points), (a_scale, (a,)) = src.lifted, lift_points([apex])
    scale = math.lcm(v_scale, a_scale)  # of every denominator of apex and vertices
    a = [scale // a_scale * c for c in a]
    points = [[scale // v_scale * c for c in q] for q in points]
    planes = (f.hyperplane for f in src.facets)
    violated = next((h for h in planes if sum(map(mul, h.normal, a)) > scale * h.offset), None)
    if violated is None:
        raise ValueError("apex not exterior")
    if screen is None:
        n, b = violated.normal, violated.offset
        screen = Hyperplane(n, (b + Fraction(sum(map(mul, n, a)), scale)) / 2)
    if len(screen.normal) != src.dim:
        raise DimensionMismatchError("screen must live in the source's working frame")
    *normal, offset = lift([*screen.normal, screen.offset])
    apex_side, *sides = (sum(map(mul, normal, x)) - scale * offset for x in (a, *points))
    if any(s * apex_side >= 0 for s in sides):
        raise ValueError("screen must strictly separate the apex from the source")
    chart = _functionals(normal)
    # n·(x - a) is x's side minus the apex's: all of the sign opposite to it.
    gaps = [s - apex_side for s in sides]
    m = math.lcm(*gaps) if apex_side < 0 else -math.lcm(*gaps)
    images = [
        tuple(m // g * sum(map(mul, w, y)) for w in chart)
        for y, g in zip((vsub(x, a) for x in points), gaps)
    ]
    return _make_shadow(src, images)
