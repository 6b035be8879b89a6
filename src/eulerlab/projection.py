"""Projections shared by both verification harnesses.

Three constructions: the Schlegel complex of a polytope at a facet (each
vertex centrally projected once, from a beyond point onto the facet's
hyperplane; its faces' incidences come from `Polytope.facets_of`), orthogonal
projection of a polytope along a direction, and central projection from an
exterior point in the polytope's own hyperplane.  Shadows carry the exact
"image of this face is a face of the shadow" predicate, computed by full
face-lattice comparison rather than any silhouette criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DimensionMismatchError, GeneralPositionError
from .linalg import (
    Hyperplane,
    Vector,
    affine_hull,
    barycenter,
    dot,
    is_zero,
    nullspace,
    vadd,
    vscale,
    vsub,
)
from .polytope import (
    Face,
    Polytope,
    build_polytope,
    face_lattice,
    point_polytope,
)


def _facet_index(p: Polytope, facet: Union[int, Face]) -> int:
    if isinstance(facet, int):
        if not 0 <= facet < len(p.facets):
            raise ValueError(f"facet index {facet} out of range")
        return facet
    for i, f in enumerate(p.facets):
        if f.vertex_indices == facet.vertex_indices:
            return i
    raise ValueError("face is not a facet of this polytope")


def beyond_point(p: Polytope, facet: Union[int, Face]) -> Vector:
    """A rational point beyond the given facet and beneath all others.

    Starts one unit outward from the facet's vertex barycenter and halves
    the step until every strict inequality holds (all are open conditions
    satisfied in the limit, so this terminates).
    """
    i = _facet_index(p, facet)
    h = p.facets[i].hyperplane
    center = barycenter(p.facet_vertices(i))
    step = Fraction(1)
    while True:
        cand = vadd(center, vscale(h.normal, step))
        if h.side(cand) > 0 and all(
            f.hyperplane.side(cand) < 0 for j, f in enumerate(p.facets) if j != i
        ):
            return cand
        step /= 2


@dataclass(frozen=True)
class ComplexFace:
    """A face of a polyhedral complex, identified by its exact point set.

    Its incidences, which take no part in equality: `cells` pairs the index
    of each cell that has this face as a face with the indices of that
    cell's facets containing it, and `carrier_facets` indexes the carrier's
    facets containing it.
    """

    points: frozenset[Vector]
    dimension: int
    cells: tuple[tuple[int, tuple[int, ...]], ...] = field(compare=False, repr=False)
    carrier_facets: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def base_point(self) -> Vector:
        """Vertex barycenter; always in the relative interior."""
        return barycenter(sorted(self.points))


# Signs of facet normals against a direction: per cell per facet, then per
# carrier facet.
SignTable = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


class SchlegelComplex:
    """Subdivision of the facet `carrier` induced by projecting the other
    facets of a polytope from a viewpoint just beyond the carrier.

    Carrier and cells are full-dimensional polytopes in a shared working
    frame of the carrier's hyperplane.  The complex is face-to-face, so each
    face records the cells and facets it lies in (see ComplexFace);
    `facet_signs` tabulates the sign of every facet normal against a line
    direction and keeps the last direction's table.
    """

    def __init__(
        self,
        facet_index: int,
        carrier: Polytope,
        cells: tuple[Polytope, ...],
    ):
        self.facet_index = facet_index
        self.carrier = carrier
        self.cells = cells
        self._signs: Optional[tuple[Vector, SignTable]] = None

    @property
    def a(self) -> int:
        return len(self.cells)

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @cached_property
    def faces_by_dimension(self) -> dict[int, tuple[ComplexFace, ...]]:
        """Distinct proper faces of the complex (dims 0..k-1), deduplicated
        by exact point set across all cells, with their incidences.

        Each cell and the carrier answer which of their facets hold a face
        (`Polytope.facets_of`).  A complex face lies in a carrier facet only
        when it is a carrier face: a complex vertex that is no carrier
        vertex is the image of a vertex off the carrier's facet of the
        polytope, so it lies in the carrier's interior."""
        seen: dict[frozenset[Vector], tuple[int, list]] = {}
        for i, cell in enumerate(self.cells):
            lat = face_lattice(cell)
            for c in range(cell.dim):
                for face in lat.faces(c):
                    pts = frozenset(cell.face_points(face))
                    seen.setdefault(pts, (c, []))[1].append((i, cell.facets_of(face)))
        carrier = self.carrier
        carrier_facets = {
            frozenset(carrier.face_points(face)): carrier.facets_of(face)
            for face in face_lattice(carrier).all_faces()
        }
        by_dim: dict[int, list[ComplexFace]] = {}
        for pts in sorted(seen, key=sorted):
            c, cells = seen[pts]
            on = carrier_facets.get(pts, ())
            by_dim.setdefault(c, []).append(ComplexFace(pts, c, tuple(cells), on))
        return {c: tuple(by_dim[c]) for c in sorted(by_dim)}

    def faces(self, c: int) -> tuple[ComplexFace, ...]:
        return self.faces_by_dimension.get(c, ())

    def facet_signs(self, direction: Vector) -> SignTable:
        """sign(n·direction) as -1, 0 or 1 for the outer normal n of every
        facet of every cell, and of every carrier facet.  Only the last
        direction's table is kept: the sampler tabulates its accepted line,
        and every flag of that line then reads the line's table."""
        if self._signs is None or self._signs[0] != direction:
            cells = tuple(_normal_signs(cell, direction) for cell in self.cells)
            self._signs = (direction, (cells, _normal_signs(self.carrier, direction)))
        return self._signs[1]


def _normal_signs(p: Polytope, direction: Vector) -> tuple[int, ...]:
    products = (dot(f.hyperplane.normal, direction) for f in p.facets)
    return tuple((s > 0) - (s < 0) for s in products)


def _central_image(apex: Vector, plane: Hyperplane, x: Vector) -> Vector:
    """Where the line from apex through x meets the plane."""
    a = plane.side(apex)
    return vadd(apex, vscale(vsub(x, apex), a / (a - plane.side(x))))


def schlegel(p: Polytope, facet: Union[int, Face]) -> SchlegelComplex:
    """Schlegel complex of p at the given facet.

    Every vertex of p is centrally projected once, from a beyond point onto
    the facet's hyperplane, and charted in the facet's frame; each facet's
    images span its piece.  The carrier is the facet's own piece, as a
    vertex on its plane is its own image; the other pieces are the cells,
    and they tile the carrier.
    """
    if p.dim < 3:
        raise ValueError("Schlegel requires d >= 3")
    t_index = _facet_index(p, facet)
    plane = p.facets[t_index].hyperplane
    v = beyond_point(p, t_index)
    frame = affine_hull(p.facet_vertices(t_index))
    images = [frame.to_working(_central_image(v, plane, x)) for x in p.vertices]
    pieces = [build_polytope([images[i] for i in sorted(f.vertex_indices)]) for f in p.facets]
    carrier = pieces.pop(t_index)
    return SchlegelComplex(facet_index=t_index, carrier=carrier, cells=tuple(pieces))


@dataclass
class Shadow:
    """Projection image of a polytope, one dimension down.

    `vertex_images` holds the image of every source vertex in the shadow's
    embedding coordinates; `face_image` maps each source face (by vertex
    index set) to whether its image is a face of the shadow.
    """

    polytope: Polytope
    vertex_images: tuple[Vector, ...]
    face_image: dict[frozenset[int], bool]

    def is_face_image(self, face: Face) -> bool:
        return self.face_image[face.vertex_indices]

    def face_source_labels(self) -> dict[int, frozenset[frozenset[int]]]:
        """Shadow faces per dimension, each named by the set of source
        vertices landing on its vertex set (for frame-free comparison)."""
        lat = face_lattice(self.polytope)
        out: dict[int, set[frozenset[int]]] = {}
        for c in range(lat.dim + 1):
            for g in lat.faces(c):
                pts = {self.polytope.embedded_vertices[i] for i in g.vertex_indices}
                label = frozenset(
                    v for v, img in enumerate(self.vertex_images) if img in pts
                )
                out.setdefault(c, set()).add(label)
        return {c: frozenset(labels) for c, labels in out.items()}


def _make_shadow(src: Polytope, images: Sequence[Vector]) -> Shadow:
    distinct = set(images)
    if len(distinct) == 1:
        shadow_poly = point_polytope(images[0])
    else:
        shadow_poly = build_polytope(images)
    if shadow_poly.dim != src.dim - 1:
        raise GeneralPositionError(
            f"shadow has dimension {shadow_poly.dim}, expected {src.dim - 1}"
        )
    shadow_lat = face_lattice(shadow_poly)
    by_dim: dict[int, set[frozenset[Vector]]] = {}
    for c in range(shadow_poly.dim + 1):
        by_dim[c] = {
            frozenset(shadow_poly.embedded_vertices[i] for i in g.vertex_indices)
            for g in shadow_lat.faces(c)
        }
    face_image = {}
    for face in face_lattice(src).all_faces():
        img = frozenset(images[i] for i in face.vertex_indices)
        face_image[face.vertex_indices] = img in by_dim.get(face.dimension, ())
    return Shadow(
        polytope=shadow_poly,
        vertex_images=tuple(images),
        face_image=face_image,
    )


def project_along(src: Polytope, direction: Vector) -> Shadow:
    """Orthogonal projection of src along a direction of its working frame.

    The screen is the direction's orthogonal complement, realized by the
    rational linear map x -> (w_1·x, ..., w_{k-1}·x) whose kernel is the
    direction; the image of a face is a face of the shadow iff its
    projected vertex set equals the vertex set of a shadow face of the
    same dimension.
    """
    if len(direction) != src.dim:
        raise DimensionMismatchError(
            "direction must live in the source's working frame"
        )
    if is_zero(direction):
        raise ValueError("direction must be nonzero")
    functionals = nullspace([direction], src.dim)
    images = [
        tuple(dot(w, x) for w in functionals) for x in src.vertices
    ]
    return _make_shadow(src, images)


def project_from_point(
    src: Polytope, apex: Vector, screen: Optional[Hyperplane] = None
) -> Shadow:
    """Central projection of src from an exterior apex in its working frame.

    The default screen separates the apex from src halfway along a violated
    facet inequality (normal·x = (b+b')/2); any screen with the apex
    strictly on one side and every vertex strictly on the other is
    admissible and yields the same face structure.
    """
    if len(apex) != src.dim:
        raise DimensionMismatchError("apex must live in the source's working frame")
    if src.contains(apex):
        raise ValueError("apex not exterior")
    if screen is None:
        violated = next(
            f.hyperplane for f in src.facets if f.hyperplane.side(apex) > 0
        )
        n, b = violated.normal, violated.offset
        screen = Hyperplane(n, (b + dot(n, apex)) / 2)
    apex_side = screen.side(apex)
    if apex_side == 0 or any(
        screen.side(v) == 0 or (screen.side(v) > 0) == (apex_side > 0)
        for v in src.vertices
    ):
        raise ValueError("screen must strictly separate the apex from the source")
    images = [_central_image(apex, screen, v) for v in src.vertices]
    return _make_shadow(src, images)
