"""Polytopes from vertex sets: exact hull, face lattice, oracle, generators.

A Polytope stores its vertices in a full-dimensional "working" frame of its
own intrinsic dimension; inputs of lower affine dimension are restated in an
int affine frame (`frame`, through which `embedded_vertices` are read).
Every polytope is assembled from int points over one scale, and those ints
(`Polytope.lifted`) are its state: the rational vertices are built from them
only when read.  An input is lifted to ints once, in `build_polytope`, a
facet piece starts from its parent's ints and a shadow from its int images.
One affine basis of those gives the frame, which charts them on ints, and
the hull's initial simplex.  One integer elimination gives the simplex's
facet planes and those a facet taken as a polytope (`facet_polytope`) reads
off the parent's ridges; beneath-beyond insertion finds each horizon ridge
on the facet masks and combines its two facets' planes into the new one.
Each facet keeps that plane as primitive ints and the mask of input points
on it (bit i for point i); vertices, face dimensions and the facets holding
a face are read off those masks alone.  The projections and the folded
proof read the vertices' ints.  The face lattice closes the
vertex-facet incidence under intersection, set by falling bit count, from its
side with fewer masks: the facets' vertex masks, or, with fewer vertices than
facets, the vertices' facet masks, whose closure is the lattice upside down.
It keeps each dimension's closed sets and reads a face's vertices off its set
on first use, so counting faces builds none.  The independent oracle
decides face-ness of every vertex subset by exact linear feasibility, on a
prefix tree of subsets that extends each span by one row.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Optional, Sequence

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    OracleBoundError,
    SamplingBudgetError,
)
from .linalg import (
    AffineSubspace,
    Hyperplane,
    SpanBuilder,
    Vector,
    affine_basis,
    affine_frame,
    dot,
    lift_points,
    linear_feasible,
    rational_point,
    reduce_lifted,
)

ORACLE_BOUND = 12
GENERATOR_RETRIES = 64


@dataclass(frozen=True)
class Facet:
    """A supporting hyperplane (inward: normal·x <= offset) and its vertices."""

    hyperplane: Hyperplane
    vertex_indices: frozenset[int]


@dataclass(frozen=True)
class Face:
    """A face identified by its exact vertex-index set."""

    vertex_indices: frozenset[int]
    dimension: int


class FaceLattice:
    """All faces of a polytope by dimension.  Each dimension keeps its sets,
    and `read` gives one set's vertex indices: `count(c)` reads none, and
    `faces(c)` builds that dimension's faces on first use, sorted by vertex
    indices."""

    def __init__(self, sets_by_dimension: dict[int, Sequence], read: Callable[..., frozenset[int]]):
        self._sets, self._read, self._faces = sets_by_dimension, read, {}
        self.dim = max(sets_by_dimension)

    def count(self, c: int) -> int:
        return len(self._sets.get(c, ()))

    def faces(self, c: int) -> tuple[Face, ...]:
        if c not in self._faces:
            faces = (Face(self._read(s), c) for s in self._sets.get(c, ()))
            self._faces[c] = tuple(sorted(faces, key=lambda f: sorted(f.vertex_indices)))
        return self._faces[c]

    @property
    def faces_by_dimension(self) -> dict[int, tuple[Face, ...]]:
        return {c: self.faces(c) for c in sorted(self._sets)}

    def all_faces(self):
        for faces in self.faces_by_dimension.values():
            yield from faces

    @property
    def top(self) -> Face:
        (top,) = self.faces(self.dim)
        return top

    def vertex_set_families(self) -> dict[int, frozenset[frozenset[int]]]:
        return {c: frozenset(map(self._read, sets)) for c, sets in self._sets.items()}

    def same_faces(self, other: "FaceLattice") -> bool:
        return self.vertex_set_families() == other.vertex_set_families()


@dataclass(frozen=True)
class Polytope:
    """Immutable V-polytope, full-dimensional in its working frame.

    `lifted` is its state: V, the lcm of the vertex denominators, and each
    vertex in working coordinates (length = dim) times V as ints, as
    `lift_points` states them, so equal polytopes have equal `lifted`.
    `vertices` are those points as Fractions and `embedded_vertices` the
    same points in the original input frame, read through `frame` (equal to
    `vertices` when no reframing happened, frame None); both are built on
    first read.  `names` names each vertex: its index in the parent for a
    facet piece (`facet_polytope`), its own index otherwise.  Names take no
    part in equality, so a piece equals the hull of its points.
    """

    ambient_dim: int
    dim: int
    lifted: tuple[int, tuple[tuple[int, ...], ...]]
    facets: tuple[Facet, ...]
    frame: Optional[AffineSubspace] = None
    names: tuple[int, ...] = field(compare=False, repr=False, kw_only=True)

    @cached_property
    def lattice(self) -> FaceLattice:
        return _lattice(self)

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        scale, points = self.lifted
        return tuple(rational_point((*q, scale)) for q in points)

    @cached_property
    def embedded_vertices(self) -> tuple[Vector, ...]:
        if self.frame is None:
            return self.vertices
        scale, points = self.frame.embed(*self.lifted)
        return tuple(rational_point((*q, scale)) for q in points)

    @cached_property
    def facet_masks(self) -> list[int]:
        """Per vertex, the facets holding it as a bitmask, built on first use."""
        on = [0] * len(self.lifted[1])
        for j, f in enumerate(self.facets):
            for i in f.vertex_indices:
                on[i] |= 1 << j
        return on

    def facets_of(self, face: Face) -> tuple[int, ...]:
        """Indices of the facets holding the face, ascending: the set bits of
        the AND of its vertices' facet masks, every facet for the empty face."""
        held = (1 << len(self.facets)) - 1
        for i in face.vertex_indices:
            held &= self.facet_masks[i]
        return tuple(reversed(_bits(held)))

    def contains(self, x: Vector) -> bool:
        if self.dim == 0:
            return x == self.vertices[0]
        return all(f.hyperplane.side(x) <= 0 for f in self.facets)

    def in_tangent_cone(self, x: Vector, u: Vector) -> bool:
        """Whether x + epsilon·u stays inside for all small epsilon > 0.

        Exact test on the facet inequalities active at x; x must be in P.
        """
        return all(
            dot(f.hyperplane.normal, u) <= 0 for f in self.facets if f.hyperplane.side(x) == 0
        )

    def in_relative_interior_of_facet(self, x: Vector, i: int) -> bool:
        if self.facets[i].hyperplane.side(x) != 0:
            return False
        return all(
            f.hyperplane.side(x) < 0 for j, f in enumerate(self.facets) if j != i
        )


def _bits(x: int) -> list[int]:
    """The indices of the set bits of x, highest first, one step per set bit."""
    out = []
    while x:
        i = x.bit_length() - 1
        out.append(i)
        x ^= 1 << i
    return out


def _sides(planes, q: Sequence[int]) -> list[int]:
    """n·q - b for each integer plane (n, b, inc): 0 on it, > 0 beyond."""
    return [sum(map(mul, n, q)) - b for n, b, _ in planes]


def _plane(lifted, wall, inside: Sequence[int], m: int):
    """The plane through the lifted points indexed by `wall`, read off the
    integer nullspace of their differences, as a primitive int pair (n, b)
    with n·q < b at q = inside/m; None unless that nullspace is one vector
    and inside/m is off the plane."""
    base, *rest = (lifted[i] for i in wall)
    span = SpanBuilder(len(base))
    for q in rest:
        span.add([a - b for a, b in zip(q, base)])
    normals = span.integer_nullspace()
    if len(normals) != 1:
        return None
    (n,) = normals
    b = sum(map(mul, n, base))
    gap = sum(map(mul, n, inside)) - m * b
    g = math.gcd(*n) * (-1 if gap > 0 else 1)
    return ([x // g for x in n], b // g) if gap else None


def _hull_facets(lifted: Sequence[Sequence[int]], simplex: Sequence[int]) -> list:
    """Beneath-beyond hull of full-dimensional lifted points from the
    indices of an initial simplex; exact and degeneracy-safe.  Each facet is
    [n, b, inc]: its primitive plane n·q <= b and in the mask `inc` bit i for
    each inserted point i on that plane; nothing else records incidence.
    Only the initial simplex's k + 1 planes come from _plane.  A new point p
    replaces each horizon ridge R = v & b, for v visible (s_v = n_v·p - b_v
    > 0) and b kept with p strictly beneath it (s_b < 0), by the facet
    through R and p.  The points on it are those on R and p, and its plane
    is the pencil (s_v·n_b - s_b·n_v, s_v·b_b - s_b·b_v) over the gcd of its
    normal: it holds v ∩ b and p, and the old hull stays beneath it.  A
    face v ∩ b is a ridge exactly when no third facet holds it, since a
    smaller face lies in three facets or more; each such facet also shares
    k - 1 points with v, so only those `near` v are searched.
    """
    k, full = len(simplex) - 1, sum(1 << i for i in simplex)
    inside = [sum(c) for c in zip(*(lifted[i] for i in simplex))]
    facets = [[*_plane(lifted, _bits(full ^ 1 << o), inside, k + 1), full ^ 1 << o] for o in simplex]
    for j, q in enumerate(lifted):
        if full >> j & 1:
            continue
        sides = _sides(facets, q)
        for f, s in zip(facets, sides):
            if s == 0:
                f[2] |= 1 << j
        new = []
        for (nv, bv, v), sv in zip(facets, sides):
            if sv <= 0:
                continue
            near = [(f, s) for f, s in zip(facets, sides) if (v & f[2]).bit_count() >= k - 1]
            for (nb, bb, b), sb in near:
                r = v & b
                if sb < 0 and sum(r & f[2] == r for f, _ in near) == 2:
                    n = [sv * x - sb * y for x, y in zip(nb, nv)]
                    g = math.gcd(*n)
                    new.append([[x // g for x in n], (sv * bb - sb * bv) // g, r | 1 << j])
        facets = [f for f, s in zip(facets, sides) if s <= 0] + new
    return facets


def _assemble(scale: int, lifted: Sequence[Sequence[int]], find_facets, labels=None) -> Polytope:
    """The canonical Polytope of the distinct points q/scale, q in `lifted`,
    framed in their affine hull: one affine_basis of the ints gives k, the
    frame (`affine_frame`) and the initial simplex that `find_facets(work,
    simplex)` may start from; below full dimension `work` is the ints
    charted on ints (`AffineSubspace.chart`), q' = V'·x.  It returns each
    facet as (n, b, inc), n primitive, inc a point mask; inside is n·q' <=
    b, or in primitive ints (V'·n/g)·x <= b/g for g = gcd(V', b), whatever
    V' is.  `reduce_lifted` of the vertices' ints is stored as
    `Polytope.lifted`, and no Fraction is built.  Each vertex is named by
    its point's entry in `labels`, or by its own index."""
    if len(lifted) < 2:
        raise DegenerateInputError("degenerate input")
    ambient = len(lifted[0])
    simplex = affine_basis(lifted)
    k = len(simplex) - 1
    frame = affine_frame(scale, lifted, simplex) if k < ambient else None
    work_scale, work = frame.chart(scale, lifted) if frame else (scale, lifted)
    found = find_facets(work, simplex)
    # The facets through point i meet in the least face holding i, so i is a
    # vertex exactly when the AND of their masks is bit i alone.
    bits = [_bits(inc) for _, _, inc in found]
    meet = [-1] * len(work)
    for (_, _, inc), on in zip(found, bits):
        for i in on:
            meet[i] &= inc
    extreme = sorted((i for i, m in enumerate(meet) if m == 1 << i), key=lambda i: work[i])
    renum = {old: new for new, old in enumerate(extreme)}
    facet_list = []
    for (n, b, _), on in zip(found, bits):
        held = [i for i in on if i in renum]
        if len(affine_basis([work[i] for i in held])) != k:
            raise RuntimeError("facet vertex set does not span dimension k-1")
        g = math.gcd(work_scale, b)
        h = Hyperplane(tuple(work_scale // g * x for x in n), b // g)
        facet_list.append(Facet(h, frozenset(renum[i] for i in held)))
    facet_list.sort(key=lambda f: (f.hyperplane.normal, f.hyperplane.offset))
    return Polytope(
        ambient_dim=ambient,
        dim=k,
        lifted=reduce_lifted(work_scale, [work[i] for i in extreme]),
        facets=tuple(facet_list),
        frame=frame,
        names=tuple(range(len(extreme)) if labels is None else (labels[i] for i in extreme)),
    )


def build_polytope(points: Sequence[Sequence]) -> Polytope:
    """Convex hull of the given rational points as a canonical Polytope.

    Raises DegenerateInputError for fewer than 2 distinct points.  Inputs
    whose affine hull has lower dimension than the ambient space are restated
    in an intrinsic rational frame (recorded in `frame`).  The points' int
    or Fraction coordinates are lifted to ints here, once, and repeats
    dropped on those ints.
    """
    if any(len(p) != len(points[0]) for p in points):
        raise DimensionMismatchError("points of mixed dimension")
    scale, lifted = lift_points(points)
    return _assemble(scale, list(dict.fromkeys(lifted)), _hull_facets)


def point_polytope(point: Sequence) -> Polytope:
    """Internal 0-dimensional polytope (a single point of int or Fraction
    coordinates, lifted as its frame's base point); shadows need these."""
    return Polytope(
        ambient_dim=len(point),
        dim=0,
        lifted=(1, ((),)),
        facets=(),
        frame=AffineSubspace(lift_points([point])),
        names=(0,),
    )


def _closure(masks: Sequence[int], full: int, top: int) -> dict[int, int]:
    """Close `masks` under intersection from `full`: every nonempty set found
    maps to its dimension in a face lattice whose maximal face is `full`, of
    dimension `top`, and whose coatoms are the masks.  A face x below the top
    is a coatom of some face G, and x = G & M for a mask M holding x but not
    G; so dim x is one less than the least dim over those G.  Each such G has
    more bits than x, so the sets are taken by falling bit count, and x's
    dimension is final before x is taken and ANDed with each mask."""
    dims = {full: top}
    levels: list[list[int]] = [[] for _ in range(full.bit_count())] + [[full]]
    for level in reversed(levels):
        for m in level:
            below = dims[m] - 1
            for mask in masks:
                x = m & mask
                if x and x != m:
                    if x not in dims:
                        dims[x] = below
                        levels[x.bit_count()].append(x)
                    elif below < dims[x]:
                        dims[x] = below
    return dims


def _lattice(p: Polytope) -> FaceLattice:
    """Close the vertex-facet incidence from its side with fewer sets.  With
    n vertices and m facets, n >= m closes the facets' vertex masks.  For
    n < m the lattice of P is its polar's upside down: close the vertices'
    facet masks from the set of all facets, the empty face of P, and read a
    facet set S of dimension c there as the face of P of dimension dim - 1
    - c whose vertices are those on every facet of S; P itself is the empty
    facet set.  Each face costs min(n, m) ANDs to find.  Its vertices are
    read on first use: on the facet side the set bits of its mask, on the
    vertex side n more ANDs."""
    n, m, d = len(p.lifted[1]), len(p.facets), p.dim
    if n >= m:
        masks = [sum(1 << i for i in f.vertex_indices) for f in p.facets]
        sets = _closure(masks, (1 << n) - 1, d).items()

        def read(x: int) -> frozenset[int]:
            return frozenset(_bits(x))
    else:
        on = p.facet_masks
        sets = [(0, d)] + [(s, d - 1 - c) for s, c in _closure(on, (1 << m) - 1, d).items() if c < d]

        def read(s: int) -> frozenset[int]:
            return frozenset(i for i, o in enumerate(on) if o & s == s)
    by_dim: dict[int, list[int]] = {}
    for x, c in sets:
        by_dim.setdefault(c, []).append(x)
    return FaceLattice(by_dim, read)


def face_lattice(p: Polytope) -> FaceLattice:
    """All faces of p (dimensions 0..dim) by closing the vertex-facet
    incidence under intersection from its smaller side; dimensions are
    read off that closure."""
    return p.lattice


def _is_face_lp(rows: Sequence[Sequence[int]], span: SpanBuilder, outside: list[int]) -> bool:
    """Exact test: does a hyperplane contain the subset whose rows `span`
    holds, with all `outside` vertices strictly on one side?  Decided by
    exact linear feasibility.

    rows[i] is vertex i's row (v, -1) lifted to integers: a positive multiple,
    so a·v - b keeps its sign and the test does not change.
    """
    # Solutions (a, b) of a·s = b for s in the subset form the span's nullspace.
    # Its integer basis over each vector's gcd is the rational basis lifted.
    basis = [[x // math.gcd(*nb) for x in nb] for nb in span.integer_nullspace()]
    # Strict separation a·v - b < 0 scales to a·v - b <= -1; so does any
    # positive scaling of a constraint row or of a nullspace coordinate.
    cons = [[sum(map(mul, rows[v], nb)) for nb in basis] for v in outside]
    return linear_feasible(cons, [-1] * len(cons)) is not None


def brute_force_face_lattice(p: Polytope, bound: int = ORACLE_BOUND) -> FaceLattice:
    """Independent oracle: decide face-ness of every vertex subset by LP.

    Subsets are walked as a lexicographic prefix tree, S + {v} below S for
    v > max(S), so each span is its parent's plus one row.  S is no face if
    it is full-dimensional or an outside vertex lies in aff(S), else the LP
    decides.  The subtree below S goes whole if (a) S is full-dimensional or
    (b) a vertex v < max(S) outside S, which no subset below takes in, lies
    in aff(S).  Exponential in n; refuses instances above `bound`.
    """
    scale, points = p.lifted
    n = len(points)
    if n > bound:
        raise OracleBoundError("oracle bound exceeded")
    by_dim: dict[int, list[tuple[int, ...]]] = {p.dim: [tuple(range(n))]}
    # Vertex i as the integer row (v, -1) times the scale V: the rows of S
    # span a space of dimension dim aff(S) + 1 that holds the row of every
    # point of aff(S) and of no other.
    rows = [(*q, -scale) for q in points]
    stack = [((), SpanBuilder(p.dim + 1))]
    while stack:
        prefix, span = stack.pop()
        for last in range(prefix[-1] + 1 if prefix else 0, n):
            subset, sub = (*prefix, last), span.copy()
            sub.add(rows[last])
            dim = sub.rank - 1
            if dim == p.dim:
                continue  # (a)
            outside = [i for i in range(n) if i not in subset]
            # An outside vertex in aff(S) would lie on any separating plane.
            hit = next((v for v in outside if sub.contains(rows[v])), n)
            if hit < last:
                continue  # (b)
            if hit == n and _is_face_lp(rows, sub, outside):
                by_dim.setdefault(dim, []).append(subset)
            stack.append((subset, sub))
    return FaceLattice(by_dim, frozenset)


def facet_polytope(p: Polytope, i: int, images: Optional[tuple] = None) -> Polytope:
    """Facet i of p as a polytope of its own (working frame of dimension d-1).

    Its points are the images of the facet's vertices, as (scale, ints) like
    `Polytope.lifted`: p's own by default, so `embedded_vertices` live in
    p's working frame, or any images of p's vertices that keep the facet's
    face lattice, such as a Schlegel projection's.  Each vertex is named by
    its index in p.  No hull runs: its facets are the ridges of p in F_i
    (Kaibel & Pfetsch 2002), each the _plane through a ridge's images,
    oriented by the barycenter of F_i's.  ValueError if a ridge has no such
    plane or a given image lies beyond one.
    """
    own = images is None
    scale, points = p.lifted if own else images
    held = p.facets[i].vertex_indices
    local = {v: j for j, v in enumerate(sorted(held))}
    ridges = [
        sum(1 << local[v] for v in r.vertex_indices)
        for r in face_lattice(p).faces(p.dim - 2)
        if r.vertex_indices <= held
    ]

    def ridge_facets(lifted: Sequence[Sequence[int]], _simplex) -> list:
        inside = [sum(c) for c in zip(*lifted)]
        planes = [_plane(lifted, _bits(r), inside, len(lifted)) for r in ridges]
        if None in planes:
            raise ValueError(f"images of facet {i} flatten a ridge or put their barycenter on its plane")
        facets = [(*h, r) for h, r in zip(planes, ridges)]
        if own:  # p's own vertices lie beneath every ridge plane of their facet
            return facets
        for v, q in zip(local, lifted):
            if any(s > 0 for s in _sides(facets, q)):
                raise ValueError(f"images of facet {i} put vertex {v} beyond a ridge's plane")
        return facets

    return _assemble(scale, [points[v] for v in local], ridge_facets, list(local))


def _parse_family(kind: str) -> tuple[str, list[int]]:
    name, _, argstr = kind.partition(":")
    name = name.strip().lower()
    if name == "hypercube":
        name = "cube"
    if name not in {"simplex", "cube", "crosspolytope", "random"}:
        raise ValueError(f"unknown family {name!r}")
    if not argstr:
        raise ValueError(f"family {name!r} needs arguments, e.g. {name}:3")
    try:
        args = [int(a) for a in argstr.split(",")]
    except ValueError:
        raise ValueError(f"non-integer family arguments in {kind!r}") from None
    expected = 3 if name == "random" else 1
    if len(args) != expected:
        raise ValueError(f"family {name!r} takes {expected} argument(s)")
    return name, args


def generate(kind: str, seed: int = 0) -> Polytope:
    """Standard or random test families.

    kind: "simplex:d" | "cube:d" | "crosspolytope:d" | "random:d,n,bound".
    The random family draws n integer points uniformly from [-bound, bound]^d
    with a seeded generator and re-samples (bounded retries) until the hull
    is full-dimensional.  The seed is ignored by the deterministic families.
    """
    name, args = _parse_family(kind)
    d = args[0]
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if name == "simplex":
        return build_polytope([[0] * d] + [[int(j == i) for j in range(d)] for i in range(d)])
    if name == "cube":
        return build_polytope(list(itertools.product((0, 1), repeat=d)))
    if name == "crosspolytope":
        pts = [[s * (j == i) for j in range(d)] for i in range(d) for s in (1, -1)]
        return build_polytope(pts)
    _, n, bound = args
    if n < d + 1:
        raise ValueError(f"random family needs n >= d+1, got n={n}, d={d}")
    if bound < 1:
        raise ValueError("coordinate bound must be >= 1")
    rng = random.Random(seed)
    for _ in range(GENERATOR_RETRIES):
        pts = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)]
        try:
            p = build_polytope(pts)
        except DegenerateInputError:
            continue
        if p.dim == d:
            return p
    raise SamplingBudgetError(
        f"no full-dimensional sample after {GENERATOR_RETRIES} retries"
    )
