"""Hull construction, face lattices, the brute-force oracle, and generators."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerlab import polytope
from eulerlab.acceptance import FAMILY_SPECS, RANDOM_SPECS
from eulerlab.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    OracleBoundError,
)
from eulerlab.euler import f_vector
from eulerlab.linalg import (
    Hyperplane,
    SpanBuilder,
    affine_basis,
    affine_dim,
    affine_hull,
    barycenter,
    dot,
    hyperplane_through,
    lift,
    lift_points,
    rank,
    vsub,
)
from eulerlab.polytope import (
    ORACLE_BOUND,
    Face,
    Facet,
    FaceLattice,
    Polytope,
    _is_face_lp,
    _plane,
    brute_force_face_lattice,
    build_polytope,
    face_lattice,
    facet_polytope,
    generate,
    point_polytope,
)
from eulerlab.projection import project_along
from spans import active_facets, face_points, rational_frame, to_working, vadd, vec, vscale
from volumes import children, volume

F = Fraction


def to_ambient(frame, w):
    """The ambient point with working coordinates w in the frame."""
    x, basis = rational_frame(frame)
    for c, b in zip(w, basis, strict=True):
        x = vadd(x, vscale(b, c))
    return x


class RefFacet(NamedTuple):
    h: Hyperplane
    inc: set[int]


def reference_hull_facets(points, k):
    """Beneath-beyond on Fractions with incidence re-derived: the initial
    simplex is the points' affine_basis, each new facet's plane comes from
    hyperplane_through and its incidence from a rescan of every processed
    point, and a new plane equal to a kept facet's plane is dropped by
    comparing the planes."""
    simplex = affine_basis(lift_points(points)[1])
    interior = barycenter([points[i] for i in simplex])
    facets = []
    for omit in simplex:
        wall = [points[i] for i in simplex if i != omit]
        h = hyperplane_through(wall, interior)
        facets.append(RefFacet(h, {i for i in simplex if h.side(points[i]) == 0}))
    processed = set(simplex)
    for j, p in enumerate(points):
        if j in processed:
            continue
        sides = [f.h.side(p) for f in facets]
        for f, s in zip(facets, sides):
            if s == 0:
                f.inc.add(j)
        visible = [f for f, s in zip(facets, sides) if s > 0]
        kept = [f for f, s in zip(facets, sides) if s <= 0]
        kept_planes = {(f.h.normal, f.h.offset) for f in kept}
        candidates = {}
        for v in visible:
            for b in kept:
                shared = v.inc & b.inc
                if affine_dim([points[i] for i in shared]) != k - 2:
                    continue
                h = hyperplane_through([points[i] for i in sorted(shared)] + [p], interior)
                candidates[(h.normal, h.offset)] = h
        for key, h in candidates.items():
            if key not in kept_planes:
                inc = {i for i in processed if h.side(points[i]) == 0}
                kept.append(RefFacet(h, inc | {j}))
        facets = kept
        processed.add(j)
    return facets


def reference_polytope(points):
    """build_polytope on the reference hull, where a point is a vertex when
    the normals of the facets through it have full rank."""
    distinct = list(dict.fromkeys(vec(*q) for q in points))
    hull = affine_hull(distinct)
    k, ambient = hull.dim, len(distinct[0])
    frame = None if k == ambient else hull
    work = distinct if frame is None else [to_working(frame, q) for q in distinct]
    facets = reference_hull_facets(work, k)
    active = {}
    for f in facets:
        for i in f.inc:
            active.setdefault(i, []).append(f.h.normal)
    extreme = [i for i in range(len(work)) if rank(active.get(i, [])) == k]
    extreme.sort(key=lambda i: work[i])
    renum = {old: new for new, old in enumerate(extreme)}
    facet_list = [Facet(f.h, frozenset(renum[i] for i in f.inc if i in renum)) for f in facets]
    facet_list.sort(key=lambda f: (f.hyperplane.normal, f.hyperplane.offset))
    vertices = tuple(work[i] for i in extreme)
    p = Polytope(
        ambient_dim=ambient,
        dim=k,
        lifted=lift_points(vertices),
        facets=tuple(facet_list),
        frame=frame,
        names=tuple(range(len(extreme))),
    )
    # Read on first use: the vertices from `lifted`, the embedded ones through the frame.
    assert p.vertices == vertices
    assert p.embedded_vertices == tuple(distinct[i] for i in extreme)
    return p


def reference_faces_by_dimension(p):
    """Facet vertex sets closed under intersection, each face's dimension
    the affine dimension of its vertices."""
    faces = {f.vertex_indices for f in p.facets}
    stack = list(faces)
    while stack:
        m = stack.pop()
        for f in p.facets:
            x = m & f.vertex_indices
            if x and x not in faces:
                faces.add(x)
                stack.append(x)
    faces.add(frozenset(range(len(p.vertices))))
    by_dim = {}
    for idx in faces:
        d = affine_dim([p.vertices[i] for i in sorted(idx)])
        by_dim.setdefault(d, []).append(Face(idx, d))
    return {d: tuple(sorted(fs, key=lambda f: sorted(f.vertex_indices))) for d, fs in by_dim.items()}


def _lattice_from_facets(p: Polytope) -> FaceLattice:
    """Close the facet vertex sets under intersection, recording above[x]:
    each face m with x = m & F != m for a facet F.  A face x below the top
    is a facet of some face G, and x = G & F for a facet F holding x but not
    G; so dim x is one less than the least dim over above[x]."""
    n = len(p.vertices)
    facet_masks = [sum(1 << i for i in f.vertex_indices) for f in p.facets]
    full = (1 << n) - 1
    above: dict[int, list[int]] = {full: []}
    stack = [full]
    while stack:
        m = stack.pop()
        for fm in facet_masks:
            x = m & fm
            if x and x != m:
                if x not in above:
                    stack.append(x)
                above.setdefault(x, []).append(m)
    dims: dict[int, int] = {}
    by_dim: dict[int, list[int]] = {}
    for x in sorted(above, key=int.bit_count, reverse=True):
        d = dims[x] = min((dims[m] - 1 for m in above[x]), default=p.dim)
        by_dim.setdefault(d, []).append(x)
    return FaceLattice(by_dim, lambda x: frozenset(i for i in range(n) if x >> i & 1))


def reference_closure(masks, full, top):
    """Close `masks` under intersection from `full`, recording above[x]:
    each set m with x = m & M != m for a mask M.  Every nonempty set found
    maps to its dimension in a face lattice whose maximal face is `full`,
    of dimension `top`, and whose coatoms are the masks.  A face x below the
    top is a coatom of some face G, and x = G & M for a mask M holding x but
    not G; so dim x is one less than the least dim over above[x]."""
    above: dict[int, list[int]] = {full: []}
    stack = [full]
    while stack:
        m = stack.pop()
        for mask in masks:
            x = m & mask
            if x and x != m:
                if x not in above:
                    stack.append(x)
                above.setdefault(x, []).append(m)
    dims: dict[int, int] = {}
    for x in sorted(above, key=int.bit_count, reverse=True):
        dims[x] = min((dims[m] - 1 for m in above[x]), default=top)
    return dims


def reference_brute_force_face_lattice(p: Polytope, bound: int = ORACLE_BOUND) -> FaceLattice:
    """Independent oracle: decide face-ness of every vertex subset by LP.

    Exponential in the vertex count; refuses instances above `bound`.
    """
    n = len(p.vertices)
    if n > bound:
        raise OracleBoundError("oracle bound exceeded")
    by_dim: dict[int, list[tuple[int, ...]]] = {p.dim: [tuple(range(n))]}
    # Vertex i as the integer row (v, -1) times a positive scale: the rows of
    # S span a space of dimension dim aff(S) + 1 that holds the row of every
    # point of aff(S) and of no other.
    rows = [lift((*v, -1)) for v in p.vertices]
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            span = SpanBuilder(p.dim + 1)
            for i in subset:
                span.add(rows[i])
            dim = span.rank - 1
            if dim == p.dim:
                continue
            outside = [i for i in range(n) if i not in subset]
            # A vertex of P in the affine hull of S but outside S kills S
            # outright (it would have to lie on the separating hyperplane).
            if any(span.contains(rows[v]) for v in outside):
                continue
            if _is_face_lp(rows, span, outside):
                by_dim.setdefault(dim, []).append(subset)
    return FaceLattice(by_dim, frozenset)


def paraboloid(d, n, b, seed):
    """n distinct seeded integer points x of [-b, b]^(d-1) lifted to
    (x, |x|^2): every one is a vertex of their hull."""
    rng, xs = random.Random(seed), set()
    while len(xs) < n:
        xs.add(tuple(rng.randint(-b, b) for _ in range(d - 1)))
    return build_polytope([vec(*x, sum(c * c for c in x)) for x in sorted(xs)])


@st.composite
def hull_inputs(draw):
    """Small rational point sets in d = 1..6 plus midpoints of drawn pairs
    (repeats when a pair is one point twice, else interior or on a facet)
    and the barycenter, in shuffled order, sometimes lifted onto a
    hyperplane one dimension up."""
    d = draw(st.integers(1, 6))
    coord = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2]))
    base = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=d + 5))
    pairs = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base)), max_size=4))
    pts = base + [tuple((a + b) / 2 for a, b in zip(x, y)) for x, y in pairs]
    if draw(st.booleans()):
        pts.append(barycenter(base))
    if d < 6 and draw(st.booleans()):
        a = draw(st.tuples(*[st.integers(-2, 2)] * d))
        pts = [(*x, dot(vec(*a), x) + 1) for x in pts]
    return draw(st.permutations(pts))


@st.composite
def large_hull_inputs(draw):
    """Point sets in d = 2..6 with numerators up to 10^30, each point over
    one denominator from {1, 2, 3, 7}, so V often takes a factor from one
    point alone.  Some points share the top last coordinate and so lie on
    one facet, and some are drawn twice; the order is shuffled."""
    d = draw(st.integers(2, 6))
    nums = st.tuples(*[st.integers(-(10**30), 10**30)] * d)
    dens = st.sampled_from([1, 2, 3, 7])
    pts = draw(st.lists(st.tuples(nums, dens, st.booleans()), min_size=2, max_size=d + 5))
    pts = [(*(F(n, q) for n in ns[:-1]), F(10**31) if top else F(ns[-1], q)) for ns, q, top in pts]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


@st.composite
def plane_walls(draw):
    """A wall of at most d lifted points in d = 2..5, with coordinates small
    enough that it often spans less than a hyperplane, one to three lifted
    points whose barycenter orients the plane, and a scale V."""
    d = draw(st.integers(2, 5))
    point = st.tuples(*[st.integers(-3, 3)] * d)
    wall = draw(st.lists(point, min_size=1, max_size=d))
    beneath = draw(st.lists(point, min_size=1, max_size=3))
    return d, wall, beneath, draw(st.sampled_from([1, 2, 3, 7]))


@st.composite
def full_dimensional_clouds(draw):
    """Distinct lifted points spanning d = 2..5, in shuffled order: box
    points, some on the top face x_d = 2 so that several share a plane,
    midpoints of drawn pairs (on an edge, a facet or inside) and the
    barycenter."""
    d = draw(st.integers(2, 5))
    coord = st.integers(-2, 2)
    base = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 6))
    top = draw(st.lists(st.tuples(*[coord] * (d - 1)), max_size=4))
    pts = [tuple(map(F, q)) for q in base] + [(*map(F, q), F(2)) for q in top]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=4))
    pts += [tuple((a + b) / 2 for a, b in zip(x, y)) for x, y in pairs]
    pts.append(barycenter(pts))
    lifted = list(dict.fromkeys(lift_points(draw(st.permutations(pts)))[1]))
    assume(len(affine_basis(lifted)) == d + 1)
    return lifted


def unit_square_points():
    return [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)]


class TestPlane:
    # _plane on points lifted by V is hyperplane_through on the points
    # themselves, in the primitive form (V·n/g, b/g), g = gcd(V, b), that
    # _assemble gives each facet.
    @given(plane_walls())
    @settings(max_examples=300, deadline=None)
    def test_matches_hyperplane_through(self, case):
        d, wall, beneath, scale = case
        inside = [sum(c) for c in zip(*beneath)]
        plane = _plane(wall, range(len(wall)), inside, len(beneath))
        points = [tuple(F(x, scale) for x in q) for q in wall]
        if affine_dim(points) < d - 1:
            assert plane is None
            return
        center = tuple(F(c, len(beneath) * scale) for c in inside)
        try:
            expected = hyperplane_through(points, center)
        except ValueError:  # the barycenter is on the plane
            assert plane is None
            return
        n, b = plane
        g = math.gcd(scale, b)
        assert Hyperplane(tuple(scale // g * x for x in n), b // g) == expected

    def test_square_edge(self):
        # The edge y = 0 of the unit square lifted by V = 2, oriented by the
        # sum of the four corners: -y <= 0.
        lifted = [(0, 0), (2, 0), (0, 2), (2, 2)]
        assert _plane(lifted, [1, 0], (4, 4), 4) == ([0, -1], 0)
        assert _plane(lifted, [0], (4, 4), 4) is None
        assert _plane(lifted, [0, 1], (4, 0), 4) is None


class TestHullIncidence:
    # The hull's incidence contract: bit j of a facet's mask is set exactly
    # when point j lies on its plane, and no point lies beyond any plane.
    @given(full_dimensional_clouds())
    @settings(max_examples=150, deadline=None)
    def test_masks_hold_exactly_the_points_on_each_plane(self, lifted):
        for n, b, inc in polytope._hull_facets(lifted, affine_basis(lifted)):
            sides = [sum(a * c for a, c in zip(n, q)) - b for q in lifted]
            assert all(s <= 0 for s in sides)
            assert inc == sum(1 << j for j, s in enumerate(sides) if s == 0)


class TestBuildPolytope:
    def test_square_with_redundant_center(self):
        p = build_polytope(unit_square_points() + [vec(F(1, 2), F(1, 2))])
        assert len(p.vertices) == 4
        assert len(p.facets) == 4
        assert p.dim == 2 and p.ambient_dim == 2

    def test_segment(self):
        p = build_polytope([vec(0), vec(1)])
        assert len(p.vertices) == 2
        assert len(p.facets) == 2
        assert p.dim == 1

    def test_4cube_has_8_facets(self):
        p = generate("cube:4")
        assert len(p.vertices) == 16
        assert len(p.facets) == 8

    def test_degenerate_single_point(self):
        with pytest.raises(DegenerateInputError, match="degenerate input"):
            build_polytope([vec(1, 2), vec(1, 2), vec(1, 2)])

    def test_degenerate_empty(self):
        with pytest.raises(DegenerateInputError):
            build_polytope([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_polytope([vec(0, 0), vec(1,)])

    def test_facet_inequalities_hold_for_all_vertices(self):
        for kind in ["cube:3", "simplex:4", "crosspolytope:3", "cube:4"]:
            p = generate(kind)
            for f in p.facets:
                for v in p.vertices:
                    assert f.hyperplane.side(v) <= 0
                for i in f.vertex_indices:
                    assert f.hyperplane.side(p.vertices[i]) == 0

    def test_idempotent(self):
        for kind in ["cube:3", "simplex:3", "crosspolytope:4", "random:3,8,5"]:
            p = generate(kind, seed=3)
            q = build_polytope(p.vertices)
            assert q.vertices == p.vertices
            assert q.facets == p.facets

    def test_all_input_points_inside(self):
        pts = [vec(0, 0, 0), vec(2, 0, 0), vec(0, 2, 0), vec(0, 0, 2), vec(1, 1, 1)]
        p = build_polytope(pts)
        for x in pts:
            assert p.contains(x)

    def test_reframed_planar_square_in_3d(self):
        pts = [vec(0, 0, 1), vec(1, 0, 1), vec(0, 1, 1), vec(1, 1, 1)]
        p = build_polytope(pts)
        assert p.dim == 2 and p.ambient_dim == 3
        assert len(p.vertices) == 4 and len(p.facets) == 4
        assert p.frame is not None
        back = {to_ambient(p.frame, v) for v in p.vertices}
        assert back == set(pts)
        assert set(p.embedded_vertices) == set(pts)

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
                lambda t: vec(*t)
            ),
            min_size=3,
            max_size=9,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hull_contains_inputs_and_vertices_are_inputs(self, pts):
        try:
            p = build_polytope(pts)
        except DegenerateInputError:
            return
        if p.dim < 2:
            return
        for x in pts:
            assert p.contains(x)
        assert set(p.vertices) <= set(pts)


    @staticmethod
    def assert_matches_reference(pts):
        if len(set(pts)) < 2:
            return
        p, ref = build_polytope(pts), reference_polytope(pts)
        assert p.vertices == ref.vertices
        assert p.embedded_vertices == ref.embedded_vertices
        assert p.facets == ref.facets
        assert face_lattice(p).faces_by_dimension == reference_faces_by_dimension(ref)

    @given(hull_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_rescanning_reference(self, pts):
        self.assert_matches_reference(pts)

    # The hull lifts every point by V, the lcm of all denominators: here V
    # mixes 2, 3 and 7 and the lifted coordinates run past 10^30.
    @given(large_hull_inputs())
    @settings(max_examples=60, deadline=None)
    def test_matches_rescanning_reference_with_large_mixed_coordinates(self, pts):
        self.assert_matches_reference(pts)


class TestFacetPlanes:
    # Every facet keeps its finder's plane as primitive ints, the plane that
    # hyperplane_through gives its vertices oriented by the barycenter.
    @staticmethod
    def assert_primitive_through_vertices(p):
        center = barycenter(p.vertices)
        for i, f in enumerate(p.facets):
            row = (*f.hyperplane.normal, f.hyperplane.offset)
            assert all(type(x) is int for x in row)
            assert math.gcd(*row) == 1
            assert f.hyperplane == hyperplane_through(face_points(p, f), center)

    @pytest.mark.parametrize("spec", [s for s in FAMILY_SPECS if int(s.split(":")[1]) <= 5])
    def test_families(self, spec):
        self.assert_primitive_through_vertices(generate(spec))

    def test_seeded_clouds(self):
        for spec, seed in RANDOM_SPECS:
            self.assert_primitive_through_vertices(generate(spec, seed))

    @given(hull_inputs())
    @settings(max_examples=60, deadline=None)
    def test_hulls_in_their_frames(self, pts):
        if len(set(pts)) >= 2:
            self.assert_primitive_through_vertices(build_polytope(pts))


class TestLifted:
    # A polytope lifts its vertices once, and folding reads a face's facet
    # sides off those ints: with X the sum of the face's lifted vertices,
    # n_j·X - V|F|·b_j is V times the sum of side_j over the face.
    @staticmethod
    def assert_face_sides_read_off_points(p):
        scale, points = p.lifted
        assert p.lifted == lift_points(p.vertices)
        assert hash(p.lifted) == hash(lift_points(p.vertices))
        assert all(type(x) is int for q in points for x in q)
        for face in face_lattice(p).all_faces():
            idx = sorted(face.vertex_indices)
            big_x = [sum(c) for c in zip(*(points[v] for v in idx))]
            for f in p.facets:
                h = f.hyperplane
                sides = sum(h.side(p.vertices[v]) for v in idx)
                assert dot(h.normal, big_x) - scale * len(idx) * h.offset == scale * sides

    @pytest.mark.parametrize("spec", [s for s in FAMILY_SPECS if int(s.split(":")[1]) <= 5])
    def test_families(self, spec):
        self.assert_face_sides_read_off_points(generate(spec))

    def test_seeded_clouds(self):
        for spec, seed in RANDOM_SPECS:
            self.assert_face_sides_read_off_points(generate(spec, seed))

    def test_shifted_hull(self):
        # x -> x/3 + 1/7 gives every vertex a denominator, so V > 1.
        p = build_polytope(
            [[c / 3 + F(1, 7) for c in v] for v in generate("random:4,12,10").vertices]
        )
        assert p.lifted[0] > 1
        self.assert_face_sides_read_off_points(p)


class TestFrames:
    # The hull's frame and a facet piece's are affine_hull of their points,
    # so a facet piece is charted as Schlegel charts its carrier.
    def test_low_dimensional_input(self):
        pts = [vec(1, 1, 1, 0), vec(2, 1, 1, 1), vec(1, 1, 1, 0), vec(3, 1, 1, 2), vec(1, 2, 1, 0)]
        p = build_polytope(pts)
        assert p.dim == 2
        assert p.frame == affine_hull(list(dict.fromkeys(pts)))

    @pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4", "random:4,12,10"])
    def test_facet_pieces(self, spec):
        p = generate(spec, seed=0)
        for i, f in enumerate(p.facets):
            assert facet_polytope(p, i).frame == affine_hull(face_points(p, f))

    def test_frames_build_no_fraction(self, monkeypatch):
        # Every facet piece, and a hull below full dimension, is framed and
        # charted on ints: no Fraction is built.  The counter is shown to
        # work on one Fraction made by hand.
        pieces = [generate(spec, seed=0) for spec in ("cube:4", "crosspolytope:4", "random:4,12,10")]
        half = F(1, 2)
        square = [(0, 0, half), (half, 0, half), (0, half, half), (half, half, half)]
        collinear = [(1, half, 0), (2, 1, half), (3, F(3, 2), 1)]
        for p in pieces:
            face_lattice(p)  # a piece reads p's ridges off its lattice
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        for p in pieces:
            for i in range(len(p.facets)):
                facet_polytope(p, i)
        assert build_polytope(square).dim == 2 and build_polytope(collinear).dim == 1
        assert built == []
        F(1, 3)
        assert built == [Fraction]


class TestFaceLattice:
    def test_cube3_counts(self):
        lat = face_lattice(generate("cube:3"))
        assert [len(lat.faces(c)) for c in range(4)] == [8, 12, 6, 1]

    def test_simplex4_counts(self):
        lat = face_lattice(generate("simplex:4"))
        assert [len(lat.faces(c)) for c in range(5)] == [5, 10, 10, 5, 1]

    def test_segment_counts(self):
        lat = face_lattice(build_polytope([vec(0), vec(1)]))
        assert [len(lat.faces(c)) for c in range(2)] == [2, 1]

    def test_cube4_counts_frozen_from_oracle(self):
        # Frozen output of brute_force_face_lattice(cube4, bound=16), which
        # also runs here against the fast lattice.
        p = generate("cube:4")
        lat = face_lattice(p)
        assert [len(lat.faces(c)) for c in range(5)] == [16, 32, 24, 8, 1]
        assert lat.same_faces(brute_force_face_lattice(p, bound=16))

    def test_facets_of_lattice_match_polytope_facets(self):
        p = generate("crosspolytope:3")
        lat = face_lattice(p)
        assert {f.vertex_indices for f in lat.faces(p.dim - 1)} == {
            f.vertex_indices for f in p.facets
        }

    def test_diamond_property(self):
        for kind in ["cube:3", "crosspolytope:3", "simplex:4", "random:3,7,4"]:
            lat = face_lattice(generate(kind, seed=11))
            for c in range(lat.dim - 1):
                for g in lat.faces(c):
                    above = [
                        h
                        for h in lat.faces(c + 2)
                        if g.vertex_indices <= h.vertex_indices
                    ]
                    for h in above:
                        between = [
                            m
                            for m in lat.faces(c + 1)
                            if g.vertex_indices <= m.vertex_indices
                            and m.vertex_indices <= h.vertex_indices
                        ]
                        assert len(between) == 2

    def test_incidence_pairs(self):
        lat = face_lattice(generate("simplex:2"))
        # each of the 3 edges contains 2 of the 3 vertices
        assert sum(len(children(lat, e)) for e in lat.faces(1)) == 6
        assert len(children(lat, lat.top)) == 3


class TestSmallerSideClosure:
    # face_lattice closes the incidence from its side with fewer sets; the
    # facet closure, which once served every polytope, and the affine
    # dimension of every closed facet set give the same faces in the same
    # order, whichever side is closed.  The closure by falling bit count
    # gives the dimensions that the closure over parent lists gave, on both
    # sides of the incidence.
    @staticmethod
    def assert_matches_references(p):
        got = face_lattice(p).faces_by_dimension
        assert got == _lattice_from_facets(p).faces_by_dimension
        assert got == reference_faces_by_dimension(p)
        vertex_masks = [sum(1 << i for i in f.vertex_indices) for f in p.facets]
        for masks, n in [(vertex_masks, len(p.vertices)), (p.facet_masks, len(p.facets))]:
            full = (1 << n) - 1
            assert polytope._closure(masks, full, p.dim) == reference_closure(masks, full, p.dim)

    @pytest.mark.parametrize(
        "spec, side",
        [
            ("crosspolytope:6", "<"),
            ("random:5,20,10", "<"),
            ("cube:6", ">"),
            ("simplex:6", "=="),
            ("simplex:1", "=="),
        ],
    )
    def test_named(self, spec, side):
        p = generate(spec, seed=0)
        n, m = len(p.vertices), len(p.facets)
        assert {"<": n < m, ">": n > m, "==": n == m}[side]
        self.assert_matches_references(p)

    @given(hull_inputs())
    @settings(max_examples=100, deadline=None)
    def test_hulls_and_their_facet_pieces(self, pts):
        if len(set(pts)) < 2:
            return
        p = build_polytope(pts)
        self.assert_matches_references(p)
        if p.dim >= 2:
            for i in range(len(p.facets)):
                self.assert_matches_references(facet_polytope(p, i))

    @given(st.lists(st.builds(F, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_points(self, point):
        self.assert_matches_references(point_polytope(point))

    def test_shadows_of_cube4(self):
        # The 3-dimensional shadows of cube:4 along general directions, where
        # keeping the first dimension found for a set, not the least, gives
        # wrong dimensions.
        p, rng = generate("cube:4"), random.Random(0)
        for _ in range(20):
            direction = vec(*(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) for _ in range(4)))
            shadow = project_along(p, direction).polytope
            assert shadow.dim == 3
            self.assert_matches_references(shadow)


@pytest.fixture
def mask_ands(monkeypatch) -> Counter:
    """Counts of the mask ANDs that face_lattice makes: those of the
    closure and those of reading faces back off its sets, on first use."""
    counts = Counter()
    closure = polytope._closure

    class Mask(int):
        def __and__(self, other):
            counts["and"] += 1
            return Mask(int(self) & int(other))

        __rand__ = __and__

    def counting_closure(masks, full, top):
        return closure([Mask(x) for x in masks], full, top)

    monkeypatch.setattr(polytope, "_closure", counting_closure)
    return counts


# Mask ANDs per face_lattice call at seed 0, which depend on no machine.
# The closure ANDs each of its sets with each of its masks, min(n, m) of
# them.  Faces are read only on first use, so face_lattice alone makes
# only these: crosspolytope:6 and random:5,20,10 no longer read each proper
# face's vertices off its facet set (728·12 and 986·20 fewer ANDs).  The
# reference facet closure makes f·m for f faces: 46,656 for crosspolytope:6,
# 8,748 for cube:6 and 144,102 for random:5,20,10.
MASK_ANDS = {
    "crosspolytope:6": 729 * 12,
    "cube:6": 729 * 12,
    "random:5,20,10": 987 * 20,
}
# Reading every face (all_faces) adds the vertex side's readback: n ANDs per
# proper face, tested against each vertex's facet mask.  The facet side
# reads the set bits of each mask, with no AND.
ALL_FACES_MASK_ANDS = {
    "crosspolytope:6": 729 * 12 + 728 * 12,
    "cube:6": 729 * 12,
    "random:5,20,10": 987 * 20 + 986 * 20,
}


@pytest.mark.parametrize("spec", sorted(MASK_ANDS))
def test_mask_ands(spec, mask_ands):
    p = generate(spec, seed=0)
    lat = face_lattice(p)
    assert mask_ands["and"] == MASK_ANDS[spec]
    list(lat.all_faces())
    assert mask_ands["and"] == ALL_FACES_MASK_ANDS[spec]


@pytest.fixture
def face_reads(monkeypatch) -> Counter:
    """Counts of the Faces that lattices build and of the sets whose vertex
    indices they read, for every FaceLattice made while it is active."""
    counts = Counter()
    init, face = FaceLattice.__init__, polytope.Face

    def counting_init(self, sets_by_dimension, read):
        def counting_read(s):
            counts["read"] += 1
            return read(s)

        init(self, sets_by_dimension, counting_read)

    def counting_face(*args):
        counts["face"] += 1
        return face(*args)

    monkeypatch.setattr(FaceLattice, "__init__", counting_init)
    monkeypatch.setattr(polytope, "Face", counting_face)
    return counts


class TestLazyFaces:
    # Counting faces builds none: f_vector reads each dimension's count, and
    # a dimension's faces are read and built once, on first use.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate("crosspolytope:6"),
            lambda: generate("random:5,20,10", seed=0),
            lambda: generate("cube:6"),
            lambda: point_polytope(vec(2, 3)),
        ],
        ids=["crosspolytope:6", "random:5,20,10", "cube:6", "point"],
    )
    def test_f_vector_builds_no_face(self, make, face_reads):
        p = make()
        lat = face_lattice(p)
        fv = f_vector(lat)
        assert face_reads == Counter()
        assert fv == tuple(len(lat.faces(c)) for c in range(p.dim + 1))
        assert face_reads == Counter(read=sum(fv), face=sum(fv))
        list(lat.all_faces())
        assert face_reads == Counter(read=sum(fv), face=sum(fv))

    @staticmethod
    def assert_counts_are_face_counts(lat):
        for c in range(-2, lat.dim + 3):
            assert lat.count(c) == len(lat.faces(c))

    @given(hull_inputs())
    @settings(max_examples=60, deadline=None)
    def test_hulls_their_facet_pieces_and_the_oracle(self, pts):
        if len(set(pts)) < 2:
            return
        p = build_polytope(pts)
        self.assert_counts_are_face_counts(face_lattice(p))
        if len(p.vertices) <= 8:
            self.assert_counts_are_face_counts(brute_force_face_lattice(p))
        if p.dim >= 2:
            for i in range(len(p.facets)):
                self.assert_counts_are_face_counts(face_lattice(facet_polytope(p, i)))

    @staticmethod
    def assert_families_build_no_face(lat):
        def no_face(*args):
            raise AssertionError("vertex_set_families built a Face")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "Face", no_face)
            families = lat.vertex_set_families()
        assert families == {
            c: frozenset(f.vertex_indices for f in faces)
            for c, faces in lat.faces_by_dimension.items()
        }

    @given(hull_inputs())
    @settings(max_examples=60, deadline=None)
    def test_families_of_hulls_shadows_and_the_oracle(self, pts):
        # Each family is its dimension's stored sets, read; the same sets
        # as the faces' vertex indices, with no Face built.
        if len(set(pts)) < 2:
            return
        p = build_polytope(pts)
        self.assert_families_build_no_face(face_lattice(p))
        if len(p.vertices) <= 8:
            self.assert_families_build_no_face(brute_force_face_lattice(p))
        if p.dim >= 2:
            shadow = project_along(p, tuple(F(3**j) for j in range(p.dim)))
            self.assert_families_build_no_face(face_lattice(shadow.polytope))


def subset_scan(p, face):
    """The facets whose vertex sets contain the face's, ascending."""
    return tuple(i for i, f in enumerate(p.facets) if face.vertex_indices <= f.vertex_indices)


class TestFacetsOf:
    # The facets holding a face, read from the vertices' facet masks, are
    # those whose vertex sets contain the face's and those whose planes pass
    # through the face's barycenter, a point of its relative interior; every
    # ridge lies in exactly two facets, and the empty face in all of them.
    @staticmethod
    def assert_matches_active_facets(p):
        lat = face_lattice(p)
        for face in lat.all_faces():
            assert p.facets_of(face) == subset_scan(p, face)
            assert p.facets_of(face) == active_facets(p, barycenter(face_points(p, face)))
        assert all(len(p.facets_of(r)) == 2 for r in lat.faces(p.dim - 2))
        assert p.facets_of(Face(frozenset(), -1)) == tuple(range(len(p.facets)))

    @pytest.mark.parametrize("spec", [s for s in FAMILY_SPECS if not s.endswith(":1")])
    def test_families(self, spec):
        self.assert_matches_active_facets(generate(spec))

    @given(hull_inputs())
    @settings(max_examples=60, deadline=None)
    def test_hulls_with_interior_coplanar_and_repeated_points(self, pts):
        if len(set(pts)) >= 2:
            self.assert_matches_active_facets(build_polytope(pts))

    def test_point(self):
        assert point_polytope(vec(1, 2)).facets_of(Face(frozenset({0}), 0)) == ()


# Span row steps, side tests and Fraction hashes for generate plus
# face_lattice at seed 0 (the `work_counts` fixture says what each counts).
# These depend on no machine; a change that moves them on purpose restates
# them here and says why.  The input's points are lifted to ints once and
# repeats are dropped on those ints, so no Fraction is hashed (hash was
# n·d when the Fraction points were).  One affine basis of the lifted points
# gives both the dimension and the initial simplex.  The hull eliminates
# only for its initial simplex's d + 1 planes: a horizon ridge is found on
# the facet masks and its new plane is an int combination of the two
# facets' planes.  When each candidate ridge took one _plane elimination
# the Gauss-Jordan pivots were 231, 277, 1,141 and 40,945, and then 69,
# 157, 283 and 11,695, mostly `_assemble`'s span check of each facet.  The
# span now reduces each row forward, one step per stored row, and builds
# its RREF only for `_plane`'s nullspace, so no pivot is left here; the
# steps are mostly that span check.  random:7,30,100 ends with 1,940
# facets; its side tests are all the hull's, one per plane for each point.
WORK_COUNTS = {
    "cube:5": {"step": 571, "side": 252, "hash": 0},
    "crosspolytope:5": {"step": 283, "side": 40, "hash": 0},
    "random:4,30,10": {"step": 300, "side": 1216, "hash": 0},
    "random:7,30,100": {"step": 29361, "side": 13556, "hash": 0},
}


@pytest.mark.parametrize("spec", sorted(WORK_COUNTS))
def test_work_counts(spec, work_counts):
    face_lattice(generate(spec, seed=0))
    assert work_counts == Counter(WORK_COUNTS[spec])  # a missing count is 0


class TestOracle:
    def test_triangle(self):
        lat = brute_force_face_lattice(generate("simplex:2"))
        assert [len(lat.faces(c)) for c in range(3)] == [3, 3, 1]

    def test_square(self):
        lat = brute_force_face_lattice(build_polytope(unit_square_points()))
        assert [len(lat.faces(c)) for c in range(3)] == [4, 4, 1]

    def test_cube3_matches_fast_lattice(self):
        p = generate("cube:3")
        assert face_lattice(p).same_faces(brute_force_face_lattice(p))

    def test_point_matches_fast_lattice(self):
        q = point_polytope(vec(2, 3))
        lat = brute_force_face_lattice(q)
        assert lat.vertex_set_families() == {0: frozenset({frozenset({0})})}
        assert face_lattice(q).same_faces(lat)

    def test_equivalence_on_small_families(self):
        for kind in [
            "simplex:1",
            "simplex:3",
            "simplex:5",
            "crosspolytope:2",
            "crosspolytope:4",
            "cube:2",
            "random:3,8,6",
            "random:4,10,5",
        ]:
            p = generate(kind, seed=5)
            assert face_lattice(p).same_faces(brute_force_face_lattice(p)), kind

    def test_bound(self):
        with pytest.raises(OracleBoundError, match="oracle bound exceeded"):
            brute_force_face_lattice(generate("cube:4"))

    def test_bound_is_configurable(self):
        p = generate("cube:4")
        lat = brute_force_face_lattice(generate("cube:2"), bound=4)
        assert [len(lat.faces(c)) for c in range(3)] == [4, 4, 1]
        with pytest.raises(OracleBoundError):
            brute_force_face_lattice(p, bound=15)

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
                lambda t: vec(*t)
            ),
            min_size=4,
            max_size=7,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_on_random_point_sets(self, pts):
        try:
            p = build_polytope(pts)
        except DegenerateInputError:
            return
        assert face_lattice(p).same_faces(brute_force_face_lattice(p))
        TestPrefixTree.assert_matches_reference(p)


def lp_calls(oracle, p) -> tuple[dict, int]:
    """The oracle's faces by dimension on p and its linear_feasible calls."""
    calls, solve = [], polytope.linear_feasible

    def counting(rows, rhs):
        calls.append(1)
        return solve(rows, rhs)

    with mock.patch.object(polytope, "linear_feasible", counting):
        faces = oracle(p).faces_by_dimension
    return faces, len(calls)


class TestPrefixTree:
    # The oracle walks the subsets as a prefix tree and drops a subtree only
    # where every subset in it is full-dimensional or has an outside vertex
    # in its affine hull.  It gives the faces that the flat walk over
    # itertools.combinations gave, and solves the same LPs: one per subset
    # that neither is full-dimensional nor has an outside vertex in its hull.
    @staticmethod
    def assert_matches_reference(p):
        assert lp_calls(brute_force_face_lattice, p) == lp_calls(
            reference_brute_force_face_lattice, p
        )

    CASES = {
        "simplex:1": lambda: generate("simplex:1"),
        "point": lambda: point_polytope(vec(2, 3)),
        "square-in-3d": lambda: build_polytope(
            [vec(0, 0, 1), vec(2, 0, 1), vec(0, 2, 1), vec(2, 2, 1), vec(1, 1, 1)]
        ),
        "triangle-in-3d": lambda: build_polytope(
            [vec(1, 1, 1), vec(2, 2, 2), vec(3, 3, 3), vec(0, 1, 0)]
        ),
        "crosspolytope:5": lambda: generate("crosspolytope:5"),
        "random:4,10,5": lambda: generate("random:4,10,5", seed=0),
        "paraboloid:4,8,6": lambda: paraboloid(4, 8, 6, 0),
        "paraboloid:3,9,8": lambda: paraboloid(3, 9, 8, 1),
        "paraboloid:2,6,5": lambda: paraboloid(2, 6, 5, 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_named(self, case):
        self.assert_matches_reference(self.CASES[case]())

    def test_paraboloids_keep_every_point(self):
        for d, n, b, seed in [(4, 8, 6, 0), (3, 9, 8, 1), (2, 6, 5, 2)]:
            assert len(paraboloid(d, n, b, seed).vertices) == n


# linear_feasible calls per oracle run at seed 0, as the flat walk over
# itertools.combinations made them; they depend on no machine.
LP_CALLS = {"crosspolytope:5": 272, "random:4,10,5": 385, "cube:3": 56}


@pytest.mark.parametrize("spec", sorted(LP_CALLS))
def test_lp_calls(spec):
    assert lp_calls(brute_force_face_lattice, generate(spec, seed=0))[1] == LP_CALLS[spec]


# The LPs' pivots and the spans' row steps of one oracle run at seed 0.
# They depend on no machine.  The flat walk built each subset's span from
# scratch and the LP split every free variable as y = u - w: 1,402, 1,109
# and 321 pivots, of which 938, 868 and 180 span pivots.  The prefix tree
# adds one row to its parent's span per subset it visits (169, 128 and 56
# span pivots), and the LP pivots each free variable in once (300, 159 and
# 105 LP pivots, from 464, 241 and 141).  The span no longer pivots: its
# steps are one per stored row for each row it adds or tests with
# `contains`, and one per pair of rows for each RREF `_is_face_lp` reads.
ORACLE_WORK = {
    "crosspolytope:4": {"pivot": 300, "step": 2532},
    "cube:3": {"pivot": 159, "step": 1460},
    "random:3,8,6": {"pivot": 105, "step": 505},
}


@pytest.mark.parametrize("spec", sorted(ORACLE_WORK))
def test_oracle_pivots(spec, work_counts):
    p = generate(spec, seed=0)
    work_counts.clear()
    brute_force_face_lattice(p)
    assert work_counts == Counter(ORACLE_WORK[spec])


class TestGenerate:
    def test_cube4(self):
        p = generate("cube:4")
        assert len(p.vertices) == 16 and len(p.facets) == 8

    def test_crosspolytope4(self):
        p = generate("crosspolytope:4")
        assert len(p.vertices) == 8 and len(p.facets) == 16

    def test_simplex2_any_seed(self):
        for seed in (0, 1, 99):
            p = generate("simplex:2", seed)
            assert len(p.vertices) == 3 and p.dim == 2

    def test_hypercube_alias(self):
        assert generate("hypercube:3").vertices == generate("cube:3").vertices

    def test_random_deterministic_per_seed(self):
        a = generate("random:3,8,10", seed=7)
        b = generate("random:3,8,10", seed=7)
        c = generate("random:3,8,10", seed=8)
        assert a.vertices == b.vertices and a.facets == b.facets
        assert a.vertices != c.vertices

    def test_random_full_dimensional(self):
        for seed in range(6):
            assert generate("random:4,10,10", seed).dim == 4

    def test_bad_specs(self):
        for bad in ["random:3,3,10", "frustum:3", "cube", "cube:0", "cube:x",
                    "random:3,8", "random:3,8,0"]:
            with pytest.raises(ValueError):
                generate(bad)


class TestVolumeAndSubpolytopes:
    def test_unit_volumes(self):
        assert volume(generate("cube:3")) == 1
        assert volume(generate("cube:4")) == 1
        assert volume(generate("simplex:3")) == F(1, 6)
        assert volume(generate("crosspolytope:3")) == F(4, 3)
        assert volume(build_polytope(unit_square_points())) == 1
        assert volume(build_polytope([vec(0), vec(5)])) == 5

    def test_facet_polytope_of_cube(self):
        p = generate("cube:3")
        q = facet_polytope(p, 0)
        assert q.dim == 2
        assert len(q.vertices) == 4
        # embedded vertices live in p's frame and are actual cube vertices
        assert set(q.embedded_vertices) <= set(p.vertices)

    def test_facet_polytope_rejects_images_that_flatten_a_ridge(self):
        # Facet 0 of the 4-cube is x0 = 0; its ridge x1 = 0 goes onto a line.
        p = generate("cube:4")
        images = list(p.vertices)
        for v in p.facets[0].vertex_indices:
            _, y, b, c = p.vertices[v]
            if y == 0:
                images[v] = vec(0, 0, b + 2 * c, 0)
        with pytest.raises(ValueError, match="images of facet 0 flatten a ridge"):
            facet_polytope(p, 0, lift_points(images))

    def test_facet_polytope_rejects_a_barycenter_on_a_ridge_plane(self):
        # Facet 0 of the 3-cube is x0 = 0; with (0, 1, 1) imaged at (0, -1, 1)
        # the images' barycenter lies on the line of the edge x1 = 0.
        p = generate("cube:3")
        images = [vec(0, -1, 1) if v == vec(0, 1, 1) else v for v in p.vertices]
        with pytest.raises(ValueError, match="images of facet 0"):
            facet_polytope(p, 0, lift_points(images))

    def test_facet_polytope_rejects_images_beyond_a_ridge_plane(self):
        # Facet 0 of the 3-cube is x0 = 0; with (0, 1, 1) imaged at
        # (0, 1/4, 1/4) the images' quadrilateral is not convex.
        p = generate("cube:3")
        images = [vec(0, F(1, 4), F(1, 4)) if v == vec(0, 1, 1) else v for v in p.vertices]
        with pytest.raises(ValueError, match="images of facet 0 put vertex .* beyond"):
            facet_polytope(p, 0, lift_points(images))

    def test_facet_of_segment_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="degenerate input"):
            facet_polytope(generate("simplex:1"), 0)

    def test_point_polytope(self):
        q = point_polytope(vec(2, 3))
        assert q.dim == 0 and q.ambient_dim == 2
        assert q.lifted == (1, ((),)) and q.vertices == ((),)
        assert q.embedded_vertices == (vec(2, 3),) and q == point_polytope((2, 3))
        lat = face_lattice(q)
        assert [len(lat.faces(c)) for c in range(1)] == [1]
        assert volume(q) == 1


class TestConeQueries:
    def test_tangent_cone_at_cube_corner(self):
        p = generate("cube:3")
        corner = vec(0, 0, 0)
        assert p.in_tangent_cone(corner, vec(1, 1, 1))
        assert p.in_tangent_cone(corner, vec(1, 0, 0))
        assert not p.in_tangent_cone(corner, vec(-1, 1, 1))

    def test_tangent_cone_at_interior_point(self):
        p = generate("cube:3")
        mid = vec(F(1, 2), F(1, 2), F(1, 2))
        assert active_facets(p, mid) == ()
        assert p.in_tangent_cone(mid, vec(-5, 17, 3))

    def test_relative_interior_of_facet(self):
        p = generate("cube:3")
        for i, f in enumerate(p.facets):
            pts = [p.vertices[j] for j in f.vertex_indices]
            center = vec(*[sum(c for c in col) / len(pts) for col in zip(*pts)])
            assert p.in_relative_interior_of_facet(center, i)
            for j in range(len(p.facets)):
                if j != i:
                    assert not p.in_relative_interior_of_facet(center, j)
        # an edge midpoint is on two facets, in the relative interior of none
        edge_mid = vec(F(1, 2), 0, 0)
        assert not any(
            p.in_relative_interior_of_facet(edge_mid, i)
            for i in range(len(p.facets))
        )
