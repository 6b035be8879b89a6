"""Hulls, facet pieces and Schlegel pieces assembled on ints, against the
Fraction path they replaced.

`fraction_assemble`, `fraction_build_polytope` and `fraction_facet_polytope`
are that path as it was, charting with the rational `to_working` of
tests/spans.py; `fraction_schlegel_images` is how the Schlegel complex
projected and charted its images on Fractions.  Every polytope the int path
builds must equal theirs, with the same names, frame, facet order and
embedded vertices, or raise the same error with the same text.  Each one
also stores `lift_points` of its vertices as `Polytope.lifted`.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.acceptance import FAMILY_SPECS, RANDOM_SPECS
from eulerlab.errors import DegenerateInputError, DimensionMismatchError
from eulerlab.linalg import (
    AffineSubspace,
    Hyperplane,
    Vector,
    affine_basis,
    affine_hull,
    lift_points,
    vsub,
)
from eulerlab.polytope import (
    Facet,
    Polytope,
    _bits,
    _hull_facets,
    _plane,
    _sides,
    build_polytope,
    face_lattice,
    facet_polytope,
    generate,
)
from eulerlab.projection import beyond_point, schlegel
from spans import face_points, to_working, vadd, vec, vscale

F = Fraction


def fraction_assemble(distinct: Sequence[Vector], find_facets, labels=None) -> Polytope:
    """The canonical Polytope of distinct points, framed in their affine
    hull: one affine_basis of their lifted ints gives k, the frame's basis
    and the initial simplex that `find_facets(lifted, simplex)` may start
    from.  It returns each facet as (n, b, inc), n primitive, for the points
    charted in k coordinates and lifted to q = V·x; inside is n·q <= b, or
    in primitive ints (V·n/g)·x <= b/g for g = gcd(V, b).  Each vertex is
    named by its point's entry in `labels`, or by its own index."""
    if len(distinct) < 2:
        raise DegenerateInputError("degenerate input")
    ambient = len(distinct[0])
    scale, lifted = lift_points(distinct)
    simplex = affine_basis(lifted)
    k, frame, work_points = len(simplex) - 1, None, distinct
    if k < ambient:
        base, *rest = (distinct[i] for i in simplex)
        frame = AffineSubspace(lift_points([base, *(vsub(x, base) for x in rest)]))
        work_points = [to_working(frame, x) for x in distinct]
        scale, lifted = lift_points(work_points)
    found = find_facets(lifted, simplex)
    # The facets through point i meet in the least face holding i, so i is a
    # vertex exactly when no other point lies on all of them.
    meet: dict[int, set[int]] = {}
    for _, _, inc in found:
        for i in inc:
            meet[i] = meet[i] & inc if i in meet else inc
    extreme = sorted((i for i, m in meet.items() if m == {i}), key=lambda i: lifted[i])
    renum = {old: new for new, old in enumerate(extreme)}
    facet_list = []
    for n, b, inc in found:
        held = [i for i in inc if i in renum]
        if len(affine_basis([lifted[i] for i in held])) != k:
            raise RuntimeError("facet vertex set does not span dimension k-1")
        g = math.gcd(scale, b)
        h = Hyperplane(tuple(scale // g * x for x in n), b // g)
        facet_list.append(Facet(h, frozenset(renum[i] for i in held)))
    facet_list.sort(key=lambda f: (f.hyperplane.normal, f.hyperplane.offset))
    vertices = tuple(work_points[i] for i in extreme)
    p = Polytope(
        ambient_dim=ambient,
        dim=k,
        lifted=lift_points(vertices),
        facets=tuple(facet_list),
        frame=frame,
        names=tuple(range(len(extreme)) if labels is None else (labels[i] for i in extreme)),
    )
    # Read on first use: the vertices from `lifted`, the embedded ones through the frame.
    assert p.vertices == vertices
    assert p.embedded_vertices == tuple(distinct[i] for i in extreme)
    return p


def fraction_build_polytope(points: Sequence[Sequence]) -> Polytope:
    """Convex hull of the given rational points as a canonical Polytope.

    Raises DegenerateInputError for fewer than 2 distinct points.  Inputs
    whose affine hull has lower dimension than the ambient space are restated
    in an intrinsic rational frame (recorded in `frame`).
    """
    pts = [vec(*p) for p in points]
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatchError("points of mixed dimension")
    return fraction_assemble(list(dict.fromkeys(pts)), hull_with_sets)


def hull_with_sets(lifted: Sequence[Sequence[int]], simplex: Sequence[int]) -> list:
    """`_hull_facets` with each facet's point mask read back as the set of
    its bits, the form `fraction_assemble` takes."""
    return [(n, b, set(_bits(inc))) for n, b, inc in _hull_facets(lifted, simplex)]


def fraction_facet_polytope(
    p: Polytope, i: int, images: Optional[Sequence[Vector]] = None
) -> Polytope:
    """Facet i of p as a polytope of its own (working frame of dimension d-1).

    Its points are the images of the facet's vertices: p's own by default,
    so `embedded_vertices` live in p's working frame, or any images of p's
    vertices that keep the facet's face lattice, such as a Schlegel
    projection's.  Each vertex is named by its index in p.  No hull runs:
    its facets are the ridges of p in F_i (Kaibel & Pfetsch 2002), each the
    _plane through a ridge's images, oriented by the barycenter of F_i's.
    ValueError if a ridge has no such plane or a given image lies beyond one.
    """
    own = images is None
    images = p.vertices if own else images
    held = p.facets[i].vertex_indices
    local = {v: j for j, v in enumerate(sorted(held))}
    ridges = [
        {local[v] for v in r.vertex_indices}
        for r in face_lattice(p).faces(p.dim - 2)
        if r.vertex_indices <= held
    ]

    def ridge_facets(lifted: Sequence[Sequence[int]], _simplex) -> list:
        inside = [sum(c) for c in zip(*lifted)]
        planes = [_plane(lifted, r, inside, len(lifted)) for r in ridges]
        if None in planes:
            raise ValueError(f"images of facet {i} flatten a ridge or put their barycenter on its plane")
        facets = [(*h, r) for h, r in zip(planes, ridges)]
        if own:  # p's own vertices lie beneath every ridge plane of their facet
            return facets
        for v, q in zip(local, lifted):
            if any(s > 0 for s in _sides(facets, q)):
                raise ValueError(f"images of facet {i} put vertex {v} beyond a ridge's plane")
        return facets

    return fraction_assemble([images[v] for v in local], ridge_facets, list(local))


def fraction_schlegel_images(p: Polytope, facet: int) -> tuple[Vector, ...]:
    """The Schlegel complex's images as Fractions: each vertex projected
    from the beyond point onto the facet's hyperplane, then charted."""
    v = beyond_point(p, facet)
    plane = p.facets[facet].hyperplane
    frame = affine_hull(face_points(p, p.facets[facet]))
    sides = [plane.side(x) for x in p.vertices]
    a = plane.side(v)
    return tuple(
        to_working(frame, vadd(v, vscale(vsub(x, v), a / (a - s))))
        for x, s in zip(p.vertices, sides)
    )


def outcome(build, *args):
    """The polytope built with everything `==` leaves out, or the type and
    text of the error building it raises."""
    try:
        p = build(*args)
    except ValueError as e:
        return type(e).__name__, str(e)
    assert p.lifted == lift_points(p.vertices)
    return p, p.names, p.frame, p.facets, p.embedded_vertices


def assert_same_hull_and_pieces(points):
    got = outcome(build_polytope, points)
    assert got == outcome(fraction_build_polytope, points)
    if isinstance(got[0], Polytope) and got[0].dim >= 2:
        p = got[0]
        for i in range(len(p.facets)):
            assert outcome(facet_polytope, p, i) == outcome(fraction_facet_polytope, p, i), i
    return got[0]


def shifted(points):
    """x -> x/3 + 1/7: every coordinate gets a denominator, so V > 1."""
    return [tuple(F(c) / 3 + F(1, 7) for c in q) for q in points]


@given(
    d=st.integers(1, 5),
    points=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_shifted_hulls_and_their_pieces(d, points):
    cloud = points.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=d + 6))
    p = assert_same_hull_and_pieces(shifted(cloud))
    if isinstance(p, Polytope) and p.frame is None:  # a frame charts them anew
        assert p.lifted[0] > 1


@st.composite
def low_dimensional_sets(draw):
    """Points base + (sum of t_i·u_i)/3 for k < d integer directions u_i and
    small integer t_i, in R^d with d = 2..5: coplanar clouds when k = d - 1,
    lines and planes in higher dimensions, with repeats and interior points."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, d - 1))
    base = [F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 7]))) for _ in range(d)]
    dirs = [draw(st.tuples(*[st.integers(-2, 2)] * d)) for _ in range(k)]
    coeffs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=2, max_size=9))
    return [
        tuple(b + F(sum(t * u[j] for t, u in zip(ts, dirs)), 3) for j, b in enumerate(base))
        for ts in coeffs
    ]


@given(low_dimensional_sets())
@settings(max_examples=60, deadline=None)
def test_low_dimensional_sets_and_their_pieces(points):
    assert_same_hull_and_pieces(points)


def test_segment_in_r4():
    a, b = vec(1, F(2, 3), -5, F(1, 7)), vec(F(-3, 2), 4, 0, 2)
    mid = tuple((x + y) / 2 for x, y in zip(a, b))
    p = assert_same_hull_and_pieces([b, mid, a, mid])
    # The frame runs from b along mid - b, so a is at 2.
    assert p.dim == 1 and p.embedded_vertices == (b, a) and p.lifted == (1, ((0,), (2,)))


@pytest.mark.parametrize(
    "points",
    [[vec(1, 2)], [vec(1, 2), vec(1, 2)], [vec(1, 2), vec(1, 2, 3)], [vec(F(1, 3))] * 3],
)
def test_same_raise_text(points):
    got = outcome(build_polytope, points)
    assert isinstance(got[0], str)
    assert got == outcome(fraction_build_polytope, points)


PIECE_SPECS = [(spec, 0) for spec in FAMILY_SPECS if int(spec.split(":")[1]) <= 5]


@pytest.mark.parametrize("spec,seed", PIECE_SPECS + RANDOM_SPECS)
def test_own_and_schlegel_pieces(spec, seed):
    # Every own piece, and every piece of the Schlegel complex at facet 0,
    # whose images are the Fraction path's as rationals and lifted once.
    p = generate(spec, seed)
    assert p.lifted == lift_points(p.vertices)
    if p.dim < 2:
        return
    for i in range(len(p.facets)):
        assert outcome(facet_polytope, p, i) == outcome(fraction_facet_polytope, p, i), i
    if p.dim < 3:
        return
    cx = schlegel(p, 0)
    images = fraction_schlegel_images(p, 0)
    assert cx.images == images
    assert cx.lifted == lift_points(images)
    pieces = [outcome(facet_polytope, p, j, cx.lifted) for j in range(len(p.facets))]
    assert pieces == [outcome(fraction_facet_polytope, p, j, images) for j in range(len(p.facets))]
    # The carrier is piece 0, and the cells are the others in order.
    assert [outcome(lambda q: q, q) for q in (cx.carrier, *cx.cells)] == pieces


@given(
    d=st.integers(3, 4),
    hull_seed=st.integers(0, 2**16),
    facet=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_moved_images_give_the_same_piece_or_raise(d, hull_seed, facet, data):
    # Images of a facet's vertices moved within the facet's hyperplane, by
    # an affine combination of its vertices: the piece is reframed, and it
    # may flatten a ridge or put a vertex beyond one.
    p = generate(f"random:{d},{d + 4},6", hull_seed)
    i = facet % len(p.facets)
    held = sorted(p.facets[i].vertex_indices)
    images = list(p.vertices)
    for v in data.draw(st.lists(st.sampled_from(held), min_size=1, max_size=2)):
        weights = [F(data.draw(st.integers(-2, 3))) for _ in held]
        weights[0] += 1 - sum(weights)
        images[v] = tuple(
            sum(w * p.vertices[u][j] for w, u in zip(weights, held)) for j in range(d)
        )
    got = outcome(facet_polytope, p, i, lift_points(images))
    assert got == outcome(fraction_facet_polytope, p, i, images)
