"""The hull's horizon ridges and new planes, found on masks and plane pencils,
against the pair scan they replaced.

`pair_scan_hull_facets` is `polytope._hull_facets` as it was when each
visible × kept pair sharing k - 1 points ran one `_plane` elimination, which
both rejected a pair spanning no ridge and gave the new plane.  The hull
must return the same facet list, entry for entry and in the same order, on
every input `_assemble` hands it, and run `_plane` only for its initial
simplex.
"""

import itertools
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import polytope
from eulerlab.acceptance import FAMILY_SPECS, RANDOM_SPECS
from eulerlab.linalg import barycenter, dot, lift_points
from eulerlab.polytope import _assemble, _bits, _plane, _sides, generate
from spans import vec

F = Fraction


def pair_scan_hull_facets(lifted: Sequence[Sequence[int]], simplex: Sequence[int]) -> list:
    """Beneath-beyond hull of full-dimensional lifted points from the
    indices of an initial simplex; exact and degeneracy-safe.  Each facet is
    [n, b, inc]: the _plane of its wall, oriented by the initial simplex,
    and in the mask `inc` bit i for each inserted point i on that plane;
    nothing else records incidence.  A new facet's plane H runs through the
    new point p and a horizon ridge R = v & b, for v visible and b a kept
    facet whose plane misses p.  H meets the old hull in a face holding R,
    and a larger one would be a facet through R: v or b.  So the points on
    H are those on R, `v.inc & b.inc`, and p.  As p is strictly beneath b,
    on whose plane v & b lies, v & b and p span a hyperplane exactly when
    v & b spans a ridge: one _plane call tests the pair and gives H.
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
        visible = [inc for (_, _, inc), s in zip(facets, sides) if s > 0]
        if not visible:
            continue
        kept = [f for f, s in zip(facets, sides) if s <= 0]
        new = []
        for v_inc in visible:
            for _, _, b_inc in kept:
                if b_inc >> j & 1:
                    continue  # p is on b's plane, so b grows and spans no new one
                shared = v_inc & b_inc
                if shared.bit_count() >= k - 1 and (h := _plane(lifted, [*_bits(shared), j], inside, k + 1)):
                    new.append([*h, shared | 1 << j])
        facets = kept + new
    return facets


@st.composite
def hull_point_sets(draw):
    """Point sets in d = 1..5: a small integer cloud, or the vertices of a
    cube or crosspolytope, plus midpoints of drawn pairs (repeats, points
    on edges and facets, or inside) and sometimes the barycenter, sometimes
    lifted onto a hyperplane one dimension up, in shuffled order."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["cloud", "cube", "crosspolytope"]))
    if kind == "cloud":
        bound = draw(st.integers(1, 3))
        coord = st.integers(-bound, bound)
        base = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=d + 6))
    elif kind == "cube":
        base = list(itertools.product((0, 1), repeat=d))
    else:
        base = [tuple(s * (j == i) for j in range(d)) for i in range(d) for s in (1, -1)]
    pts = [tuple(map(F, q)) for q in base]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=5))
    pts += [tuple((a + b) / 2 for a, b in zip(x, y)) for x, y in pairs]
    if draw(st.booleans()):
        pts.append(barycenter(pts))
    if d < 5 and draw(st.booleans()):
        a = draw(st.tuples(*[st.integers(-2, 2)] * d))
        pts = [(*x, dot(vec(*a), x) + 1) for x in pts]
    return draw(st.permutations(pts))


def assemble_against_pair_scan(points) -> int:
    """Assemble the points as `build_polytope` does, with a hull step that
    requires the hull to equal the pair scan on `_assemble`'s charted ints;
    the number of hulls compared."""
    scale, lifted = lift_points([vec(*q) for q in points])
    compared = []

    def both(work, simplex):
        expected = pair_scan_hull_facets(work, simplex)
        found = polytope._hull_facets(work, simplex)
        assert found == expected
        compared.append(len(simplex))
        return found

    _assemble(scale, list(dict.fromkeys(lifted)), both)
    return len(compared)


class TestAgainstPairScan:
    @given(hull_point_sets())
    @settings(max_examples=400, deadline=None)
    def test_same_facet_list(self, points):
        if len(set(points)) >= 2:
            assert assemble_against_pair_scan(points) == 1

    @pytest.mark.parametrize("spec", [s for s in FAMILY_SPECS if int(s.split(":")[1]) <= 5])
    def test_families(self, spec):
        assert assemble_against_pair_scan(generate(spec).vertices) == 1


def test_insertion_runs_no_elimination(monkeypatch):
    # Each hull calls _plane once per facet of its initial simplex, k + 1,
    # and never while inserting a point.
    calls, per_hull = Counter(), []
    plane, hull_facets = polytope._plane, polytope._hull_facets

    def counting_plane(*args):
        calls["plane"] += 1
        return plane(*args)

    def counted_hull_facets(lifted, simplex):
        calls.clear()
        found = hull_facets(lifted, simplex)
        per_hull.append((calls["plane"], len(simplex), len(lifted)))
        return found

    monkeypatch.setattr(polytope, "_plane", counting_plane)
    monkeypatch.setattr(polytope, "_hull_facets", counted_hull_facets)
    for spec, seed in [(s, 0) for s in FAMILY_SPECS] + RANDOM_SPECS:
        generate(spec, seed)
    assert len(per_hull) >= len(FAMILY_SPECS) + len(RANDOM_SPECS)
    assert all(planes == k1 for planes, k1, _ in per_hull)
    assert any(n > k1 for _, k1, n in per_hull)  # some hull inserts points
