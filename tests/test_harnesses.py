"""Properties of the two proof harnesses, and their predicate work."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import cli, folded_flags, linalg, polytope, projection, schlegel_flags
from eulerlab.euler import f_vector
from eulerlab.folded_flags import (
    facet_assignment_sums,
    fold_flags,
    sample_transversal,
    verify_proof_folded,
)
from eulerlab.polytope import Polytope, build_polytope, face_lattice, generate
from eulerlab.schlegel_flags import (
    classify_flag,
    place_flags,
    sample_general_line,
    verify_proof_schlegel,
)


@given(
    d=st.integers(3, 5),
    extra=st.integers(0, 2),
    hull_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_both_proofs_pass_on_random_hulls(d, extra, hull_seed, seed):
    p = generate(f"random:{d},{d + 1 + extra},6", hull_seed)
    schlegel = verify_proof_schlegel(p, seed % len(p.facets), seed)
    folded = verify_proof_folded(p, seed)
    assert schlegel.failures == []
    assert folded.failures == []
    assert schlegel.total == folded.total


RUNS = {
    "schlegel": lambda p: verify_proof_schlegel(p, 0, 0),
    "folded": lambda p: verify_proof_folded(p, 0),
}

# Span row steps, side tests and Fraction hashes of one run at seed 0
# (Schlegel at facet 0), after generate; the `work_counts` fixture says
# what each counts.  A change that moves them on purpose
# restates them here and says why.  The folded sampler takes no side test:
# it certifies each candidate on the line's int products with the facet
# normals, and reads where its facet points lie from a sign table of those
# ints.  Folding reads the lifted vertices and takes no side test either, so
# a folded run's side tests are all its shadow hulls';
# a frame charts its points with one elimination, not one per point.  The
# Schlegel build's central projection takes none either: the apex and the
# vertices are ints, and their sides of the facet's plane are int products.
# Nor does its beyond point: the halving search reads each facet's side as an
# int product of the lifted vertices with the facet's plane (it took 8, 22
# and 10 Fraction side tests in the Schlegel order below).
# A shadow takes none: its apex and vertices are lifted to
# ints once, and the exterior test, the violated facet and the screen sides
# are int products.  Facet pieces, the Schlegel
# carrier and its cells are read from the polytope's ridges and run no hull
# pivot.  A Schlegel piece tests every vertex image against each of its
# ridge planes, one integer side test per pair, so a d = 4 cube piece takes
# 8 x 6 and a d = 5 one 16 x 8.  A folded piece is built on p's own
# vertices, which lie beneath those planes, and takes none.
# Only the shadows run the hull, and it eliminates only for its initial
# simplex: each horizon ridge is found on the facet masks and its new plane
# is an int combination of the two facets' planes.  When each candidate
# ridge took one _plane elimination the pivots were 379, 514, 493, 652,
# 1,335 and 1,700 in the order below.  One affine basis of a point set's lifted
# ints gives both its dimension and the hull's initial simplex, so each
# shadow hull of dimension k takes k pivots fewer than when the simplex was
# eliminated twice.  Shadow images are int points of full dimension: a
# central one is charted by the one-pivot integer nullspace of the screen
# normal, so no shadow is reframed.  No Fraction is hashed: faces are keyed
# by vertex indices, each piece carries its vertices' names, and a shadow
# is built on its int images and finds each image's vertex by name.  The
# span reduces each row forward and builds its RREF on first read, so a run
# takes no Gauss-Jordan pivot; it took 315, 460, 463, 628, 857 and 1,290 in
# the order below when every span add pivoted all its rows.
HARNESS_WORK_COUNTS = {
    ("cube:4", "schlegel"): {"step": 410, "side": 553, "hash": 0},
    ("cube:4", "folded"): {"step": 694, "side": 122, "hash": 0},
    ("crosspolytope:4", "schlegel"): {"step": 271, "side": 304, "hash": 0},
    ("crosspolytope:4", "folded"): {"step": 574, "side": 42, "hash": 0},
    ("cube:5", "schlegel"): {"step": 3157, "side": 2256, "hash": 0},
    ("cube:5", "folded"): {"step": 3938, "side": 763, "hash": 0},
}


@pytest.mark.parametrize("spec,proof", sorted(HARNESS_WORK_COUNTS))
def test_harness_work_counts(spec, proof, work_counts):
    p = generate(spec, seed=0)
    work_counts.clear()
    assert RUNS[proof](p).passed
    assert work_counts == Counter(HARNESS_WORK_COUNTS[spec, proof])  # a missing count is 0


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4", "random:4,12,10"])
def test_sampling_builds_no_face_span(spec, monkeypatch):
    # Both samplers certify a line from facet normals alone.
    p = generate(spec, seed=0)
    face_lattice(p)
    cx = projection.schlegel(p, 0)
    built = Counter()
    init = linalg.SpanBuilder.__init__

    def counting_init(self, width):
        built["span"] += 1
        init(self, width)

    monkeypatch.setattr(linalg.SpanBuilder, "__init__", counting_init)
    for seed in range(3):
        sample_general_line(cx, seed)
        sample_transversal(p, seed)
    assert built["span"] == 0


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4"])
def test_classification_is_one_table_per_line(spec, monkeypatch, work_counts):
    # Classifying every flag of one line evaluates no facet inequality and
    # takes each facet normal's product with the line exactly once: an int
    # product, one `mul` per coordinate, and no Fraction dot product.
    cx = projection.schlegel(generate(spec), 0)
    q = sample_general_line(cx, 0)
    flags = place_flags(cx)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(linalg, "dot")
    counted(projection, "mul")
    counted(Polytope, "contains")
    counted(Polytope, "in_tangent_cone")
    work_counts.clear()
    signs = cx.facet_signs(q.direction)
    for flag in flags:
        classify_flag(flag, cx, signs)
    assert work_counts["side"] == 0
    assert calls["contains"] == calls["in_tangent_cone"] == calls["dot"] == 0
    facets = sum(len(c.facets) for c in cx.cells) + len(cx.carrier.facets)
    assert calls["mul"] == cx.dim * facets


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4"])
def test_folding_is_integer_rows_from_the_lifted_vertices(spec, monkeypatch, work_counts):
    # Folding every face of one line, on the table the line carries,
    # evaluates no facet inequality and does no rational arithmetic: the
    # base point and the side ends are int sums over the lifted vertices, the
    # sides are ordered by cross-multiplying ints, and both ends stay ints.
    # Checking each flag's collinearity builds no Fraction either.
    p = generate(spec)
    line = sample_transversal(p, 0)
    lat = face_lattice(p)
    calls = Counter()

    def counted(name, owner, *also):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        for where in (owner, *also):
            monkeypatch.setattr(where, name, wrapper, raising=False)

    names = ["dot", "barycenter", "vsub"]
    for name in names:
        counted(name, linalg, folded_flags)
    operators = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"]
    operators += ["__truediv__", "__rtruediv__", "__new__"]
    for name in operators:
        counted(name, Fraction)
    work_counts.clear()
    flags = [
        flag for c in range(p.dim - 1) for face in lat.faces(c) for flag in fold_flags(p, face, line)
    ]
    assert work_counts["side"] == 0
    assert {name: calls[name] for name in names} == dict.fromkeys(names, 0)
    assert all(folded_flags.flag_collinear_with_assigned_point(f, line) for f in flags)
    assert {name: calls[name] for name in operators} == dict.fromkeys(operators, 0)


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4", "random:4,12,10"])
def test_one_line_table_per_candidate(spec, monkeypatch):
    # The sampler builds one LineTable per candidate line it draws, two
    # interior points each, and the accepted line carries its table: the
    # folded checks that follow build none.
    p = generate(spec, seed=0)
    calls = Counter()
    for name in ["line_table", "_relint_point"]:
        fn = getattr(folded_flags, name)

        def wrapper(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(folded_flags, name, wrapper)
    for seed in range(5):
        calls.clear()
        line = sample_transversal(p, seed)
        assert 0 < 2 * calls["line_table"] == calls["_relint_point"]
        calls.clear()
        assert facet_assignment_sums(p, line, seed).passed
        assert calls == Counter()


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4", "random:4,12,10"])
def test_sampling_takes_no_side_test(spec, monkeypatch, work_counts):
    # The folded sampler certifies every candidate, and places the accepted
    # line's points, on the line's int products with the facet normals.
    p = generate(spec, seed=0)
    face_lattice(p)
    calls = Counter()
    for name in ["contains", "in_relative_interior_of_facet"]:
        fn = getattr(Polytope, name)

        def wrapper(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(Polytope, name, wrapper)
    work_counts.clear()
    for seed in range(5):
        assert all(entry.ok for entry in sample_transversal(p, seed).certificate)
    assert work_counts["side"] == 0
    assert calls == Counter()


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4"])
def test_shadows_are_built_on_ints(spec, monkeypatch, tmp_path):
    # Both shadow builders read their images off lifted ints: while either
    # runs, no Fraction dot product is taken and no point is charted in a
    # reframed subspace.  The rest of the run takes no dot product either,
    # since the Schlegel beyond point is found on ints, and charts every
    # facet piece and the Schlegel images on ints.
    inside = []
    calls = Counter()

    def counted(name, owner, *also):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name, bool(inside)] += 1
            return fn(*args)

        for where in (owner, *also):
            monkeypatch.setattr(where, name, wrapper, raising=False)

    counted("dot", linalg, polytope, projection)
    counted("chart", linalg.AffineSubspace)
    for module, name in [(schlegel_flags, "project_along"), (folded_flags, "project_from_point")]:
        build = getattr(module, name)

        def within(*args, build=build, name=name):
            calls[name] += 1
            inside.append(name)
            try:
                return build(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, within)
    doc, report = tmp_path / "doc.json", tmp_path / "report.json"
    assert cli.main(["generate", spec, "-o", str(doc)]) == 0
    assert cli.main(["verify", str(doc), "--proof", "both", "--seed", "0", "-o", str(report)]) == 0
    assert calls["project_along"] > 0 and calls["project_from_point"] > 0
    assert calls["dot", True] == calls["chart", True] == 0
    assert calls["dot", False] == 0 and calls["chart", False] > 0
    # The wrapper sees the dot products of a Fraction side test.
    assert generate(spec).contains((Fraction(1, 8),) * 4)
    assert calls["dot", False] > 0


@pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:4"])
def test_verify_hashes_no_fraction_and_assembles_on_ints(spec, monkeypatch, tmp_path):
    # A verify run lifts its input once, in build_polytope, and hands ints on
    # from there: every hull, piece and shadow is assembled from ints, and
    # no Fraction is hashed.  The counters are shown to work on the input's
    # lift and on one hash made by hand.
    counts = Counter()
    inside = []
    fraction_hash, lift_points, assemble = Fraction.__hash__, linalg.lift_points, polytope._assemble

    def counting_hash(self):
        counts["hash"] += 1
        return fraction_hash(self)

    def counting_lift_points(points):
        if any(isinstance(c, Fraction) for q in points for c in q):
            counts["lift_points", bool(inside)] += 1
        return lift_points(points)

    def counting_assemble(*args):
        inside.append(True)
        try:
            return assemble(*args)
        finally:
            inside.pop()

    doc, report = tmp_path / "doc.json", tmp_path / "report.json"
    assert cli.main(["generate", spec, "-o", str(doc)]) == 0
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    for module in (linalg, polytope, projection, folded_flags):
        monkeypatch.setattr(module, "lift_points", counting_lift_points, raising=False)
    for module in (polytope, projection):
        monkeypatch.setattr(module, "_assemble", counting_assemble)
    assert cli.main(["verify", str(doc), "--proof", "both", "--seed", "0", "-o", str(report)]) == 0
    assert counts["hash"] == counts["lift_points", True] == 0
    assert counts["lift_points", False] > 0
    hash(Fraction(1, 3))
    assert counts["hash"] == 1


def _facet_at(p, facet_points) -> int:
    """The index of p's facet whose vertices are facet_points."""
    return next(
        i
        for i, f in enumerate(p.facets)
        if {p.embedded_vertices[j] for j in f.vertex_indices} == facet_points
    )


def _schlegel_numbers(points, facet_points, seed):
    """The Schlegel run's numbers on the hull of points, at the facet whose
    vertices are facet_points."""
    p = build_polytope(points)
    r = verify_proof_schlegel(p, _facet_at(p, facet_points), seed)
    assert r.failures == []
    return (
        f_vector(face_lattice(p)),
        r.cell_count,
        sorted(r.per_cell_sums.values()),
        r.outside_sum,
        r.total_by_base,
        r.total_by_classification,
        r.lhs_needed,
        r.rhs_needed,
    )


@st.composite
def unimodular_maps(draw, d):
    """x -> Ax + t with A an integer matrix of determinant +-1 (a product of
    row additions and sign flips) and t rational."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    index = st.integers(0, d - 1)
    for i, j, m in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=6)):
        if i != j:
            rows[i] = [a + m * b for a, b in zip(rows[i], rows[j])]
    for i in draw(st.lists(st.integers(0, d - 1), max_size=2)):
        rows[i] = [-a for a in rows[i]]
    t = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3))) for _ in range(d)]
    return lambda x: tuple(sum(a * c for a, c in zip(row, x)) + s for row, s in zip(rows, t))


def _assert_numbers_survive(numbers_of, points, marked, data):
    """numbers_of(points, marked) stays the same when the points are
    shuffled, mapped by an integer unimodular map plus a rational
    translation, or padded with interior and duplicate points; `marked` is
    a tuple of point sets (facets) that the map carries along."""
    d = len(points[0])
    numbers = numbers_of(points, marked)

    shuffled = data.draw(st.permutations(points))
    assert numbers_of(shuffled, marked) == numbers

    image = data.draw(unimodular_maps(d))
    mapped = [image(x) for x in points]
    assert numbers_of(mapped, tuple({image(x) for x in m} for m in marked)) == numbers

    n = len(points)
    weights = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    interior = [
        tuple(sum(w * x[i] for w, x in zip(ws, points)) / sum(ws) for i in range(d))
        for ws in data.draw(st.lists(weights, min_size=1, max_size=3))
    ]
    duplicates = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=3))
    padded = data.draw(st.permutations(points + interior + duplicates))
    assert numbers_of(padded, marked) == numbers


@given(
    d=st.integers(3, 4),
    extra=st.integers(0, 2),
    hull_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_schlegel_numbers_survive_relabelling_affine_maps_and_redundant_points(
    d, extra, hull_seed, seed, data
):
    # The incidence lookup takes the complex to be face-to-face; these input
    # changes keep the polytope and so must keep every number of the run.
    p = generate(f"random:{d},{d + 1 + extra},6", hull_seed)
    points = list(p.embedded_vertices)
    facet = seed % len(p.facets)
    facet_points = {points[j] for j in p.facets[facet].vertex_indices}
    _assert_numbers_survive(
        lambda pts, marked: _schlegel_numbers(pts, marked[0], seed),
        points,
        (facet_points,),
        data,
    )


def _folded_numbers(points, pair_points, seed):
    """The folded run's numbers on the hull of points, at the facet pair
    whose vertices are pair_points."""
    p = build_polytope(points)
    pair = tuple(_facet_at(p, facet_points) for facet_points in pair_points)
    r = verify_proof_folded(p, seed, facet_pair=pair)
    assert r.failures == []
    return (
        f_vector(face_lattice(p)),
        r.special_pair_sum,
        sorted(r.per_facet_sums.values()),
        r.total_by_base,
        r.total_by_facet,
        r.lhs_needed,
        r.rhs_needed,
    )


@given(
    d=st.integers(3, 4),
    extra=st.integers(0, 2),
    hull_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_folded_numbers_survive_relabelling_affine_maps_and_redundant_points(
    d, extra, hull_seed, seed, data
):
    # The same input changes at the image of the same facet pair.
    p = generate(f"random:{d},{d + 1 + extra},6", hull_seed)
    points = list(p.embedded_vertices)
    nf = len(p.facets)
    i1 = seed % nf
    i2 = (i1 + 1 + seed // nf % (nf - 1)) % nf
    pair_points = tuple(
        {points[j] for j in p.facets[i].vertex_indices} for i in (i1, i2)
    )
    _assert_numbers_survive(
        lambda pts, marked: _folded_numbers(pts, marked, seed), points, pair_points, data
    )
