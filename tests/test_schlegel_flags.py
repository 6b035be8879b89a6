"""Tests for the flag double count over a Schlegel complex."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import schlegel_flags
from eulerlab.errors import GeneralPositionError, SamplingBudgetError
from eulerlab.euler import CertificateEntry, f_vector, rejection_sample
from eulerlab.linalg import (
    SpanBuilder,
    barycenter,
    format_point,
    is_zero,
    lift,
    lift_points,
    vsub,
)
from eulerlab.polytope import face_lattice, generate
from eulerlab.projection import project_along, schlegel
from eulerlab.schlegel_flags import (
    OUTSIDE,
    GeneralLine,
    classify_flag,
    place_flags,
    sample_general_line,
    verify_proof_schlegel,
)
from spans import through, vscale


def reference_sample_general_line(complex, seed):
    """The sampler as it was before it read facet normals: accept iff
    appending the direction to every face's direction basis (faces of
    dimension 1..k-1) increases its rank, with one entry per face."""
    rng = random.Random(seed)
    k = complex.dim
    spans = [
        (c, idx, through(complex.face_points(face)))
        for c in range(1, k)
        for idx, face in enumerate(complex.faces(c))
    ]

    def attempt(bound):
        cand = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(k))
        if is_zero(cand):
            return None
        entries = tuple(
            CertificateEntry("direction-independent", (c, idx), not sb.contains(lift(cand)))
            for c, idx, sb in spans
        )
        if all(e.ok for e in entries):
            return GeneralLine(direction=cand, certificate=entries)
        return None

    return rejection_sample(f"general direction for seed {seed}", 4, attempt)


def sampled_direction(sample, complex, seed):
    """The sampled direction, or the text of the raise."""
    try:
        return sample(complex, seed).direction
    except (GeneralPositionError, SamplingBudgetError) as err:
        return f"raised: {err}"


def base_point(complex, flag):
    """The flag's base point: the vertex barycenter of its face."""
    return barycenter(complex.face_points(flag.base_face))


def full_scan_classify(flag, complex, line_direction):
    """Reference classifier: ask every cell whether it holds the base point
    and takes the flag in its tangent cone, re-evaluating every facet."""
    base = base_point(complex, flag)
    direction = vscale(line_direction, flag.orientation)
    hits = [
        i
        for i, cell in enumerate(complex.cells)
        if cell.contains(base) and cell.in_tangent_cone(base, direction)
    ]
    escapes = not complex.carrier.in_tangent_cone(base, direction)
    if len(hits) == 1 and not escapes:
        return hits[0]
    if not hits and escapes:
        return OUTSIDE
    raise GeneralPositionError(
        f"general position violated: the flag at base point {format_point(base)} "
        f"enters cells {hits} and {'leaves' if escapes else 'stays in'} the carrier, "
        f"not exactly one of them"
    )


def outcome(classify, *args):
    """The classification, or the text of the general-position raise."""
    try:
        return classify(*args)
    except GeneralPositionError as err:
        return f"raised: {err}"


def assert_same_as_full_scan(complex, line) -> int:
    """Every flag of the line classifies as the full scan does; returns how
    many flags made both raise."""
    raised = 0
    signs = complex.facet_signs(line.direction)
    for flag in place_flags(complex):
        got = outcome(classify_flag, flag, complex, signs)
        assert got == outcome(full_scan_classify, flag, complex, line.direction)
        raised += str(got).startswith("raised")
    return raised


class TestSampleGeneralLine:
    def test_deterministic_per_seed(self):
        cx = schlegel(generate("cube:3"), 0)
        q1 = sample_general_line(cx, 7)
        q2 = sample_general_line(cx, 7)
        q3 = sample_general_line(cx, 8)
        assert q1.direction == q2.direction
        assert q1.certificate == q2.certificate
        assert q3.direction != q1.direction or q3.certificate != q1.certificate

    def test_certificate_covers_all_positive_faces(self):
        # Every complex face of dimension 1..k-1 lies in a cell facet, so one
        # ok entry per cell facet covers them all.
        cx = schlegel(generate("cube:4"), 0)
        q = sample_general_line(cx, 0)
        assert q.certificate == tuple(
            CertificateEntry("facet-not-parallel", (i, h), True)
            for i, cell in enumerate(cx.cells)
            for h in range(len(cell.facets))
        )

    def test_direction_independent_of_every_face(self):
        # Re-verify the certificate from scratch: the direction must lie
        # outside the direction space of every positive-dimensional face.
        cx = schlegel(generate("simplex:4"), 1)
        q = sample_general_line(cx, 3)
        assert len(q.direction) == cx.dim
        assert any(q.direction)
        for c in range(1, cx.dim):
            for face in cx.faces(c):
                _, pts = lift_points(cx.face_points(face))
                span = SpanBuilder(cx.dim)
                for x in pts[1:]:
                    span.add(vsub(x, pts[0]))
                assert not span.contains(lift(q.direction))

    @pytest.mark.parametrize("spec", ["cube:3", "simplex:3", "crosspolytope:3"])
    def test_many_seeds_always_succeed(self, spec):
        cx = schlegel(generate(spec), 0)
        for seed in range(40):
            q = sample_general_line(cx, seed)
            assert all(e.ok for e in q.certificate)

    @pytest.mark.parametrize("facet", range(3))
    @pytest.mark.parametrize("spec", ["cube:3", "cube:4", "simplex:4", "crosspolytope:4"])
    def test_same_lines_as_the_per_face_reference(self, spec, facet):
        cx = schlegel(generate(spec), facet)
        for seed in range(6):
            assert sampled_direction(sample_general_line, cx, seed) == sampled_direction(
                reference_sample_general_line, cx, seed
            )

    @given(
        d=st.integers(3, 5),
        extra=st.integers(0, 3),
        hull_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_lines_as_the_reference_on_random_hulls(self, d, extra, hull_seed, seed):
        p = generate(f"random:{d},{d + 1 + extra},6", hull_seed)
        cx = schlegel(p, seed % len(p.facets))
        assert sampled_direction(sample_general_line, cx, seed) == sampled_direction(
            reference_sample_general_line, cx, seed
        )

    def test_accepted_line_has_no_zero_cell_sign(self):
        cx = schlegel(generate("cube:3"), 0)
        q = sample_general_line(cx, 0)
        cell_signs, _ = cx.facet_signs(q.direction)
        assert all(0 not in signs for signs in cell_signs)


class TestPlaceFlags:
    @pytest.mark.parametrize(
        "spec,count",
        [("cube:3", 40), ("simplex:3", 20), ("simplex:4", 50), ("cube:4", 144)],
    )
    def test_flag_counts(self, spec, count):
        # Two flags per proper face of the complex, which are in bijection
        # with the proper faces of the source polytope.
        p = generate(spec)
        cx = schlegel(p, 0)
        flags = place_flags(cx)
        assert len(flags) == count
        fv = f_vector(face_lattice(p))
        assert count == 2 * sum(fv[c] for c in range(p.dim - 1))

    def test_pairing_and_values(self):
        cx = schlegel(generate("cube:3"), 4)
        flags = place_flags(cx)
        for j in range(0, len(flags), 2):
            a, b = flags[j], flags[j + 1]
            assert a.base_face is b.base_face
            assert {a.orientation, b.orientation} == {1, -1}
            c = a.base_face.dimension
            assert a.value == b.value == Fraction((-1) ** c, 2)

    def test_base_points_in_carrier(self):
        cx = schlegel(generate("simplex:4"), 0)
        for flag in place_flags(cx):
            assert cx.carrier.contains(base_point(cx, flag))

    def test_per_dimension_counts(self):
        cx = schlegel(generate("cube:4"), 2)
        flags = place_flags(cx)
        for c in range(cx.dim):
            n = sum(1 for f in flags if f.base_face.dimension == c)
            assert n == 2 * len(cx.faces(c))


class TestClassifyFlag:
    def test_every_flag_classifies_uniquely(self):
        cx = schlegel(generate("cube:3"), 0)
        signs = cx.facet_signs(sample_general_line(cx, 0).direction)
        flags = place_flags(cx)
        kinds = [classify_flag(f, cx, signs) for f in flags]
        cells = [k for k in kinds if k != OUTSIDE]
        assert len(cells) + kinds.count(OUTSIDE) == len(flags)
        assert set(cells) <= set(range(cx.a))

    def test_wall_flags_split_between_cells(self):
        # The two flags of any (k-1)-face must land in different places:
        # an interior wall feeds its two incident cells, a boundary wall
        # feeds one cell and the outside.
        cx = schlegel(generate("cube:4"), 0)
        signs = cx.facet_signs(sample_general_line(cx, 2).direction)
        flags = place_flags(cx)
        seen_boundary = seen_interior = False
        for j in range(0, len(flags), 2):
            a, b = flags[j], flags[j + 1]
            if a.base_face.dimension != cx.dim - 1:
                continue
            ka, kb = classify_flag(a, cx, signs), classify_flag(b, cx, signs)
            assert ka != kb
            if OUTSIDE in (ka, kb):
                seen_boundary = True
            else:
                seen_interior = True
        assert seen_boundary and seen_interior

    def test_carrier_corner_has_an_outside_flag(self):
        cx = schlegel(generate("cube:3"), 3)
        signs = cx.facet_signs(sample_general_line(cx, 0).direction)
        flags = place_flags(cx)
        corners = set(cx.carrier.vertices)
        checked = 0
        for j in range(0, len(flags), 2):
            a, b = flags[j], flags[j + 1]
            if a.base_face.dimension == 0 and base_point(cx, a) in corners:
                assert OUTSIDE in (classify_flag(a, cx, signs), classify_flag(b, cx, signs))
                checked += 1
        assert checked == len(corners)


class TestIncidenceLookup:
    # classify_flag finds the cell by face incidence and a per-line sign
    # table; the full scan over all cells is the reference it must match.
    @given(
        d=st.integers(3, 5),
        extra=st.integers(0, 3),
        hull_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_full_scan_on_certified_lines(self, d, extra, hull_seed, seed):
        p = generate(f"random:{d},{d + 1 + extra},6", hull_seed)
        cx = schlegel(p, seed % len(p.facets))
        assert assert_same_as_full_scan(cx, sample_general_line(cx, seed)) == 0

    @pytest.mark.parametrize(
        "spec,facets", [("cube:3", range(6)), ("simplex:4", [0])], ids=["cube:3", "simplex:4"]
    )
    def test_matches_full_scan_on_every_small_direction(self, spec, facets):
        # Uncertified lines: some are parallel to a face, so a facet normal
        # has sign 0 against them, and some make the full scan raise.
        p = generate(spec)
        raised = 0
        for facet in facets:
            cx = schlegel(p, facet)
            for q in itertools.product((-1, 0, 1), repeat=cx.dim):
                if not is_zero(q):
                    line = GeneralLine(tuple(map(Fraction, q)), ())
                    raised += assert_same_as_full_scan(cx, line)
        assert raised > 0


class TestProjectionCriterion:
    # Every Schlegel run checks each cell and the outside face by face
    # against its shadow: a (k-1)-face takes one flag, a lower face one
    # exactly when its image is not a face of the cell's shadow (for the
    # outside: two when it is, one when not).
    @pytest.mark.parametrize(
        "spec,seed", [("cube:3", 0), ("simplex:3", 1), ("simplex:4", 0), ("cube:4", 0)]
    )
    def test_holds_exhaustively(self, spec, seed):
        report = verify_proof_schlegel(generate(spec), 0, seed)
        assert report.passed
        assert report.failures == []

    def test_corrupted_shadow_is_caught(self, flip_first_shadow):
        # Shadows are built cell by cell, so the first one is cell 0's.
        flip_first_shadow(schlegel_flags, "project_along")
        # Its face check names the flipped vertex by its point, in rational
        # strings.
        report = verify_proof_schlegel(generate("cube:3"), 0, 0)
        assert report.failures == ["cell 0: dim-0 face [(0, 0)] took 1 flags, expected 0"]

    def test_shadow_from_wrong_direction_is_caught(self, monkeypatch):
        # A shadow taken along a different line disagrees with the flag
        # census somewhere.
        cx = schlegel(generate("cube:3"), 0)
        q = sample_general_line(cx, 0)
        q_other = sample_general_line(cx, 11)
        assert q.direction != q_other.direction
        monkeypatch.setattr(
            schlegel_flags,
            "project_along",
            lambda src, direction: project_along(src, q_other.direction),
        )
        assert not verify_proof_schlegel(generate("cube:3"), 0, 0).passed


class TestVerifyProof:
    @pytest.mark.parametrize(
        "spec,cells,per_cell,total,flags",
        [
            ("cube:3", 5, -1, -4, 40),
            ("simplex:3", 3, -1, -2, 20),
            ("crosspolytope:3", 7, -1, -6, 36),
            ("simplex:4", 4, 1, 5, 50),
            ("cube:4", 7, 1, 8, 144),
        ],
    )
    def test_known_polytopes(self, spec, cells, per_cell, total, flags):
        p = generate(spec)
        report = verify_proof_schlegel(p, 0, seed=0)
        assert report.passed
        assert report.failures == []
        assert report.cell_count == cells
        assert report.expected_per_cell == per_cell
        assert all(v == per_cell for v in report.per_cell_sums.values())
        assert report.outside_sum == 1
        assert report.total == total
        assert report.total_by_base == report.total_by_classification == total
        assert report.lhs_needed == report.rhs_needed == total
        assert report.flag_count == flags
        # Grand total closes the loop: a * (-1)^(k-1) + 1.
        k = p.dim - 1
        assert report.total == cells * (-1) ** (k - 1) + 1

    def test_seed_invariance_of_sums(self):
        p = generate("cube:3")
        reports = [verify_proof_schlegel(p, 2, seed=s) for s in range(8)]
        assert all(r.passed for r in reports)
        assert len({r.total for r in reports}) == 1
        assert len({tuple(sorted(r.per_cell_sums.items())) for r in reports}) == 1

    def test_facet_choice_invariance(self):
        p = generate("simplex:4")
        totals = {verify_proof_schlegel(p, i, seed=3).total for i in range(5)}
        assert totals == {5}

    def test_random_polytope(self):
        p = generate("random:3,8,7", 12)
        report = verify_proof_schlegel(p, 0, seed=12)
        assert report.passed
        nf = len(p.facets)
        assert report.total == -(nf - 1) + 1

    def test_general_position_raise_names_the_seed(self, monkeypatch):
        # A line along a carrier edge is not certified and makes a flag
        # classification raise; the run adds its seed to the direct text.
        p = generate("cube:3")
        cx = schlegel(p, 0)
        line = GeneralLine((Fraction(1), Fraction(0)), ())
        signs = cx.facet_signs(line.direction)
        raises = [outcome(classify_flag, f, cx, signs) for f in place_flags(cx)]
        first = next(r for r in raises if str(r).startswith("raised: "))
        monkeypatch.setattr(schlegel_flags, "sample_general_line", lambda complex, seed: line)
        with pytest.raises(GeneralPositionError) as raised:
            verify_proof_schlegel(p, 0, seed=7)
        assert str(raised.value) == first.removeprefix("raised: ") + " (seed 7)"

    def test_report_records_run_metadata(self):
        p = generate("cube:3")
        report = verify_proof_schlegel(p, 5, seed=9)
        assert report.dimension == 3
        assert report.facet_index == 5
        assert report.seed == 9
