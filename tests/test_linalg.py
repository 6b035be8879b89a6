"""Exact linear algebra: fixed examples plus algebraic invariants."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import cli, folded_flags, linalg, polytope
from eulerlab.errors import DimensionMismatchError
from eulerlab.linalg import (
    AffineSubspace,
    Hyperplane,
    SpanBuilder,
    affine_basis,
    affine_dim,
    affine_hull,
    dot,
    format_rational,
    hyperplane_through,
    lift,
    lift_points,
    linear_feasible,
    nullspace,
    parse_rational,
    rank,
    rational_point,
    reduce_lifted,
    solve_linear,
    vsub,
)
from spans import (
    GaussJordanSpan,
    line_hyperplane_intersection,
    meets_line,
    rational_frame,
    through,
    to_working,
    vec,
)
import volumes
from volumes import det

F = Fraction


def rationals(max_num=30, max_den=7):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def sparse_rationals():
    """Rationals with many zeros and small integers, so rank drops often."""
    return st.one_of(st.just(F(0)), st.integers(-2, 2).map(F), rationals())


def matrices(max_rows=5, max_cols=5, entries=rationals):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(entries(), min_size=n, max_size=n).map(tuple),
            min_size=1,
            max_size=max_rows,
        )
    )


def square_matrices(max_n=4):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(
            st.lists(sparse_rationals(), min_size=n, max_size=n).map(tuple),
            min_size=n,
            max_size=n,
        )
    )


def plain_rref(rows, width):
    """Reference: plain Fraction Gauss-Jordan; (nonzero rref rows, pivot columns)."""
    mat = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [a / mat[r][col] for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def plain_nullspace(rows, width):
    mat, pivots = plain_rref(rows, width)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [F(0)] * width
        v[fc] = F(1)
        for row, pc in zip(mat, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def plain_solve(rows, rhs):
    n = len(rows[0])
    mat, pivots = plain_rref([(*r, b) for r, b in zip(rows, rhs)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [F(0)] * n
    for row, col in zip(mat, pivots):
        x[col] = row[n]
    return tuple(x)


def lines_and_hulls(max_width=4, max_points=4):
    """(point, direction, points): a line and the affine hull of points."""

    def vectors(n):
        return st.lists(sparse_rationals(), min_size=n, max_size=n).map(tuple)

    return st.integers(1, max_width).flatmap(
        lambda n: st.tuples(
            vectors(n), vectors(n), st.lists(vectors(n), min_size=1, max_size=max_points)
        )
    )


def hull_contains(hull, point):
    """Reference: whether point lies on the affine subspace."""
    base, basis = rational_frame(hull)
    return rank([*basis, vsub(point, base)]) == hull.dim


def plain_line_meets_affine(point, direction, hull):
    """Reference: the line {point + t*direction} meets base + span(basis)
    exactly when point - base lies in span(basis + [direction])."""
    base, basis = rational_frame(hull)
    rows = [*basis, direction]
    return rank([*rows, vsub(point, base)]) == rank(rows)


def leibniz_det(rows):
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def plain_linear_feasible(rows, rhs):
    """Reference: phase-1 simplex with Bland's rule over Fractions, with
    y = u - w, one slack per row and an artificial for each row whose rhs
    is negative; every reduced cost is recomputed from the cost vector."""
    m = len(rows)
    if m == 0:
        return tuple()
    n = len(rows[0])
    ncols = 2 * n + m
    tableau = []
    basis = []
    art_cols = []
    for i in range(m):
        row = [F(c) for c in rows[i]]
        b = F(rhs[i])
        sign = 1 if b >= 0 else -1
        line = [sign * c for c in row] + [-sign * c for c in row] + [F(0)] * m
        line[2 * n + i] = F(sign)
        tableau.append([*line, sign * b])
        basis.append(2 * n + i if sign == 1 else -1)
    for i in range(m):
        if basis[i] == -1:
            col = ncols + len(art_cols)
            art_cols.append(col)
            for r in range(m):
                tableau[r].insert(col, F(1 if r == i else 0))
            basis[i] = col
    total = ncols + len(art_cols)
    cost = [F(0)] * total
    for c in art_cols:
        cost[c] = F(1)

    def reduced_cost(j):
        return cost[j] - sum(cost[basis[i]] * tableau[i][j] for i in range(m))

    while True:
        enter = next((j for j in range(total) if reduced_cost(j) < 0), None)
        if enter is None:
            break
        ratios = [
            (tableau[i][total] / tableau[i][enter], basis[i], i)
            for i in range(m)
            if tableau[i][enter] > 0
        ]
        _, _, leave = min(ratios)
        p = tableau[leave][enter]
        tableau[leave] = [a / p for a in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        basis[leave] = enter
    if sum(cost[basis[i]] * tableau[i][total] for i in range(m)) != 0:
        return None
    y = [F(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            y[bcol] += tableau[i][total]
        elif bcol < 2 * n:
            y[bcol - n] -= tableau[i][total]
    return tuple(y)


@st.composite
def lp_systems(draw, max_width=4, max_rows=7):
    """(rows, rhs) with zero rows, duplicate and parallel rows, rhs 0, and
    all-zero columns and columns equal or parallel to an earlier one."""
    n = draw(st.integers(1, max_width))
    rows, rhs = [], []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["fresh", "zero", "copy"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            row = tuple(draw(st.lists(sparse_rationals(), min_size=n, max_size=n)))
            b = draw(st.one_of(st.just(F(0)), rationals(6, 4)))
        elif kind == "zero":
            row, b = (F(0),) * n, draw(st.sampled_from([F(-1), F(0), F(1)]))
        else:
            k = draw(st.integers(0, len(rows) - 1))
            s = draw(st.one_of(st.just(F(1)), rationals(4, 3).filter(bool)))
            row = tuple(s * x for x in rows[k])
            b = draw(st.one_of(st.just(s * rhs[k]), st.just(F(0)), rationals(6, 4)))
        rows.append(row)
        rhs.append(b)
    for j in range(1, n):
        kind = draw(st.sampled_from(["fresh", "zero", "copy"]))
        if kind == "zero":
            rows = [(*row[:j], F(0), *row[j + 1 :]) for row in rows]
        elif kind == "copy":
            k = draw(st.integers(0, j - 1))
            s = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 3)]))
            rows = [(*row[:j], s * row[k], *row[j + 1 :]) for row in rows]
    if draw(st.booleans()):
        rows = [(F(0), *row[1:]) for row in rows]
    return lifted_system(rows, rhs)


def lifted_system(rows, rhs):
    """Rational rows and rhs as linear_feasible takes them: each row lifted
    to ints together with its rhs, a positive scale that keeps its set."""
    lines = [lift([*row, b]) for row, b in zip(rows, rhs, strict=True)]
    return [line[:-1] for line in lines], [line[-1] for line in lines]


def feasible(rows, rhs):
    """linear_feasible on a rational system, lifted first."""
    return linear_feasible(*lifted_system(rows, rhs))


def oracle_systems(p):
    """Every system the brute-force face oracle hands to linear_feasible on p."""
    systems = []

    def record(rows, rhs):
        systems.append((rows, rhs))
        return linear_feasible(rows, rhs)

    with mock.patch.object(polytope, "linear_feasible", record):
        polytope.brute_force_face_lattice(p)
    return systems


def assert_matches_reference(rows, rhs):
    rows, rhs = lifted_system(rows, rhs)
    y = linear_feasible(rows, rhs)
    assert (y is None) == (plain_linear_feasible(rows, rhs) is None)
    if y is not None:
        assert all(dot(r, y) <= b for r, b in zip(rows, rhs))


# Bareiss elimination that skips rows with a 0 in the pivot column loses
# exact division on this matrix.
SKIPPED_ROW_CASE = [vec(0, 2, -1), vec(2, -1, 0), vec(-1, -2, 2)]


class TestRationalText:
    def test_round_trip(self):
        for s in ["0", "7", "-3", "22/7", "-1/2"]:
            assert format_rational(parse_rational(s)) == s

    def test_non_canonical_parses(self):
        assert parse_rational("4/2") == 2

    @given(
        st.from_regex(linalg._RATIONAL_RE, fullmatch=True),
        st.sampled_from(["", " ", "\t", "\n "]),
        st.sampled_from(["", " ", "\n"]),
    )
    def test_matches_fraction_on_every_literal(self, text, before, after):
        padded = before + text + after
        assert parse_rational(padded) == Fraction(padded.strip())

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    # Arabic-Indic three: Python's int() and \d take it as a digit, but a
    # coordinate is written in ASCII digits only.
    @pytest.mark.parametrize("text", ["\u0663", "1/1\u0663", "1/\u0663"])
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(text)


class TestRank:
    def test_identity(self):
        assert rank([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]) == 3

    def test_proportional_rows(self):
        assert rank([vec(2, 4), vec(1, 2), vec(-3, -6)]) == 1

    def test_empty(self):
        assert rank([]) == 0

    def test_zero_rows(self):
        assert rank([vec(0, 0), vec(0, 0)]) == 0

    def test_rows_with_zero_in_pivot_column(self):
        assert rank(SKIPPED_ROW_CASE) == 3

    @given(st.one_of(matrices(), matrices(entries=sparse_rationals)))
    def test_matches_plain_elimination(self, rows):
        assert rank(rows) == len(plain_rref(rows, len(rows[0]))[1])

    @given(matrices(), st.randoms(use_true_random=False))
    def test_row_permutation_invariant(self, rows, rng):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(shuffled) == rank(rows)

    @given(matrices(), st.lists(st.sampled_from([1, 2, -1, 5]), min_size=5, max_size=5))
    def test_row_scaling_invariant(self, rows, scales):
        scaled = [
            tuple(scales[i % len(scales)] * x for x in row)
            for i, row in enumerate(rows)
        ]
        assert rank(scaled) == rank(rows)


class TestSolveAndNullspace:
    def test_unique_solution(self):
        x = solve_linear([vec(2, 1), vec(1, -1)], [F(5), F(1)])
        assert x == vec(2, 1)

    def test_inconsistent(self):
        assert solve_linear([vec(1, 1), vec(2, 2)], [F(1), F(3)]) is None

    @given(matrices())
    def test_nullspace_vectors_annihilate(self, rows):
        width = len(rows[0])
        basis = nullspace(rows, width)
        assert len(basis) == width - rank(rows)
        for v in basis:
            for row in rows:
                assert dot(row, v) == 0
        assert rank(basis) == len(basis)

    @given(st.one_of(matrices(), matrices(entries=sparse_rationals)))
    def test_nullspace_matches_plain_rref(self, rows):
        width = len(rows[0])
        assert nullspace(rows, width) == plain_nullspace(rows, width)

    @given(st.one_of(matrices(), matrices(entries=sparse_rationals)))
    def test_integer_nullspace_over_d_is_the_nullspace(self, rows):
        # Each integer basis vector holds the span's |d| > 0 in its free
        # column; over it, the vector is the plain RREF basis vector, which
        # holds 1 there.
        width = len(rows[0])
        span = SpanBuilder(width)
        for row in rows:
            span.add(lift(row))
        free = [c for c in range(width) if c not in plain_rref(rows, width)[1]]
        basis = span.integer_nullspace()
        assert len(basis) == len(free)
        assert len({v[fc] for v, fc in zip(basis, free)}) <= 1
        assert all(v[fc] > 0 and all(type(x) is int for x in v) for v, fc in zip(basis, free))
        over_d = [tuple(F(x, v[fc]) for x in v) for v, fc in zip(basis, free)]
        assert over_d == plain_nullspace(rows, width)

    @given(matrices(entries=sparse_rationals), st.lists(sparse_rationals(), min_size=5, max_size=5))
    def test_solve_matches_plain_rref(self, rows, rhs):
        rhs = rhs[: len(rows)]
        assert solve_linear(rows, rhs) == plain_solve(rows, rhs)

    @given(matrices())
    def test_solve_consistent_systems(self, rows):
        width = len(rows[0])
        target = tuple(F(i + 1, 3) for i in range(width))
        rhs = [dot(r, target) for r in rows]
        x = solve_linear(rows, rhs)
        assert x is not None
        assert [dot(r, x) for r in rows] == rhs


class TestDet:
    def test_rows_with_zero_in_pivot_column(self):
        assert det(SKIPPED_ROW_CASE) == -3

    def test_empty_matrix(self):
        assert det([]) == 1

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            det([vec(1, 2)])

    @given(square_matrices())
    def test_matches_leibniz(self, rows):
        assert det(rows) == leibniz_det(rows)


class TestSpanBuilder:
    def test_incremental_matches_rank(self):
        rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 3, 4)]
        span = SpanBuilder(3)
        grew = [span.add(r) for r in rows]
        assert grew == [True, False, True, False]
        assert span.rank == 2
        assert span.contains((3, 7, 10))
        assert not span.contains((0, 0, 1))

    @given(
        matrices(max_rows=7, entries=sparse_rationals),
        st.lists(st.lists(sparse_rationals(), min_size=5, max_size=5), max_size=4),
    )
    def test_matches_plain_rref(self, rows, probes):
        # rank runs on SpanBuilder too, so the reference is plain_rref.
        width = len(rows[0])

        def plain_rank(some):
            return len(plain_rref(some, width)[1])

        span = SpanBuilder(width)
        for i, row in enumerate(rows):
            assert span.add(lift(row)) == (plain_rank(rows[: i + 1]) > plain_rank(rows[:i]))
        assert sorted(span._pivots) == plain_rref(rows, width)[1]
        for v in probes:
            v = tuple(v[:width])
            assert span.contains(lift(v)) == (plain_rank([*rows, v]) == plain_rank(rows))

    @pytest.mark.parametrize("ragged", [[vec(1, 2, 3), vec(1, 2)], [vec(1, 2), vec(1, 2, 3)]])
    def test_rejects_ragged_rows(self, ragged):
        width = len(ragged[0])
        span = SpanBuilder(width)
        span.add(lift(ragged[0]))
        with pytest.raises(DimensionMismatchError):
            span.add(lift(ragged[1]))
        with pytest.raises(DimensionMismatchError):
            span.contains(lift(ragged[1]))
        assert span.rank == 1
        with pytest.raises(DimensionMismatchError):
            rank(ragged)
        with pytest.raises(DimensionMismatchError):
            nullspace(ragged, width)
        with pytest.raises(DimensionMismatchError):
            solve_linear(ragged, [F(1), F(2)])


BIG = 10**40


def span_entries():
    """Ints with many zeros, small values and values near ±10^40."""
    return st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.integers(-3, 3).map(lambda k: BIG + k),
        st.integers(-3, 3).map(lambda k: -BIG + k),
    )


@st.composite
def span_streams(draw):
    """(width, steps): each step is a row, whether to read the spans after
    it, and a row for a copy, or None.  A row has zeros in some fixed
    columns, and may be an int combination of the rows before it."""
    width = draw(st.integers(1, 8))
    zero = draw(st.sets(st.integers(0, width - 1), max_size=width - 1))
    rows, steps = [], []
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
        else:
            row = [0 if j in zero else draw(span_entries()) for j in range(width)]
        rows.append(row)
        fork = draw(st.none() | st.lists(span_entries(), min_size=width, max_size=width))
        steps.append((row, draw(st.booleans()), fork))
    return width, steps


def assert_same_reads(span, ref, probe):
    assert span.rank == ref.rank and span._pivots == ref._pivots
    assert span._d == ref._d and span._rows == ref._rows
    assert span.integer_nullspace() == ref.integer_nullspace()
    assert span._reduce(probe) == ref._reduce(probe)
    assert span.contains(probe) == ref.contains(probe)


class TestEchelonSpan:
    # SpanBuilder holds forward (Bareiss) echelon rows and builds d times the
    # RREF on first read; GaussJordanSpan kept that RREF current on every
    # add.  Every result and every read must be the same int.
    @given(span_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_gauss_jordan(self, stream):
        width, steps = stream
        span, ref = SpanBuilder(width), GaussJordanSpan(width)
        for row, read, fork in steps:
            assert span.contains(row) == ref.contains(row)
            assert span.add(row) == ref.add(row)
            assert span.rank == ref.rank and span._pivots == ref._pivots
            if read:
                assert_same_reads(span, ref, row)
            if fork is not None:
                # The oracle's pattern: read, copy, add to the copy, read both.
                copied, ref_copied = span.copy(), ref.copy()
                assert copied.add(fork) == ref_copied.add(fork)
                assert_same_reads(copied, ref_copied, row)
                assert_same_reads(span, ref, fork)

    def test_copy_drops_only_its_own_cache(self):
        span = SpanBuilder(3)
        span.add([2, 1, 0])
        rows = span._rows
        other = span.copy()
        assert other._rows is rows
        other.add([0, 3, 1])
        assert span._rows is rows and other._rows == [[6, 0, -1], [0, 6, 2]]

    @given(
        lines_and_hulls(max_width=6, max_points=6),
        st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6), max_size=4),
        st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_charts_match_gauss_jordan(self, drawn, ys, scale):
        # The same frame charted through SpanBuilder and through the Gauss-
        # Jordan span: the same ints, or both refuse the same point.
        _, _, pts = drawn
        sub = affine_hull(pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "SpanBuilder", GaussJordanSpan)
            ref = AffineSubspace(sub.lifted)
            ref._chart  # built on the Gauss-Jordan span
        n = len(pts[0])
        for y in ([0] * n, *(y[:n] for y in ys)):
            try:
                expected = ref.chart(scale, [y])
            except ValueError:
                with pytest.raises(ValueError, match="point not on the affine subspace"):
                    sub.chart(scale, [y])
            else:
                assert sub.chart(scale, [y]) == expected

    @given(matrices(max_rows=6, max_cols=6, entries=sparse_rationals), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_nullspace_and_det_match_gauss_jordan(self, rows, data):
        width = len(rows[0])
        rhs = data.draw(st.lists(sparse_rationals(), min_size=len(rows), max_size=len(rows)))
        square = rows[:width] if len(rows) >= width else None
        got = nullspace(rows, width), solve_linear(rows, rhs), square and det(square)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "SpanBuilder", GaussJordanSpan)
            mp.setattr(volumes, "SpanBuilder", GaussJordanSpan)
            assert got == (nullspace(rows, width), solve_linear(rows, rhs), square and det(square))


class TestIntKernel:
    # SpanBuilder takes int rows only; rationals are lifted once, where they
    # enter linalg, and a Fraction row would be floored, not refused.
    @pytest.fixture
    def rows_seen(self, monkeypatch):
        seen = []
        for name in ("add", "contains"):

            def wrapper(self, v, method=getattr(SpanBuilder, name)):
                seen.append(v)
                return method(self, v)

            monkeypatch.setattr(SpanBuilder, name, wrapper)
        return seen

    @pytest.mark.parametrize(
        "command,spec,options",
        [
            ("check", "crosspolytope:5", []),
            ("check", "random:5,20,10", []),
            ("verify", "cube:4", ["--proof", "both", "--seed", "0"]),
        ],
    )
    def test_runs_hand_the_span_ints(self, command, spec, options, rows_seen, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        assert cli.main(["generate", spec, "--seed", "0", "-o", path]) == 0
        rows_seen.clear()
        assert cli.main([command, path, *options]) == 0
        capsys.readouterr()
        assert rows_seen
        assert all(type(x) is int for row in rows_seen for x in row)

    def test_oracle_hands_the_span_ints(self, rows_seen):
        polytope.brute_force_face_lattice(polytope.generate("crosspolytope:4"))
        assert rows_seen
        assert all(type(x) is int for row in rows_seen for x in row)

    def test_check_lifts_no_row(self, monkeypatch, tmp_path, capsys):
        # A check lifts its point set once and hands ints on from there; a
        # change that moves these counts on purpose restates them and says
        # why.
        counts = Counter()
        for name in ("lift", "lift_points"):

            def wrapper(*args, name=name, fn=getattr(linalg, name)):
                counts[name] += 1
                return fn(*args)

            for module in (linalg, polytope, folded_flags):
                monkeypatch.setattr(module, name, wrapper, raising=False)
        path = str(tmp_path / "p.json")
        assert cli.main(["generate", "cube:5", "-o", path]) == 0
        counts.clear()
        assert cli.main(["check", path]) == 0
        capsys.readouterr()
        assert counts == {"lift_points": 1}


@st.composite
def points_and_unimodular_maps(draw):
    """Rational points in d = 1..4, often affinely dependent, and the rows
    of an integer matrix of determinant +-1: a row permutation of a unit
    lower-triangular matrix."""
    d = draw(st.integers(1, 4))
    coord = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=7))
    lower = [[draw(st.integers(-3, 3)) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    return points, draw(st.permutations(lower))


class TestAffineBasis:
    def test_skips_points_in_the_span_so_far(self):
        pts = [(0, 0), (1, 1), (2, 2), (0, 1), (5, 5)]
        assert affine_basis(pts) == [0, 1, 3]

    def test_no_points(self):
        with pytest.raises(ValueError):
            affine_basis([])

    @pytest.mark.parametrize("odd", [(1,), (1, 0, 0)])
    def test_points_of_mixed_lengths(self, odd):
        with pytest.raises(DimensionMismatchError, match="points of lengths 2 and"):
            affine_basis([(0, 0), odd])

    # The greedy choice keeps a point exactly when it leaves the affine span
    # of the points kept before it.  A positive scale and a unimodular map
    # move no affine dependency, so the rational points' lifted ints and
    # those ints mapped give the same indices, and affine_hull is spanned by
    # those points.
    @given(points_and_unimodular_maps())
    @settings(max_examples=200, deadline=None)
    def test_same_indices_lifted_mapped_and_in_affine_hull(self, case):
        points, rows = case
        _, lifted = lift_points(points)
        basis = affine_basis(lifted)
        base = points[0]
        for i in range(1, len(points)):
            before = [vsub(points[j], base) for j in basis if 0 < j < i]
            grows = rank([*before, vsub(points[i], base)]) > rank(before)
            assert (i in basis) == grows
        mapped = [tuple(sum(a * x for a, x in zip(row, q)) for row in rows) for q in lifted]
        assert affine_basis(mapped) == basis
        hull = affine_hull(points)
        assert rational_frame(hull) == (base, tuple(vsub(points[i], base) for i in basis[1:]))
        assert hull.lifted == reduce_lifted(*lift_points([base, *rational_frame(hull)[1]]))


class TestAffine:
    def test_single_point(self):
        sub = affine_hull([vec(3, 4)])
        assert sub.dim == 0
        assert hull_contains(sub, vec(3, 4))
        assert not hull_contains(sub, vec(3, 5))

    def test_collinear_triple(self):
        sub = affine_hull([vec(0, 0), vec(1, 1), vec(2, 2)])
        assert sub.dim == 1
        assert hull_contains(sub, vec(-5, -5))

    def test_plane_triple(self):
        assert affine_hull([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)]).dim == 2

    def test_affine_dim_empty(self):
        assert affine_dim([]) == -1

    def test_no_points(self):
        with pytest.raises(ValueError):
            affine_hull([])

    @given(st.lists(st.lists(rationals(), min_size=3, max_size=3).map(tuple), min_size=1, max_size=6))
    def test_translation_invariant(self, pts):
        shift = vec(5, -7, F(1, 3))
        moved = [tuple(a + b for a, b in zip(p, shift)) for p in pts]
        assert affine_dim(moved) == affine_dim(pts)


    @given(
        lines_and_hulls(max_width=5, max_points=5),
        st.lists(sparse_rationals(), max_size=5),
    )
    @settings(max_examples=150)
    def test_to_working_matches_plain_solve(self, drawn, coeffs):
        # A point of the subspace charts to its coefficients; any other
        # point charts as plain_solve says, or raises when it has no chart.
        # The int chart and the rational reference agree on every point.
        point, _, pts = drawn
        sub = affine_hull(pts)
        base, basis = rational_frame(sub)
        rows = [tuple(b[j] for b in basis) for j in range(len(point))]
        coeffs = (coeffs + [F(0)] * sub.dim)[: sub.dim]
        on = base
        for c, b in zip(coeffs, basis):
            on = tuple(x + c * y for x, y in zip(on, b))
        assert to_working(sub, on) == chart_point(sub, on) == tuple(coeffs)
        if sub.dim:
            expected = plain_solve(rows, vsub(point, base))
        else:
            expected = () if point == base else None
        if expected is None:
            for chart in (to_working, chart_point):
                with pytest.raises(ValueError, match="point not on the affine subspace"):
                    chart(sub, point)
        else:
            assert to_working(sub, point) == chart_point(sub, point) == expected

    @given(lines_and_hulls(max_width=5, max_points=5), st.integers(1, 6))
    @settings(max_examples=100)
    def test_chart_of_many_points_at_one_scale(self, drawn, m):
        # Charting every point at once, at a scale m times their lcm, gives
        # the points to_working gives, over a positive denominator.
        _, _, pts = drawn
        sub = affine_hull(pts)
        scale, lifted = lift_points(pts)
        den, charted = sub.chart(m * scale, [tuple(m * c for c in q) for q in lifted])
        assert den > 0
        assert [rational_point((*w, den)) for w in charted] == [to_working(sub, x) for x in pts]

    def test_frame_charts_with_one_elimination(self, work_counts):
        sub = affine_hull([vec(1, 2, 3, 4), vec(2, 2, 3, 5), vec(1, F(1, 2), 3, 4)])
        chart_point(sub, vec(1, 2, 3, 4))
        work_counts.clear()
        for t in range(5):
            assert chart_point(sub, vec(1 + t, 2 - 3 * t, 3, 4 + t)) == (F(t), F(2 * t))
        assert work_counts["pivot"] == work_counts["step"] == 0


def chart_point(sub, x):
    """x charted by sub.chart on ints: x lifted, the chart read back as a
    rational point."""
    scale, (q,) = lift_points([x])
    den, (w,) = sub.chart(scale, [q])
    return rational_point((*w, den))


class TestReduceLifted:
    @given(st.lists(st.tuples(rationals(), rationals()), max_size=5), st.integers(1, 12))
    def test_is_lift_points_at_any_scale(self, points, m):
        scale, lifted = lift_points(points)
        scaled = [tuple(m * c for c in q) for q in lifted]
        assert reduce_lifted(m * scale, scaled) == (scale, lifted)


class TestHyperplane:
    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Hyperplane(vec(0, 0), F(1))

    def test_side_signs(self):
        h = Hyperplane(vec(0, 0, 1), F(2))
        assert h.side(vec(9, 9, 2)) == 0
        assert h.side(vec(0, 0, 3)) > 0
        assert h.side(vec(0, 0, 0)) < 0

    def test_through_points_is_canonical(self):
        # Any two points of x + 2y = 3, and any point beneath, give the plane
        # as ints with gcd 1; a point on the other side flips every sign.
        below = Hyperplane((1, 2), 3)
        for pts in [[vec(3, 0), vec(1, 1)], [vec(F(1, 2), F(5, 4)), vec(-9, 6)]]:
            for beneath in [vec(0, 0), vec(-F(1, 3), 1)]:
                h = hyperplane_through(pts, beneath)
                assert h == below
                assert all(type(x) is int for x in (*h.normal, h.offset))
            assert hyperplane_through(pts, vec(5, 5)) == Hyperplane((-1, -2), -3)

    def test_through_points_orients_away_from_beneath(self):
        h = hyperplane_through([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)], vec(0, 0, 0))
        assert h.side(vec(0, 0, 0)) < 0
        assert h.side(vec(1, 1, 1)) > 0
        for p in [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]:
            assert h.side(p) == 0

    def test_through_points_degenerate(self):
        with pytest.raises(ValueError):
            hyperplane_through([vec(0, 0, 0), vec(1, 0, 0)], vec(0, 1, 0))


class TestLineIntersections:
    def test_crossing(self):
        h = Hyperplane(vec(1, 0, 0), F(4))
        p = line_hyperplane_intersection(vec(0, 1, 2), vec(2, 0, 1), h)
        assert p == vec(4, 1, 4)

    def test_parallel_is_none(self):
        h = Hyperplane(vec(0, 0, 1), F(1))
        assert line_hyperplane_intersection(vec(0, 0, 0), vec(1, 1, 0), h) is None

    def test_line_within_plane_is_parallel_case(self):
        h = Hyperplane(vec(0, 0, 1), F(0))
        assert line_hyperplane_intersection(vec(1, 2, 0), vec(3, 4, 0), h) is None

    @given(rationals(), rationals())
    def test_scaling_direction_keeps_point(self, a, b):
        h = Hyperplane(vec(1, 2, -1), F(3))
        base, d = vec(0, 0, 0), vec(1, 1, 1)
        p = line_hyperplane_intersection(base, d, h)
        for s in (a, b):
            if s != 0:
                assert line_hyperplane_intersection(base, vec(s, s, s), h) == p

    def test_line_meets_affine(self):
        pts = [vec(0, 0, 0), vec(1, 0, 0)]
        seg = affine_hull(pts)
        span = through(pts)
        up = vec(0, 1, 0)
        for point, meets in ((vec(0, -1, 0), True), (vec(0, -1, 1), False)):
            assert plain_line_meets_affine(point, up, seg) == meets
            assert meets_line(span, vsub(point, pts[0]), up) == meets
        assert isinstance(seg, AffineSubspace)

    @given(lines_and_hulls())
    @settings(max_examples=300)
    def test_span_rule_matches_rank_rule(self, case):
        # The reference folded sampler asks the span rule only for directions
        # off the span, but it agrees with the rank rule for every direction.
        point, direction, pts = case
        meets = meets_line(through(pts), vsub(point, pts[0]), direction)
        assert meets == plain_line_meets_affine(point, direction, affine_hull(pts))


class TestLinearFeasible:
    def test_simple_box(self):
        rows = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)]
        rhs = [F(1), F(1), F(1), F(1)]
        y = feasible(rows, rhs)
        assert y is not None
        assert all(dot(r, y) <= b for r, b in zip(rows, rhs))

    def test_empty_box(self):
        rows = [vec(1), vec(-1)]
        assert feasible(rows, [F(-1), F(0)]) is None

    def test_negative_rhs_feasible(self):
        rows = [vec(1, 1), vec(-1, 0), vec(0, -1)]
        rhs = [F(-3), F(10), F(10)]
        y = feasible(rows, rhs)
        assert y is not None
        assert all(dot(r, y) <= b for r, b in zip(rows, rhs))

    def test_equality_trap(self):
        # x <= 0 and -x <= 0 force x = 0, then x >= 1 is impossible.
        rows = [vec(1), vec(-1), vec(-1)]
        assert feasible(rows, [F(0), F(0), F(-1)]) is None

    @given(
        st.lists(
            st.tuples(st.lists(rationals(5, 3), min_size=3, max_size=3), rationals(5, 3)),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_witness_or_certified_empty(self, cons, rng):
        rows = [tuple(r) for r, _ in cons if any(r)]
        if not rows:
            return
        rhs = [b for r, b in cons if any(r)]
        y = feasible(rows, rhs)
        if y is not None:
            assert all(dot(r, y) <= b for r, b in zip(rows, rhs))
        else:
            # Infeasibility cross-check on a coarse rational grid.
            probes = [
                tuple(Fraction(rng.randint(-20, 20), 2) for _ in range(3))
                for _ in range(50)
            ]
            for p in probes:
                assert any(dot(r, p) > b for r, b in zip(rows, rhs))

    def test_witness_respects_strict_margin_encoding(self):
        # Strict feasibility of {a·y < 0} is encoded as {a·y <= -1} by scaling.
        rows = [vec(1, 1), vec(-2, 1)]
        y = feasible(rows, [F(-1), F(-1)])
        assert y is not None
        assert dot(rows[0], y) <= -1 and dot(rows[1], y) <= -1

    def test_zero_row(self):
        assert feasible([vec(0, 0)], [F(-1)]) is None
        y = feasible([vec(0, 0), vec(1, 1)], [F(0), F(-1)])
        assert y is not None and dot(vec(1, 1), y) <= -1

    def test_all_rhs_zero(self):
        # Every slack starts basic at level 0: a degenerate start.
        rows = [vec(1, 1), vec(-1, 2), vec(0, -1), vec(1, 1)]
        y = feasible(rows, [F(0)] * 4)
        assert y is not None
        assert all(dot(r, y) <= 0 for r in rows)

    def test_degenerate_pivots(self):
        # x = y from two zero-rhs rows, then x + y >= 2 (feasible) or
        # x + y <= 0 with x >= 1 (infeasible).
        rows = [vec(1, -1), vec(-1, 1), vec(-1, -1)]
        y = feasible(rows, [F(0), F(0), F(-2)])
        assert y is not None and y[0] == y[1] and y[0] + y[1] >= 2
        rows = [vec(1, -1), vec(-1, 1), vec(1, 1), vec(-1, 0)]
        assert feasible(rows, [F(0), F(0), F(0), F(-1)]) is None

    def test_integer_rows(self):
        rows = [(1, 2), (-3, 1), (2, -5)]
        y = linear_feasible(rows, [-1, -1, 7])
        assert y is not None
        assert all(dot(vec(*r), y) <= b for r, b in zip(rows, [-1, -1, 7]))
        assert linear_feasible([(1, 1), (-1, -1)], [-1, -1]) is None

    def test_zero_free_column_stays_zero(self):
        # Column 0 has no nonzero entry, so y_0 finds no row and stays 0.
        rows, rhs = [vec(0, 1), vec(0, -1), vec(0, 2)], [F(-1), F(3), F(0)]
        assert_matches_reference(rows, rhs)
        y = feasible(rows, rhs)
        assert y[0] == 0 and -3 <= y[1] <= -1

    def test_equal_columns(self):
        # After y_0 is pivoted in, column 1 is zero outside y_0's row.
        rows = [vec(1, 1, 0), vec(2, 2, 1), vec(-1, -1, -1)]
        for rhs in ([F(-1), F(0), F(2)], [F(-1), F(-3), F(0)], [F(1), F(-4), F(-4)]):
            assert_matches_reference(rows, rhs)
        y = feasible(rows, [F(-1), F(0), F(2)])
        assert y[1] == 0

    def test_negative_free_pivot(self, work_counts):
        # Both free pivots are negative entries; the rows are negated first.
        rows, rhs = [vec(-2, 1), vec(1, -3), vec(1, 1)], [F(-4), F(-1), F(9)]
        assert_matches_reference(rows, rhs)
        work_counts.clear()
        assert feasible(rows, rhs) is not None
        assert work_counts["pivot"] == 2  # rhs 9 stays >= 0: no phase 1

    def test_square_invertible_system(self, work_counts):
        # Every row is a free row: no ratio test and no artificial, so the
        # witness meets each row with equality.
        rows, rhs = [vec(1, 2, 0), vec(3, 4, 1), vec(0, -1, 5)], [F(1), F(-1), F(2, 3)]
        assert_matches_reference(rows, rhs)
        work_counts.clear()
        y = feasible(rows, rhs)
        assert [dot(r, y) for r in rows] == rhs
        assert work_counts["pivot"] == 3

    def test_no_artificial_after_free_pivots(self, work_counts):
        # rhs -1 sits in the free row; the other row's rhs becomes 4.
        rows, rhs = [vec(1), vec(-1)], [F(-1), F(5)]
        assert_matches_reference(rows, rhs)
        work_counts.clear()
        assert feasible(rows, rhs) == (F(-1),)
        assert work_counts["pivot"] == 1

    def test_artificial_after_free_pivots(self):
        # The third row's rhs is negative only after the free pivots.
        rows, rhs = [vec(1, 0), vec(0, 1), vec(1, 1)], [F(2), F(3), F(4)]
        assert_matches_reference(rows, rhs)
        assert_matches_reference(rows, [F(2), F(3), F(6)])

    @given(lp_systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_simplex(self, system):
        assert_matches_reference(*system)

    @given(st.sampled_from(["random:3,7,4", "random:3,8,6", "random:4,8,3"]), st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_matches_plain_simplex_on_oracle_systems(self, spec, seed):
        for rows, rhs in oracle_systems(polytope.generate(spec, seed)):
            assert_matches_reference(rows, rhs)

    def test_no_constraints(self):
        assert feasible([], []) == ()

    def test_oracle_hands_int_systems(self):
        # linear_feasible takes ints only; the oracle's rows are ints already.
        systems = oracle_systems(polytope.generate("crosspolytope:4"))
        ints = [x for rows, rhs in systems for row in rows for x in (*row, *rhs)]
        assert ints and all(type(x) is int for x in ints)

    def test_random_infeasible_sandwich(self):
        rng = random.Random(7)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2))
            if not any(a):
                continue
            # a·y <= -1 together with -a·y <= -1 is always empty.
            assert feasible([a, tuple(-x for x in a)], [F(-1), F(-1)]) is None
