"""Tests for the folded-flag count along a transversal line."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerlab import folded_flags
from eulerlab.errors import GeneralPositionError, SamplingBudgetError
from eulerlab.euler import CertificateEntry, rejection_sample
from eulerlab.linalg import (
    affine_dim,
    barycenter,
    dot,
    is_zero,
    lift,
    rational_point,
    vsub,
)
from eulerlab.polytope import build_polytope, face_lattice, generate
from eulerlab.folded_flags import (
    FoldedFlag,
    TransversalLine,
    facet_assignment_sums,
    flag_collinear_with_assigned_point,
    fold_flags,
    other_facet,
    sample_transversal,
    verify_proof_folded,
)
from spans import face_points, line_hyperplane_intersection, meets_line, through, vadd, vscale


def fraction_relint_point(p, facet_index, rng, bound):
    """_relint_point as it was before it summed lifted vertices: the same
    weights, and the point built by Fraction vector sums."""
    idx = sorted(p.facets[facet_index].vertex_indices)
    weights = [Fraction(rng.randint(1, bound)) for _ in idx]
    total = sum(weights)
    point = tuple(Fraction(0) for _ in range(p.dim))
    for w, i in zip(weights, idx):
        point = vadd(point, vscale(p.vertices[i], w / total))
    return point


def shifted(p):
    """The hull of p's vertices under x -> x/3 + 1/7, which gives every
    vertex a denominator, so V > 1."""
    return build_polytope([[c / 3 + Fraction(1, 7) for c in v] for v in p.vertices])


def reference_line(p, facet_pair, t1, t2, direction, entries, hits):
    """The line a reference sampler accepted, with the table its t1 and
    direction give; the sampler's own Fraction hits must be the points the
    line reads off that table."""
    table = folded_flags.line_table(p, t1, direction)
    line = TransversalLine(facet_pair, t1, t2, direction, tuple(entries), table)
    assert line.facet_points == hits
    return line


def reference_sample_transversal(p, seed, facet_pair=None):
    """The sampler as it was before it read facet normals: besides the
    facet rates, each face of dimension <= d-2 gets its own span, which the
    line must miss and, for dimension >= 1, not be parallel to."""
    if p.dim < 3:
        raise ValueError("transversal proof requires d >= 3")
    rng = random.Random(seed)
    nf = len(p.facets)
    if facet_pair is None:
        i1 = rng.randrange(nf)
        facet_pair = (i1, other_facet(rng, nf, i1))
    i1, i2 = facet_pair
    if i1 == i2 or not (0 <= i1 < nf and 0 <= i2 < nf):
        raise ValueError(f"invalid facet pair {facet_pair}")

    lat = face_lattice(p)
    faces = []
    for c in range(0, p.dim - 1):
        for idx, face in enumerate(lat.faces(c)):
            pts = face_points(p, face)
            faces.append((c, idx, pts[0], through(pts)))

    def attempt(bound):
        t1 = fraction_relint_point(p, i1, rng, bound)
        t2 = fraction_relint_point(p, i2, rng, bound)
        direction = vsub(t2, t1)
        if is_zero(direction):
            return None
        entries = [
            CertificateEntry(
                "facet-not-parallel", (j,), dot(f.hyperplane.normal, direction) != 0
            )
            for j, f in enumerate(p.facets)
        ]
        for c, idx, base, span in faces:
            # The line must miss each face's affine hull, base + span, and
            # must not be parallel to a face of dimension >= 1.
            if c >= 1:
                good = not span.contains(lift(direction))
                entries.append(CertificateEntry("direction-independent", (c, idx), good))
                if not good:
                    continue
            good = not meets_line(span, vsub(t1, base), direction)
            entries.append(CertificateEntry("affine-miss", (c, idx), good))
        if not all(e.ok for e in entries):
            return None
        hits = tuple(
            line_hyperplane_intersection(t1, direction, f.hyperplane)
            for f in p.facets
        )
        for j, hit in enumerate(hits):
            if j in (i1, i2):
                good = p.in_relative_interior_of_facet(hit, j)
            else:
                good = not p.contains(hit)
            entries.append(CertificateEntry("incidence", (j,), good))
            if not good:
                where = "off the relative interior" if j in (i1, i2) else "on the facet"
                raise GeneralPositionError(
                    f"general position violated: incidence check failed: the line "
                    f"meets the hyperplane of facet {j} {where}"
                )
        return reference_line(p, (i1, i2), t1, t2, direction, entries, hits)

    return rejection_sample(
        f"transversal line through facets {i1} and {i2} for seed {seed}", 9, attempt
    )


def fraction_sample_transversal(p, seed, facet_pair=None):
    """sample_transversal as it was before it read a table of ints: the
    line's parameters and points in Fractions, and the incidence of each
    point from the facets' own side tests."""
    if p.dim < 3:
        raise ValueError("transversal proof requires d >= 3")
    rng = random.Random(seed)
    nf = len(p.facets)
    if facet_pair is None:
        i1 = rng.randrange(nf)
        facet_pair = (i1, other_facet(rng, nf, i1))
    i1, i2 = facet_pair
    if i1 == i2 or not (0 <= i1 < nf and 0 <= i2 < nf):
        raise ValueError(f"invalid facet pair {facet_pair}")

    ridges = [p.facets_of(r) for r in face_lattice(p).faces(p.dim - 2)]

    def attempt(bound):
        t1 = folded_flags._relint_point(p, i1, rng, bound)
        t2 = folded_flags._relint_point(p, i2, rng, bound)
        direction = vsub(t2, t1)
        if is_zero(direction):
            return None
        rates = [dot(f.hyperplane.normal, direction) for f in p.facets]
        if 0 in rates:
            return None
        s = [-f.hyperplane.side(t1) / rate for f, rate in zip(p.facets, rates)]
        if any(s[a] == s[b] for a, b in ridges):
            return None
        entries = [CertificateEntry("facet-not-parallel", (j,), True) for j in range(nf)]
        entries += [CertificateEntry("affine-miss", (a, b), True) for a, b in ridges]
        hits = tuple(vadd(t1, vscale(direction, s_j)) for s_j in s)
        for j, hit in enumerate(hits):
            if j in (i1, i2):
                good = p.in_relative_interior_of_facet(hit, j)
            else:
                good = not p.contains(hit)
            entries.append(CertificateEntry("incidence", (j,), good))
            if not good:
                where = "off the relative interior" if j in (i1, i2) else "on the facet"
                raise GeneralPositionError(
                    f"general position violated: incidence check failed: the line "
                    f"meets the hyperplane of facet {j} {where}"
                )
        return reference_line(p, (i1, i2), t1, t2, direction, entries, hits)

    return rejection_sample(
        f"transversal line through facets {i1} and {i2} for seed {seed}", 9, attempt
    )


def sampled(sample, p, seed, facet_pair=None):
    """The sampled TransversalLine, or the text of the raise."""
    try:
        return sample(p, seed, facet_pair)
    except (GeneralPositionError, SamplingBudgetError) as err:
        return f"raised: {err}"


def sampled_line(sample, p, seed, facet_pair=None):
    """The sampled line's points and facet pair, or the text of the raise."""
    line = sampled(sample, p, seed, facet_pair)
    if isinstance(line, str):
        return line
    return line.t1, line.t2, line.facet_points, line.facet_pair


def section_polygon(p, line, x):
    """The section of p by the plane through the line and x, as 2D data.

    Returns (vertices, constraints): vertices are exact (u, w) coordinates
    in the chart t1 + u*direction + w*(x - t1), and constraints are rows
    (alpha, beta, gamma) meaning alpha*u + beta*w <= gamma, one per facet.
    Every pair of rows is intersected and kept if it satisfies all rows:
    O(m^3) for m facets.
    """
    e = line.direction
    g = vsub(x, line.t1)
    cons = []
    for f in p.facets:
        n = f.hyperplane.normal
        cons.append((dot(n, e), dot(n, g), f.hyperplane.offset - dot(n, line.t1)))
    verts = set()
    for i, (a1, b1, g1) in enumerate(cons):
        for a2, b2, g2 in cons[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            u = (g1 * b2 - g2 * b1) / det
            w = (a1 * g2 - a2 * g1) / det
            if all(a * u + b * w <= c for a, b, c in cons):
                verts.add((u, w))
    return sorted(verts), cons


def reference_fold(p, face, line):
    """fold_flags by brute force over the whole section polygon: the
    ((assigned facet, segment, value), ...) of the two flags, or a raise
    with the same GeneralPositionError text."""
    x = barycenter(face_points(p, face))
    verts, cons = section_polygon(p, line, x)
    origin = (Fraction(0), Fraction(1))

    def violated(check):
        where = f"face {sorted(face.vertex_indices)}"
        return GeneralPositionError(f"general position violated: {check} at {where}")

    if origin not in verts:
        raise violated("the base point is not a vertex of its plane section")
    # A side at x runs from x to another vertex on the line of a row tight
    # at x; the facets tight at its midpoint are the ones that hold it.
    sides = []
    for a, b, c in cons:
        if b != c:
            continue
        for v in verts:
            if v == origin or a * v[0] + b * v[1] != c:
                continue
            mid = (v[0] / 2, (1 + v[1]) / 2)
            active = [
                j for j, (aa, bb, cc) in enumerate(cons) if aa * mid[0] + bb * mid[1] == cc
            ]
            if len(active) != 1:
                raise violated(f"a section side lies in facets {active}, not in one")
            sides.append((active[0], v))
    by_facet = {}
    for facet_idx, v in sides:
        if by_facet.get(facet_idx, v) != v:
            raise violated(f"two section sides lie in facet {facet_idx}")
        by_facet[facet_idx] = v
    if len(by_facet) != 2:
        raise violated(f"the section sides lie in facets {sorted(by_facet)}, not in two")
    g = vsub(x, line.t1)
    value = Fraction((-1) ** face.dimension, 2)
    return tuple(
        (facet_idx, (x, vadd(line.t1, vadd(vscale(line.direction, u), vscale(g, w)))), value)
        for facet_idx, (u, w) in sorted(by_facet.items())
    )


def _cross(a, b) -> Fraction:
    """The 2D cross product of the (alpha, beta) parts of two chart rows."""
    return a[0] * b[1] - a[1] * b[0]


def _along(row, r) -> Fraction:
    """Rate of change of a chart row's left side along the direction r."""
    return row[0] * r[0] + row[1] * r[1]


def ints(point):
    """A rational point as a FoldedFlag keeps a segment end: (n, D), gcd 1."""
    return tuple(lift([*point, 1]))


def fraction_fold(p, face, line):
    """fold_flags as it was before its rows were ints: the same walk on
    three Fraction dot products per facet, the rows (n_j.e, n_j.(x - t1),
    -side_j(x)).  Its segment ends are mapped to fold_flags' int form."""
    x = barycenter(face_points(p, face))
    e = line.direction
    g = vsub(x, line.t1)
    # (alpha_j, beta_j, slack_j): the slack of facet j at x is gamma_j - beta_j.
    rows = [
        (dot(f.hyperplane.normal, e), dot(f.hyperplane.normal, g), -f.hyperplane.side(x))
        for f in p.facets
    ]

    def violated(check: str) -> GeneralPositionError:
        where = f"face {sorted(face.vertex_indices)}"
        return GeneralPositionError(f"general position violated: {check} at {where}")

    # x is a vertex of the section exactly when it satisfies every row and
    # two rows tight at x are not parallel.
    active = [j for j, row in enumerate(rows) if row[2] == 0]
    a = next((rows[j] for j in active if rows[j][:2] != (0, 0)), None)
    b = None if a is None else next((rows[j] for j in active if _cross(a, rows[j])), None)
    if b is None or any(row[2] < 0 for row in rows):
        raise violated("the base point is not a vertex of its plane section")

    # Clip the cone {r : a.r <= 0, b.r <= 0}, spanned by lo and hi, with
    # every other row tight at x; it ends empty, a single ray or a pointed
    # cone whose extreme rays lo and hi are the side directions.
    sign = 1 if _cross(a, b) > 0 else -1
    lo = (sign * a[1], -sign * a[0])
    hi = (-sign * b[1], sign * b[0])
    for j in active:
        at_lo, at_hi = _along(rows[j], lo), _along(rows[j], hi)
        if at_lo > 0 and at_hi > 0:
            rays = []
            break
        if at_lo > 0:
            lo = tuple(at_lo * h - at_hi * l for l, h in zip(lo, hi))
        elif at_hi > 0:
            hi = tuple(at_hi * l - at_lo * h for l, h in zip(lo, hi))
    else:
        rays = [lo, hi] if _cross(lo, hi) else [lo]

    sides = []
    for r in rays:
        facets = [j for j in active if _along(rows[j], r) == 0]
        # Ratio test: the side ends where the first other facet turns tight.
        t = min(row[2] / d for row in rows if (d := _along(row, r)) > 0)
        sides.append((facets, (t * r[0], 1 + t * r[1])))
    # Check the side with the lower facet index first.  Two sides share one
    # only when a facet's hyperplane holds the whole plane; then the side
    # with the lower far vertex comes first.
    sides.sort(key=lambda side: (side[0][0], side[1]))
    for facets, _ in sides:
        if len(facets) != 1:
            raise violated(f"a section side lies in facets {facets}, not in one")
    if len(sides) == 2 and sides[0][0] == sides[1][0]:
        raise violated(f"two section sides lie in facet {sides[0][0][0]}")
    if len(sides) != 2:
        raise violated(
            f"the section sides lie in facets {[f[0] for f, _ in sides]}, not in two"
        )

    value = Fraction((-1) ** face.dimension, 2)
    flags = []
    for [facet_idx], (u, w) in sides:
        end = vadd(line.t1, vadd(vscale(e, u), vscale(g, w)))
        flags.append(
            FoldedFlag(
                base_face=face,
                assigned_facet=facet_idx,
                segment=(ints(x), ints(end)),
                value=value,
            )
        )
    return flags[0], flags[1]


def folded(p, face, line):
    """fold_flags in the reference's terms."""
    return tuple(
        (f.assigned_facet, tuple(map(rational_point, f.segment)), f.value)
        for f in fold_flags(p, face, line)
    )


def outcome(fn, *args):
    """fn's result, or the text of the GeneralPositionError it raises."""
    try:
        return fn(*args)
    except GeneralPositionError as e:
        return str(e)


def opposite_pair(p):
    """A pair of facets of a centrally symmetric polytope with opposite
    normals."""
    for i, f in enumerate(p.facets):
        for j, g in enumerate(p.facets):
            if i < j and all(
                a + b == 0 for a, b in zip(f.hyperplane.normal, g.hyperplane.normal)
            ):
                return (i, j)
    raise AssertionError("no opposite facets")


class TestSampleTransversal:
    def test_deterministic_per_seed(self):
        p = generate("cube:4")
        l1 = sample_transversal(p, 5)
        l2 = sample_transversal(p, 5)
        assert (l1.t1, l1.t2, l1.facet_pair) == (l2.t1, l2.t2, l2.facet_pair)

    def test_endpoints_in_facet_relative_interiors(self):
        p = generate("cube:3")
        line = sample_transversal(p, 0, facet_pair=(0, 3))
        assert p.in_relative_interior_of_facet(line.t1, 0)
        assert p.in_relative_interior_of_facet(line.t2, 3)
        assert line.direction == vsub(line.t2, line.t1)
        assert not is_zero(line.direction)

    @pytest.mark.parametrize("spec,seed", [("simplex:4", 2), ("cube:4", 0), ("crosspolytope:4", 1)])
    def test_facet_points_sit_on_their_hyperplanes(self, spec, seed):
        # Each point is also read off the table in the segment-end form,
        # over a positive denominator with gcd 1, as `lift` gives it.
        p = generate(spec)
        line = sample_transversal(p, seed)
        for j, f in enumerate(p.facets):
            assert f.hyperplane.side(line.facet_points[j]) == 0
        assert line.lifted_points == tuple(tuple(lift([*x, 1])) for x in line.facet_points)

    def test_incidence_theorem(self):
        # The line's intersection with hyperplane j lies on facet j exactly
        # for the two chosen facets; construction asserts this, and the
        # certificate records it.
        for spec, seeds in [("cube:4", range(5)), ("simplex:4", range(5))]:
            p = generate(spec)
            for seed in seeds:
                line = sample_transversal(p, seed)
                i1, i2 = line.facet_pair
                for j in range(len(p.facets)):
                    hit = line.facet_points[j]
                    if j in (i1, i2):
                        assert p.in_relative_interior_of_facet(hit, j)
                    else:
                        assert not p.contains(hit)

    def test_certificate_is_complete_and_positive(self):
        p = generate("cube:3")
        line = sample_transversal(p, 1)
        kinds = {}
        for e in line.certificate:
            assert e.ok
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        fv = f_vector_of(p)
        # One affine-miss entry per ridge: every lower face lies in a ridge.
        assert kinds == {
            "facet-not-parallel": len(p.facets),
            "affine-miss": fv[p.dim - 2],
            "incidence": len(p.facets),
        }

    @pytest.mark.parametrize("spec", ["cube:3", "cube:4", "simplex:4", "crosspolytope:4"])
    def test_line_avoids_every_face(self, spec):
        # Re-prove general position face by face: the line is parallel to no
        # face of dimension >= 1 and misses the affine hull of every face of
        # dimension <= d-2.
        p = generate(spec)
        lat = face_lattice(p)
        for seed in range(4):
            line = sample_transversal(p, seed)
            for c in range(p.dim):
                for face in lat.faces(c):
                    pts = face_points(p, face)
                    span = through(pts)
                    if c >= 1:
                        assert not span.contains(lift(line.direction))
                    if c <= p.dim - 2:
                        assert not meets_line(span, vsub(line.t1, pts[0]), line.direction)

    @pytest.mark.parametrize("pair", [None, (0, 1), (0, 2), (1, 2)])
    @pytest.mark.parametrize("spec", ["cube:3", "cube:4", "simplex:4", "crosspolytope:4"])
    def test_same_lines_as_the_per_face_reference(self, spec, pair):
        p = generate(spec)
        for seed in range(6):
            assert sampled_line(sample_transversal, p, seed, pair) == sampled_line(
                reference_sample_transversal, p, seed, pair
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
        assert sampled_line(sample_transversal, p, seed) == sampled_line(
            reference_sample_transversal, p, seed
        )

    @given(
        d=st.integers(3, 5),
        extra=st.integers(0, 4),
        hull_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_interior_points_match_the_fraction_sums(self, d, extra, hull_seed, seed):
        # The lifted-vertex sums give the same points as Fraction vector sums,
        # so the sampler returns an equal line, certificate included.
        p = shifted(generate(f"random:{d},{d + 1 + extra},9", hull_seed))
        assert p.lifted[0] > 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(folded_flags, "_relint_point", fraction_relint_point)
            expected = sampled(sample_transversal, p, seed)
        assert sampled(sample_transversal, p, seed) == expected

    @given(
        d=st.integers(3, 5),
        extra=st.integers(0, 4),
        hull_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_integer_certificate_on_shifted_hulls(self, d, extra, hull_seed, seed):
        # With V > 1 and L > 1 the table of ints gives the Fraction sampler's
        # line, certificate included, or its raise text, and the per-face
        # reference's line.  The per-face reference keeps a certificate entry
        # per face, so only its line is compared.
        p = shifted(generate(f"random:{d},{d + 1 + extra},9", hull_seed))
        assert p.lifted[0] > 1
        got = sampled(sample_transversal, p, seed)
        if not isinstance(got, str):
            assume(got.table.big_l > 1)
        assert got == sampled(fraction_sample_transversal, p, seed)
        assert sampled_line(sample_transversal, p, seed) == sampled_line(
            reference_sample_transversal, p, seed
        )

    @pytest.mark.parametrize(
        "spec,seed,facet", [("cube:4", 0, 6), ("crosspolytope:4", 0, 12), ("simplex:4", 1, 0)]
    )
    def test_a_point_off_its_facet_raises_the_incidence_text(self, spec, seed, facet):
        # Reflecting each interior point through the facet's first vertex
        # keeps it on the facet's hyperplane but puts it outside the
        # polytope, so the line meets that hyperplane off the facet.  A vertex
        # itself lies in a ridge, whose hull every line through it meets, so
        # every candidate is rejected and the budget runs out instead.
        p = generate(spec)
        relint = folded_flags._relint_point

        def reflected(p, i, rng, bound):
            x = relint(p, i, rng, bound)
            v = p.vertices[min(p.facets[i].vertex_indices)]
            return tuple(2 * a - b for a, b in zip(v, x))

        def vertex(p, i, rng, bound):
            relint(p, i, rng, bound)
            return p.vertices[min(p.facets[i].vertex_indices)]

        text = (
            "raised: general position violated: incidence check failed: the line "
            f"meets the hyperplane of facet {facet} off the relative interior"
        )
        outcomes = []
        for point in (reflected, vertex):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(folded_flags, "_relint_point", point)
                mp.setitem(globals(), "fraction_relint_point", point)
                got = [
                    sampled(sample, p, seed)
                    for sample in (
                        sample_transversal,
                        fraction_sample_transversal,
                        reference_sample_transversal,
                    )
                ]
            assert got[0] == got[1] == got[2]
            outcomes.append(got[0])
        assert outcomes[0] == text
        assert outcomes[1].startswith("raised: no transversal line through facets")

    def test_explicit_pair_respected(self):
        p = generate("cube:4")
        pair = opposite_pair(p)
        line = sample_transversal(p, 9, facet_pair=pair)
        assert line.facet_pair == pair

    def test_adjacent_pair_on_simplex(self):
        # Any two facets of a simplex share a ridge; the line still works.
        p = generate("simplex:4")
        line = sample_transversal(p, 0, facet_pair=(1, 3))
        assert line.facet_pair == (1, 3)

    def test_invalid_pairs(self):
        p = generate("cube:3")
        with pytest.raises(ValueError, match="invalid facet pair"):
            sample_transversal(p, 0, facet_pair=(2, 2))
        with pytest.raises(ValueError, match="invalid facet pair"):
            sample_transversal(p, 0, facet_pair=(0, 99))

    def test_dimension_guard(self):
        p = generate("cube:2")
        with pytest.raises(ValueError, match="transversal proof requires d >= 3"):
            sample_transversal(p, 0)

    @pytest.mark.parametrize("spec", ["cube:3", "simplex:3", "crosspolytope:3"])
    def test_many_seeds_succeed(self, spec):
        p = generate(spec)
        for seed in range(30):
            line = sample_transversal(p, seed)
            assert all(e.ok for e in line.certificate)


def f_vector_of(p):
    from eulerlab.euler import f_vector

    return f_vector(face_lattice(p))


class TestFoldFlags:
    def test_vertex_face_on_cube(self):
        p = generate("cube:3")
        line = sample_transversal(p, 0, facet_pair=(0, 3))
        vertex = face_lattice(p).faces(0)[6]
        a, b = fold_flags(p, vertex, line)
        assert a.assigned_facet != b.assigned_facet
        assert a.value == b.value == Fraction(1, 2)
        x = face_points(p, vertex)[0]
        assert a.segment[0] == b.segment[0] == ints(x)
        # Folded flags stay at their base: each assigned facet contains the
        # vertex itself.
        vid = next(iter(vertex.vertex_indices))
        for flag in (a, b):
            assert vid in p.facets[flag.assigned_facet].vertex_indices

    def test_edge_face_value(self):
        p = generate("cube:4")
        line = sample_transversal(p, 1)
        edge = face_lattice(p).faces(1)[0]
        a, b = fold_flags(p, edge, line)
        assert a.value == b.value == Fraction(-1, 2)
        assert a.assigned_facet != b.assigned_facet

    def test_segments_live_in_the_section_plane(self):
        p = generate("cube:3")
        line = sample_transversal(p, 4)
        for face in face_lattice(p).faces(1):
            for flag in fold_flags(p, face, line):
                pts = [line.t1, line.t2, *map(rational_point, flag.segment)]
                assert affine_dim(pts) <= 2

    def test_collinearity_with_assigned_facet_point(self):
        # Each folded flag's supporting line passes through the transversal
        # line's intersection with its assigned facet's hyperplane.
        p = generate("cube:3")
        line = sample_transversal(p, 2)
        lat = face_lattice(p)
        for c in range(p.dim - 1):
            for face in lat.faces(c):
                for flag in fold_flags(p, face, line):
                    assert flag_collinear_with_assigned_point(flag, line)

    def test_faces_of_special_facet_fold_into_it(self):
        p = generate("cube:4")
        line = sample_transversal(p, 0, facet_pair=(0, 5))
        special = p.facets[0].vertex_indices
        lat = face_lattice(p)
        for c in range(p.dim - 1):
            for face in lat.faces(c):
                if face.vertex_indices <= special:
                    assigned = {
                        f.assigned_facet for f in fold_flags(p, face, line)
                    }
                    assert 0 in assigned


def hand_line(p, t1, direction):
    """A TransversalLine of p through t1 along direction, without a
    certificate: fold_flags reads only its table."""
    t1 = tuple(Fraction(c) for c in t1)
    direction = tuple(Fraction(c) for c in direction)
    table = folded_flags.line_table(p, t1, direction)
    return TransversalLine((0, 1), t1, vadd(t1, direction), direction, (), table)


class TestFoldFlagsAgainstReference:
    @given(
        d=st.integers(3, 5),
        extra=st.integers(0, 3),
        hull_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_walk_matches_full_polygon(self, d, extra, hull_seed, seed):
        # At most 7 points keep the O(m^3) reference fast.
        p = generate(f"random:{d},{min(d + 1 + extra, 7)},6", hull_seed)
        line = sample_transversal(p, seed)
        lat = face_lattice(p)
        for c in range(d - 1):
            for face in lat.faces(c):
                assert outcome(folded, p, face, line) == outcome(
                    reference_fold, p, face, line
                )

    @given(
        d=st.integers(3, 5),
        extra=st.integers(0, 4),
        hull_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_integer_rows_match_the_fraction_walk(self, d, extra, hull_seed, seed):
        p = shifted(generate(f"random:{d},{d + 1 + extra},9", hull_seed))
        line = sample_transversal(p, seed)
        assume(lift([*line.t1, *line.direction, 1])[-1] > 1)
        assert p.lifted[0] > 1
        lat = face_lattice(p)
        for c in range(d - 1):
            for face in lat.faces(c):
                assert outcome(fold_flags, p, face, line) == outcome(
                    fraction_fold, p, face, line
                )

    def test_integer_rows_match_the_fraction_walk_on_hand_lines(self):
        # Every {-1, 0, 1} direction through three points in and around a
        # shifted cube, planes in general position or not: the same flags or
        # the same raise text.
        p = build_polytope(
            [[c / 2 + Fraction(1, 7) for c in v] for v in generate("cube:3").vertices]
        )
        lat = face_lattice(p)
        raised = 0
        for t1 in [("1/2", "1/2", "1/2"), ("1/2", "1/2", "9/14"), ("3", "1/7", "1/7")]:
            for direction in itertools.product((-1, 0, 1), repeat=3):
                if not any(direction):
                    continue
                line = hand_line(p, t1, direction)
                for c in range(2):
                    for face in lat.faces(c):
                        got = outcome(fold_flags, p, face, line)
                        assert got == outcome(fraction_fold, p, face, line)
                        raised += isinstance(got, str)
        assert 0 < raised < 3 * 26 * 20

    # Hand-built planes on the unit cube, which sampled lines never give.
    # Facets 3, 4 and 5 are z <= 1, y <= 1 and x <= 1; vertex 7 is (1, 1, 1)
    # and vertex 6 is (1, 1, 0).
    @pytest.mark.parametrize(
        "face_ids,t1,direction,check",
        [
            # The plane x = y holds the edge 6-7, and its midpoint is the
            # middle of a side of the section rectangle.
            (
                {6, 7},
                ("1/2", "1/2", "1/2"),
                (0, 0, 1),
                "the base point is not a vertex of its plane section",
            ),
            # The same plane at vertex 7: the side along the edge 6-7 lies in
            # the facets x <= 1 and y <= 1.
            (
                {7},
                ("1/2", "1/2", "1/2"),
                (0, 0, 1),
                "a section side lies in facets [4, 5], not in one",
            ),
            # The plane z = 1 is facet 3's: both sides at vertex 7 lie in two
            # facets, and the one with the lower far vertex is reported.
            (
                {7},
                ("1/2", "1/2", 1),
                (1, 0, 0),
                "a section side lies in facets [3, 4], not in one",
            ),
            # The plane x + y + z = 3 touches the cube at vertex 7 only.
            (
                {7},
                (3, 0, 0),
                (-1, 1, 0),
                "the section sides lie in facets [], not in two",
            ),
        ],
    )
    def test_general_position_raises(self, face_ids, t1, direction, check):
        p = generate("cube:3")
        face = next(f for f in face_lattice(p).all_faces() if f.vertex_indices == face_ids)
        line = hand_line(p, t1, direction)
        text = f"general position violated: {check} at face {sorted(face_ids)}"
        assert outcome(reference_fold, p, face, line) == text
        with pytest.raises(GeneralPositionError) as raised:
            fold_flags(p, face, line)
        assert str(raised.value) == text


# The base points of cube:4's faces of dimension <= 2 at seed 0, in the order
# the folded run takes the faces, as its failure lines print them.
CUBE4_BASE_POINTS = [
    # 16 vertices
    "(0, 0, 0, 0)", "(0, 0, 0, 1)", "(0, 0, 1, 0)", "(0, 0, 1, 1)",
    "(0, 1, 0, 0)", "(0, 1, 0, 1)", "(0, 1, 1, 0)", "(0, 1, 1, 1)",
    "(1, 0, 0, 0)", "(1, 0, 0, 1)", "(1, 0, 1, 0)", "(1, 0, 1, 1)",
    "(1, 1, 0, 0)", "(1, 1, 0, 1)", "(1, 1, 1, 0)", "(1, 1, 1, 1)",
    # 32 edges
    "(0, 0, 0, 1/2)", "(0, 0, 1/2, 0)", "(0, 1/2, 0, 0)", "(1/2, 0, 0, 0)",
    "(0, 0, 1/2, 1)", "(0, 1/2, 0, 1)", "(1/2, 0, 0, 1)", "(0, 0, 1, 1/2)",
    "(0, 1/2, 1, 0)", "(1/2, 0, 1, 0)", "(0, 1/2, 1, 1)", "(1/2, 0, 1, 1)",
    "(0, 1, 0, 1/2)", "(0, 1, 1/2, 0)", "(1/2, 1, 0, 0)", "(0, 1, 1/2, 1)",
    "(1/2, 1, 0, 1)", "(0, 1, 1, 1/2)", "(1/2, 1, 1, 0)", "(1/2, 1, 1, 1)",
    "(1, 0, 0, 1/2)", "(1, 0, 1/2, 0)", "(1, 1/2, 0, 0)", "(1, 0, 1/2, 1)",
    "(1, 1/2, 0, 1)", "(1, 0, 1, 1/2)", "(1, 1/2, 1, 0)", "(1, 1/2, 1, 1)",
    "(1, 1, 0, 1/2)", "(1, 1, 1/2, 0)", "(1, 1, 1/2, 1)", "(1, 1, 1, 1/2)",
    # 24 squares
    "(0, 0, 1/2, 1/2)", "(0, 1/2, 0, 1/2)", "(1/2, 0, 0, 1/2)", "(0, 1/2, 1/2, 0)",
    "(1/2, 0, 1/2, 0)", "(1/2, 1/2, 0, 0)", "(0, 1/2, 1/2, 1)", "(1/2, 0, 1/2, 1)",
    "(1/2, 1/2, 0, 1)", "(0, 1/2, 1, 1/2)", "(1/2, 0, 1, 1/2)", "(1/2, 1/2, 1, 0)",
    "(1/2, 1/2, 1, 1)", "(0, 1, 1/2, 1/2)", "(1/2, 1, 0, 1/2)", "(1/2, 1, 1/2, 0)",
    "(1/2, 1, 1/2, 1)", "(1/2, 1, 1, 1/2)", "(1, 0, 1/2, 1/2)", "(1, 1/2, 0, 1/2)",
    "(1, 1/2, 1/2, 0)", "(1, 1/2, 1/2, 1)", "(1, 1/2, 1, 1/2)", "(1, 1, 1/2, 1/2)",
]


class TestFacetAssignmentSums:
    @pytest.mark.parametrize(
        "spec,special,per_facet,total,flags",
        [
            ("cube:3", 0, -1, -4, 40),
            ("simplex:3", 0, -1, -2, 20),
            ("crosspolytope:3", 0, -1, -6, 36),
            ("simplex:4", 2, 1, 5, 50),
            ("cube:4", 2, 1, 8, 144),
        ],
    )
    def test_known_polytopes(self, spec, special, per_facet, total, flags):
        p = generate(spec)
        line = sample_transversal(p, 0)
        report = facet_assignment_sums(p, line, seed=0)
        assert report.passed
        assert report.failures == []
        assert report.special_pair_sum == special
        assert report.expected_special == special
        others = set(range(len(p.facets))) - set(line.facet_pair)
        assert set(report.per_facet_sums) == others
        assert all(v == per_facet for v in report.per_facet_sums.values())
        assert report.expected_per_facet == per_facet
        assert report.total == total
        assert report.total_by_base == report.total_by_facet == total
        assert report.lhs_needed == report.rhs_needed == total
        assert report.flag_count == flags
        k = p.dim - 1
        assert report.expected_special == 1 - (-1) ** k
        assert report.expected_per_facet == -((-1) ** k)

    def test_cube4_battery(self):
        p = generate("cube:4")
        pairs = set()
        for seed in range(5):
            report = verify_proof_folded(p, seed)
            pairs.add(tuple(sorted(report.facet_pair)))
            assert report.passed
            assert report.special_pair_sum == 2
            assert all(v == 1 for v in report.per_facet_sums.values())
            assert report.total == 8
        assert len(pairs) >= 2

    def test_pair_choice_invariance(self):
        p = generate("cube:3")
        totals = set()
        for pair in [(0, 1), (0, 5), (2, 4), opposite_pair(p)]:
            report = verify_proof_folded(p, 0, facet_pair=pair)
            assert report.passed
            assert report.facet_pair == pair
            totals.add(report.total)
        assert totals == {-4}

    def test_seed_invariance(self):
        p = generate("simplex:4")
        reports = [verify_proof_folded(p, s, facet_pair=(0, 2)) for s in range(6)]
        assert all(r.passed for r in reports)
        assert len({r.total for r in reports}) == 1
        assert len({tuple(sorted(r.per_facet_sums.items())) for r in reports}) == 1

    def test_random_polytope(self):
        p = generate("random:4,8,6", 3)
        report = verify_proof_folded(p, 3)
        assert report.passed
        fv = f_vector_of(p)
        k = p.dim - 1
        assert report.total == 1 + (-1) ** k * (1 - fv[k])

    def test_corrupted_shadow_is_caught(self, flip_first_shadow):
        # Flip one vertex entry of the first shadow: that facet's face check
        # must name it, in rational strings.
        flip_first_shadow(folded_flags, "project_from_point")
        report = verify_proof_folded(generate("cube:3"), 0)
        assert report.failures == ["facet 0: dim-0 face [(0, 0, 0)] took 1 flags, expected 0"]

    def test_not_collinear_failure_lines(self, monkeypatch):
        # Each flag whose segment misses its facet point adds one line naming
        # its base point, the segment's first end, and nothing else fails.
        monkeypatch.setattr(
            folded_flags, "flag_collinear_with_assigned_point", lambda flag, line: False
        )
        report = verify_proof_folded(generate("cube:4"), 0)
        assert report.failures == [
            f"flag at {x} not collinear with its facet point"
            for x in CUBE4_BASE_POINTS
            for _ in range(2)
        ]

    def test_general_position_raise_names_the_seed(self, monkeypatch):
        # A hand-built line in the plane x = y makes folding raise; the run
        # adds its seed to the direct text.
        p = generate("cube:3")
        line = hand_line(p, ("1/2", "1/2", "1/2"), (0, 0, 1))
        direct = outcome(facet_assignment_sums, p, line)
        assert direct.startswith("general position violated")
        monkeypatch.setattr(folded_flags, "sample_transversal", lambda *args: line)
        with pytest.raises(GeneralPositionError) as raised:
            verify_proof_folded(p, 4)
        assert str(raised.value) == direct + " (seed 4)"

    def test_report_metadata(self):
        p = generate("cube:3")
        report = verify_proof_folded(p, 7)
        assert report.dimension == 3
        assert report.seed == 7
        assert report.facet_pair[0] != report.facet_pair[1]
