"""Folded-flag double counting directly on the polytope.

A transversal line q passes through the relative interiors of two chosen
facets.  For every face F of dimension <= k-1, the plane L spanned by q and
F's base point cuts the polytope in a polygon with that base point as a
vertex; the two incident polygon sides, each inside a unique facet, are the
face's two folded flags.  Per-facet sums are checked against their exact
expected values, including the central-projection shadow criterion for the
facets the line does not meet.

Everything that depends on the line alone is computed once per candidate
line, as ints (`LineTable`): the line lifted to L*t1 and L*e, and per facet
its two products with them.  The sampler certifies a line on this table,
the accepted line carries it and reads its facet points off it, and each
face is then folded with one int product per facet.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

from .errors import GeneralPositionError, naming_seed
from .euler import CertificateEntry, check_piece, check_totals, f_vector, rejection_sample
from .linalg import Vector, affine_basis, format_point, lift, rational_point, reduce_lifted, vsub
from .polytope import Face, Polytope, face_lattice, facet_polytope
from .projection import project_from_point


@dataclass(frozen=True)
class TransversalLine:
    """Line through relative-interior points of two facets, with exact
    general-position certificate and the `LineTable` it was certified on,
    which places its point on each facet's hyperplane.  The certificate
    holds one "facet-not-parallel" and one "incidence" entry per facet and
    one "affine-miss" entry per ridge."""

    facet_pair: tuple[int, int]
    t1: Vector
    t2: Vector
    direction: Vector
    certificate: tuple[CertificateEntry, ...]
    table: LineTable = field(compare=False, repr=False)

    @cached_property
    def lifted_points(self) -> tuple[tuple[int, ...], ...]:
        """The line's point t1 + s_j*e on each facet hyperplane j, read off
        the table in `FoldedFlag`'s segment-end form: (A_j*L*t1 - B_j*L*e) /
        (A_j*L), over the gcd signed as A_j."""
        table, out = self.table, []
        for a, b in zip(table.rates, table.at_t1):
            q = [a * t - b * e for t, e in zip(table.lt1, table.le)]
            g = math.gcd(a * table.big_l, *q) * (1 if a > 0 else -1)
            out.append((*(c // g for c in q), a * table.big_l // g))
        return tuple(out)

    @cached_property
    def facet_points(self) -> tuple[Vector, ...]:
        """`lifted_points` as rational points."""
        return tuple(map(rational_point, self.lifted_points))


@dataclass(frozen=True)
class FoldedFlag:
    """A polygon side inside a unique facet; `segment` runs from the base
    point to the side's far vertex.  Each end is the ints (n_1, ..., n_d, D)
    of the point n/D with D > 0 and gcd 1, the form `lift` gives [*point, 1],
    so `==` still means the same rational segment; `rational_point` reads
    one back."""

    base_face: Face
    assigned_facet: int
    segment: tuple[tuple[int, ...], tuple[int, ...]]
    value: Fraction


# A face of dimension c gives each of its two flags the value (-1)^c / 2.
_VALUES = (Fraction(1, 2), Fraction(-1, 2))


@dataclass(frozen=True)
class LineTable:
    """What the sampler and folding read of one line, computed once per line.

    L is the lcm of the denominators of t1 and the direction e; `lt1` and
    `le` are L*t1 and L*e as ints.  Per facet j with integer plane
    n_j.x = b_j, `rates[j]` is A_j = n_j.(L*e) and `at_t1[j]` is B_j =
    n_j.(L*t1) - L*b_j, L times the side of t1."""

    big_l: int
    lt1: list[int]
    le: list[int]
    rates: list[int]
    at_t1: list[int]


def line_table(p: Polytope, t1: Vector, direction: Vector) -> LineTable:
    """The line's `LineTable`: 2m int dot products for m facets."""
    *lifted, big_l = lift([*t1, *direction, 1])
    lt1, le = lifted[: p.dim], lifted[p.dim :]
    rates, at_t1 = [], []
    for f in p.facets:
        n = f.hyperplane.normal
        rates.append(sum(map(mul, n, le)))
        at_t1.append(sum(map(mul, n, lt1)) - big_l * f.hyperplane.offset)
    return LineTable(big_l, lt1, le, rates, at_t1)


def _relint_point(p: Polytope, facet_index: int, rng: random.Random, bound: int) -> Vector:
    """Random positive rational convex combination of the facet's vertices,
    summed on their lifted ints V·v_i: sum w_i·V·v_i / (V·sum w_i)."""
    idx = sorted(p.facets[facet_index].vertex_indices)
    weights = [rng.randint(1, bound) for _ in idx]
    scale, points = p.lifted
    den = scale * sum(weights)
    return tuple(Fraction(sum(map(mul, weights, c)), den) for c in zip(*(points[i] for i in idx)))


def other_facet(rng: random.Random, nf: int, i: int) -> int:
    """A facet index drawn uniformly from the nf - 1 others than i."""
    j = rng.randrange(nf - 1)
    return j + 1 if j >= i else j


def sample_transversal(
    p: Polytope, seed: int, facet_pair: Optional[tuple[int, int]] = None
) -> TransversalLine:
    """Sample interior points on two facets until the joining line passes
    every general-position check; all checks land in the certificate.

    The line t1 + s*e must meet each facet hyperplane j, at s_j =
    -side_j(t1) / (n_j.e); as every face lies in a facet, it is then parallel
    to no face of dimension >= 1.  It must miss the affine hull of each face
    of dimension <= d-2: each lies in a ridge, whose hull is the meet of the
    hyperplanes of its two facets a and b, so s_a != s_b for every ridge.
    The incidence condition - the line's point on facet hyperplane i lies
    on the facet itself exactly for the two chosen facets - is a theorem
    given convexity, so its failure raises instead of resampling.

    All of it is read off the candidate's `LineTable`, in ints: n_j.e is
    A_j/L, so the line meets hyperplane j iff A_j != 0; s_j = -B_j/A_j, so
    a ridge (a, b) is missed iff B_a*A_b != B_b*A_a; and the side of facet
    i at the point on hyperplane j is (B_i*A_j - B_j*A_i) / (L*A_j), whose
    sign is sign(A_j) * sign(B_i*A_j - B_j*A_i).  The accepted line keeps
    its table and reads its points off it.
    """
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

    def attempt(bound: int) -> Optional[TransversalLine]:
        t1 = _relint_point(p, i1, rng, bound)
        t2 = _relint_point(p, i2, rng, bound)
        direction = vsub(t2, t1)
        table = line_table(p, t1, direction)
        rates, at_t1 = table.rates, table.at_t1
        if 0 in rates:  # a zero direction included
            return None
        if any(at_t1[a] * rates[b] == at_t1[b] * rates[a] for a, b in ridges):
            return None
        entries = [CertificateEntry("facet-not-parallel", (j,), True) for j in range(nf)]
        entries += [CertificateEntry("affine-miss", (a, b), True) for a, b in ridges]
        for j, (a_j, b_j) in enumerate(zip(rates, at_t1)):
            # Row j of the sign table: each facet's side at the point on
            # hyperplane j, 0 on facet j itself.
            sign = 1 if a_j > 0 else -1
            sides = [sign * (b_i * a_j - b_j * a_i) for a_i, b_i in zip(rates, at_t1)]
            if j in (i1, i2):
                good = all(side < 0 for i, side in enumerate(sides) if i != j)
            else:
                good = any(side > 0 for side in sides)
            entries.append(CertificateEntry("incidence", (j,), good))
            if not good:
                where = "off the relative interior" if j in (i1, i2) else "on the facet"
                raise GeneralPositionError(
                    f"general position violated: incidence check failed: the line "
                    f"meets the hyperplane of facet {j} {where}"
                )
        return TransversalLine(
            facet_pair=(i1, i2),
            t1=t1,
            t2=t2,
            direction=direction,
            certificate=tuple(entries),
            table=table,
        )

    return rejection_sample(
        f"transversal line through facets {i1} and {i2} for seed {seed}", 9, attempt
    )


def _cross(a, b) -> int:
    """The 2D cross product of the (alpha, beta) parts of two chart rows."""
    return a[0] * b[1] - a[1] * b[0]


def _along(row, r) -> int:
    """Rate of change of a chart row's left side along the direction r."""
    return row[0] * r[0] + row[1] * r[1]


def fold_flags(p: Polytope, face: Face, line: TransversalLine) -> tuple[FoldedFlag, FoldedFlag]:
    """Fold the face's two flags onto facets by walking out from its base
    point x in the plane section: O(m) integer work for m facets.

    In the chart t1 + u*direction + w*(x - t1) the point x sits at (0, 1)
    and facet j is the row alpha_j*u + beta_j*w <= gamma_j.  The facets
    through x cut out the cone of directions in which the section leaves x.
    Its two extreme rays are the directions of the two sides at x; a side
    lies in the facets through x whose row is constant along it, and a
    ratio test over the other facets finds its far vertex.  The base point
    must be a vertex of the section and the two sides must lie in one facet
    each, two different ones; all of this follows from the certificate, so
    a violation raises GeneralPositionError.

    The rows are ints, read off the facets' integer planes (n_j, b_j), the
    vertices lifted to V*v (`Polytope.lifted`) and the line's `LineTable`:
    L, L*t1, L*e and per facet A_j = n_j.(L*e) and B_j = n_j.(L*t1) -
    L*b_j.  With X the sum of the lifted vertices of the face, so x =
    X/(V|F|), G = L*X - V|F|*L*t1 = V|F|*L*(x - t1) and sigma_j = n_j.X -
    V|F|*b_j, the one product per facet per face, row j is (V|F|*A_j,
    n_j.G, -L*sigma_j) with n_j.G = L*sigma_j - V|F|*B_j: the rational row
    times the positive V*|F|*L.  A positive scale per row moves no sign,
    ray or ratio.  A side that leaves x along the ray r and ends at t =
    num/den ends at x + t*(r_0*e + r_1*(x - t1)), an int over den*V|F|*L in
    each coordinate.  The sides are ordered on those ints too, and both
    segment ends are kept as ints, so the walk builds no Fraction.
    """
    table, (scale, points) = line.table, p.lifted
    big_l = table.big_l
    idx = sorted(face.vertex_indices)
    vf = scale * len(idx)
    big_x = [sum(c) for c in zip(*(points[v] for v in idx))]
    # (alpha_j, beta_j, slack_j): the slack of facet j at x is gamma_j - beta_j.
    rows = []
    for f, a_j, b_j in zip(p.facets, table.rates, table.at_t1):
        at_x = sum(map(mul, f.hyperplane.normal, big_x)) - vf * f.hyperplane.offset
        rows.append((vf * a_j, big_l * at_x - vf * b_j, -big_l * at_x))

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
        # Ratio test: the side ends where the first other facet turns tight,
        # at the least slack / rate, compared by cross-multiplying.
        num, den = 0, 0
        r0, r1 = r
        for alpha, beta, slack in rows:
            d = alpha * r0 + beta * r1  # _along, inlined in the hot loop
            if d > 0 and (not den or slack * den < num * d):
                num, den = slack, d
        sides.append((facets, (num, den, r)))
    # Check the side with the lower facet index first.  Two sides share one
    # only when a facet's hyperplane holds the whole plane; then the side
    # with the lower far vertex (t*r_0, 1 + t*r_1), t = num/den, comes
    # first, compared in ints over the product D of the dens.
    big_d = math.prod(den for _, (_, den, _) in sides)

    def order(side):
        facets, (num, den, r) = side
        td = num * (big_d // den)  # t*D
        return facets[0], td * r[0], td * r[1]

    sides.sort(key=order)
    for facets, _ in sides:
        if len(facets) != 1:
            raise violated(f"a section side lies in facets {facets}, not in one")
    if len(sides) == 2 and sides[0][0] == sides[1][0]:
        raise violated(f"two section sides lie in facet {sides[0][0][0]}")
    if len(sides) != 2:
        raise violated(
            f"the section sides lie in facets {[f[0] for f, _ in sides]}, not in two"
        )

    value = _VALUES[face.dimension % 2]
    x_den, (x,) = reduce_lifted(vf, [big_x])
    big_g = [big_l * xc - vf * tc for xc, tc in zip(big_x, table.lt1)]
    flags = []
    for [facet_idx], (num, den, r) in sides:
        # end = x + t*(r_0*e + r_1*(x - t1)), an int over den*V|F|*L.
        end = [
            den * big_l * xc + num * (vf * r[0] * ec + r[1] * gc)
            for xc, ec, gc in zip(big_x, table.le, big_g)
        ]
        end_den, (end,) = reduce_lifted(den * vf * big_l, [end])
        flags.append(
            FoldedFlag(
                base_face=face,
                assigned_facet=facet_idx,
                segment=((*x, x_den), (*end, end_den)),
                value=value,
            )
        )
    return flags[0], flags[1]


def flag_collinear_with_assigned_point(flag: FoldedFlag, line: TransversalLine) -> bool:
    """Whether the flag's segment line passes through the line's point t on
    its assigned facet's hyperplane (exact): the affine rank of the two
    segment ends and t, on ints over one common denominator.  t is read
    from `line.lifted_points`, never from the rows that placed the segment."""
    points = (*flag.segment, line.lifted_points[flag.assigned_facet])
    den = math.lcm(*(q[-1] for q in points))
    return len(affine_basis([[c * (den // q[-1]) for c in q[:-1]] for q in points])) <= 2


@dataclass
class FoldedReport:
    """Per-facet folded-flag sums with their full identity chains (fields
    in report key order)."""

    proof: str = field(default="folded", init=False)
    dimension: int
    facet_pair: tuple[int, int]
    seed: Optional[int]
    special_pair_sum: Fraction
    expected_special: Fraction
    per_facet_sums: dict[int, Fraction]
    expected_per_facet: Fraction
    total_by_base: Fraction
    total_by_facet: Fraction
    lhs_needed: Fraction
    rhs_needed: Fraction
    flag_count: int
    failures: list[str] = field(default_factory=list)

    @property
    def total(self) -> Fraction:
        return self.total_by_facet

    @property
    def passed(self) -> bool:
        return not self.failures


def facet_assignment_sums(
    p: Polytope, line: TransversalLine, seed: Optional[int] = None
) -> FoldedReport:
    """Fold every flag, group by assigned facet, and check all identities.

    The two chosen facets get exactly one flag per own face and together sum
    to 1-(-1)^k; every other facet is checked face-by-face against its
    central-projection shadow from the line's exterior point and sums to
    -(-1)^k; the grand total is checked both ways against the alternating
    face-count sum.
    """
    k = p.dim - 1
    sign_k = (-1) ** k
    lat = face_lattice(p)
    failures: list[str] = []

    # fold_flags raises unless a face's two flags go to two different facets.
    flags: list[FoldedFlag] = []
    for c in range(0, k):
        for face in lat.faces(c):
            flags.extend(fold_flags(p, face, line))

    sums = {i: Fraction(0) for i in range(len(p.facets))}
    received: dict[int, Counter] = {i: Counter() for i in sums}
    for flag in flags:
        if not flag_collinear_with_assigned_point(flag, line):
            base = format_point(rational_point(flag.segment[0]))
            failures.append(f"flag at {base} not collinear with its facet point")
        sums[flag.assigned_facet] += flag.value
        received[flag.assigned_facet][flag.base_face.vertex_indices] += 1

    i1, i2 = line.facet_pair
    expected_special = Fraction(1 - sign_k)
    expected_per_facet = Fraction(-sign_k)

    for i in sums:
        # A chosen facet takes one flag per own face; any other facet is
        # checked against its shadow from the line's point on its hyperplane.
        t_poly = facet_polytope(p, i)
        if i in line.facet_pair:
            label, expected, shadow = f"special facet {i}", expected_special / 2, None
        else:
            *x, x_den = line.lifted_points[i]
            den, (w,) = t_poly.frame.chart(x_den, [x])
            label, expected = f"facet {i}", expected_per_facet
            shadow = project_from_point(t_poly, rational_point((*w, den)))
        check_piece(failures, label, t_poly, p.vertices, received[i], sums[i], expected, shadow)
    if sums[i1] + sums[i2] != expected_special:
        failures.append(
            f"special pair sum {sums[i1] + sums[i2]} != {expected_special}"
        )

    total_by_base, total_by_facet, lhs, rhs = check_totals(
        failures,
        f_vector(lat),
        (f.value for f in flags),
        sums.values(),
        "facet",
        expected_special + (len(p.facets) - 2) * expected_per_facet,
    )

    return FoldedReport(
        dimension=p.dim,
        facet_pair=line.facet_pair,
        seed=seed,
        special_pair_sum=sums[i1] + sums[i2],
        per_facet_sums={i: v for i, v in sums.items() if i not in line.facet_pair},
        total_by_base=total_by_base,
        total_by_facet=total_by_facet,
        expected_special=expected_special,
        expected_per_facet=expected_per_facet,
        lhs_needed=lhs,
        rhs_needed=rhs,
        flag_count=len(flags),
        failures=failures,
    )


def verify_proof_folded(
    p: Polytope, seed: int, facet_pair: Optional[tuple[int, int]] = None
) -> FoldedReport:
    """Sample a certified transversal line and run the full folded check."""
    with naming_seed(seed):
        line = sample_transversal(p, seed, facet_pair)
        return facet_assignment_sums(p, line, seed=seed)
