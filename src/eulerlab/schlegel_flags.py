"""Signed-flag double counting on a Schlegel complex.

Every face of the complex of dimension 0..k-1 gets two flags (opposite
directions of a certified general-position line, value (1/2)(-1)^c each).
Each flag lands in exactly one cell or escapes the carrier; summing per
cell, over the escapees, and over base faces yields an identity chain that
is checked exactly, term by term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import GeneralPositionError, SamplingBudgetError
from .euler import RANGE_DOUBLING_PERIOD, SAMPLE_BUDGET, f_vector, half_alternating_sum
from .linalg import SpanBuilder, Vector, is_zero, vscale, vsub
from .polytope import Polytope, face_lattice
from .projection import ComplexFace, SchlegelComplex, Shadow, project_along, schlegel

OUTSIDE = "outside"
Classification = Union[int, str]


@dataclass(frozen=True)
class CertificateEntry:
    """One exact non-parallelism check backing a sampled direction."""

    dimension: int
    face_index: int
    independent: bool


@dataclass(frozen=True)
class GeneralLine:
    """A direction certified non-parallel to every complex face of dim >= 1."""

    direction: Vector
    certificate: tuple[CertificateEntry, ...]


@dataclass(frozen=True)
class Flag:
    """Half of a flag pair: a direction attached at a face's base point."""

    base_face: ComplexFace
    base_point: Vector
    orientation: int
    direction: Vector
    value: Fraction


def sample_general_line(complex: SchlegelComplex, seed: int) -> GeneralLine:
    """Rejection-sample an integer direction within the carrier frame.

    Accepts iff appending the direction to every face's direction basis
    (faces of dimension 1..k-1) increases its rank; the certificate records
    each check.  The coordinate range doubles every 32 rejected tries.
    """
    rng = random.Random(seed)
    k = complex.dim
    spans = []
    for c in range(1, k):
        for idx, face in enumerate(complex.faces(c)):
            pts = sorted(face.points)
            sb = SpanBuilder(k)
            for q in pts[1:]:
                sb.add(vsub(q, pts[0]))
            spans.append((c, idx, sb))
    bound = 4
    for attempt in range(SAMPLE_BUDGET):
        if attempt and attempt % RANGE_DOUBLING_PERIOD == 0:
            bound *= 2
        cand = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(k))
        if is_zero(cand):
            continue
        entries = tuple(
            CertificateEntry(c, idx, not sb.contains(cand)) for c, idx, sb in spans
        )
        if all(e.independent for e in entries):
            return GeneralLine(direction=cand, certificate=entries)
    raise SamplingBudgetError("no general direction found")


def place_flags(complex: SchlegelComplex, q: GeneralLine) -> list[Flag]:
    """Two flags (+q and -q) at the vertex barycenter of every proper face."""
    flags = []
    for c in sorted(complex.faces_by_dimension):
        value = Fraction((-1) ** c, 2)
        for face in complex.faces(c):
            for orientation in (1, -1):
                flags.append(
                    Flag(
                        base_face=face,
                        base_point=face.base_point,
                        orientation=orientation,
                        direction=vscale(q.direction, orientation),
                        value=value,
                    )
                )
    return flags


def _classify(complex: SchlegelComplex, base: Vector, direction: Vector) -> Classification:
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
    raise GeneralPositionError("general position violated")


def classify_flag(flag: Flag, complex: SchlegelComplex) -> Classification:
    """The unique cell whose tangent cone at the base point contains the
    flag, or OUTSIDE when the flag leaves the carrier."""
    return _classify(complex, flag.base_point, flag.direction)


@dataclass
class CriterionResult:
    ok: bool
    counterexample: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_projection_criterion(
    complex: SchlegelComplex,
    q: GeneralLine,
    shadows: Optional[dict[int, Shadow]] = None,
) -> CriterionResult:
    """Exhaustively check, for every (cell, face) pair, that flag membership
    matches the shadow predicate: a (k-1)-face always contributes exactly
    one flag to its cell; a lower face contributes one iff its image is not
    a face of the cell's shadow, and zero otherwise."""
    k = complex.dim
    for i, cell in enumerate(complex.cells):
        shadow = (
            shadows[i] if shadows is not None else project_along(cell, q.direction)
        )
        lat = face_lattice(cell)
        for c in range(k):
            for face in lat.faces(c):
                base = ComplexFace(frozenset(cell.face_points(face)), c).base_point
                got = sum(
                    _classify(complex, base, vscale(q.direction, s)) == i
                    for s in (1, -1)
                )
                if c == k - 1:
                    expected = 1
                else:
                    expected = 0 if shadow.is_face_image(face) else 1
                if got != expected:
                    return CriterionResult(
                        ok=False,
                        counterexample={
                            "cell": i,
                            "face_dimension": c,
                            "face_vertices": sorted(
                                sorted(v) for v in cell.face_points(face)
                            ),
                            "expected": expected,
                            "got": got,
                        },
                    )
    return CriterionResult(ok=True)


@dataclass
class ProofReport:
    """Every identity in the flag double count, checked exactly."""

    dimension: int
    facet_index: int
    seed: int
    cell_count: int
    per_cell_sums: dict[int, Fraction]
    outside_sum: Fraction
    total_by_base: Fraction
    total_by_classification: Fraction
    expected_per_cell: Fraction
    expected_outside: Fraction
    lhs_needed: Fraction
    rhs_needed: Fraction
    flag_count: int
    failures: list[str] = field(default_factory=list)

    @property
    def total(self) -> Fraction:
        return self.total_by_classification

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_proof_schlegel(p: Polytope, facet_index: int, seed: int) -> ProofReport:
    """Build the complex, distribute and classify all flags, and check the
    per-cell, outside, and grand-total identities with their full chains."""
    complex = schlegel(p, facet_index)
    q = sample_general_line(complex, seed)
    flags = place_flags(complex, q)
    k = complex.dim
    sign_k = (-1) ** k
    failures: list[str] = []

    per_cell = {i: Fraction(0) for i in range(complex.a)}
    outside_sum = Fraction(0)
    for j in range(0, len(flags), 2):
        pair = flags[j], flags[j + 1]
        kinds = [classify_flag(f, complex) for f in pair]
        if kinds[0] == kinds[1] and kinds[0] != OUTSIDE:
            failures.append(
                f"both flags of a dim-{pair[0].base_face.dimension} base point "
                f"landed in cell {kinds[0]}"
            )
        for f, kind in zip(pair, kinds):
            if kind == OUTSIDE:
                outside_sum += f.value
            else:
                per_cell[kind] += f.value

    expected_per_cell = Fraction((-1) ** (k - 1))
    expected_outside = Fraction(1)

    for i, cell in enumerate(complex.cells):
        fv = f_vector(face_lattice(cell))
        shadow = project_along(cell, q.direction)
        gv = f_vector(face_lattice(shadow.polytope))
        if fv[k] != 1 or gv[k - 1] != 1:
            failures.append(f"cell {i}: top-face counts are {fv[k]}, {gv[k - 1]}")
        via_counts = half_alternating_sum(fv, k - 1) - half_alternating_sum(gv, k - 2)
        via_tops = Fraction(1 - sign_k * fv[k], 2) - Fraction(
            1 + sign_k * gv[k - 1], 2
        )
        actual = per_cell[i]
        if not (actual == via_counts == via_tops == expected_per_cell):
            failures.append(
                f"cell {i}: sum chain {actual} = {via_counts} = {via_tops} "
                f"= {expected_per_cell} broken"
            )

    fv0 = f_vector(face_lattice(complex.carrier))
    gv0 = f_vector(
        face_lattice(project_along(complex.carrier, q.direction).polytope)
    )
    out_via_counts = half_alternating_sum(fv0, k - 1) + half_alternating_sum(gv0, k - 2)
    out_via_tops = Fraction(1 - sign_k * fv0[k], 2) + Fraction(
        1 + sign_k * gv0[k - 1], 2
    )
    if not (outside_sum == out_via_counts == out_via_tops == expected_outside):
        failures.append(
            f"outside sum chain {outside_sum} = {out_via_counts} = "
            f"{out_via_tops} = {expected_outside} broken"
        )

    f_p = f_vector(face_lattice(p))
    lhs = Fraction(sum((-1) ** c * f_p[c] for c in range(k)))
    rhs = 1 + sign_k * (1 - f_p[k])
    total_by_base = sum((f.value for f in flags), Fraction(0))
    total_by_cls = sum(per_cell.values(), outside_sum)
    if total_by_base != lhs:
        failures.append(f"flag total {total_by_base} != alternating sum {lhs}")
    if total_by_base != total_by_cls:
        failures.append(
            f"double count broken: {total_by_base} by base, "
            f"{total_by_cls} by classification"
        )
    if total_by_cls != expected_per_cell * complex.a + 1:
        failures.append(
            f"classified total {total_by_cls} != "
            f"{expected_per_cell} * {complex.a} + 1"
        )
    if lhs != rhs:
        failures.append(f"needed identity broken: {lhs} != {rhs}")

    return ProofReport(
        dimension=p.dim,
        facet_index=complex.facet_index,
        seed=seed,
        cell_count=complex.a,
        per_cell_sums=per_cell,
        outside_sum=outside_sum,
        total_by_base=total_by_base,
        total_by_classification=total_by_cls,
        expected_per_cell=expected_per_cell,
        expected_outside=expected_outside,
        lhs_needed=lhs,
        rhs_needed=rhs,
        flag_count=len(flags),
        failures=failures,
    )
