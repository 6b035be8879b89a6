"""Signed-flag double counting on a Schlegel complex.

Every face of the complex of dimension 0..k-1 gets two flags (opposite
directions of a certified general-position line, value (1/2)(-1)^c each).
Each flag lands in exactly one cell or escapes the carrier.  That cell is
found by face incidence: among the cells having the flag's base face as a
face, read off one sign table per line (the sign of each facet's int normal
times the line's int direction).  A flag is its face and orientation; only
a failure text computes its base point.  Every cell, and the outside, is
checked face by face against its shadow along the line (a face's flags land
in it once, or per the shadow); summing per cell, over the escapees, and
over base faces yields an identity chain that is checked exactly, term by
term.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Union

from .errors import GeneralPositionError, naming_seed
from .euler import CertificateEntry, check_piece, check_totals, f_vector, rejection_sample
from .linalg import barycenter, format_point
from .polytope import Polytope, face_lattice
from .projection import ComplexFace, SchlegelComplex, SignTable, project_along, schlegel

OUTSIDE = "outside"
Classification = Union[int, str]


@dataclass(frozen=True)
class GeneralLine:
    """A direction certified non-parallel to every complex face of dim >= 1:
    one "facet-not-parallel" entry per facet of every cell."""

    direction: tuple[int, ...]
    certificate: tuple[CertificateEntry, ...]


@dataclass(frozen=True)
class Flag:
    """Half of a flag pair: the line's direction times `orientation` (+1 or
    -1), attached at the vertex barycenter of `base_face`."""

    base_face: ComplexFace
    orientation: int
    value: Fraction


def sample_general_line(complex: SchlegelComplex, seed: int) -> GeneralLine:
    """Rejection-sample an integer direction within the carrier frame.

    Draws int candidates and accepts a nonzero one iff no cell facet's int
    normal has product 0 with it; the first 0 rejects it, and the accepted
    one keeps its ints.  That is non-parallelism to every complex face of
    dimension 1..k-1: each lies in a cell facet, whose direction space is
    its normal's orthogonal complement, and each cell facet is such a face.
    The certificate has one entry per cell facet.  The coordinate range
    doubles every 32 rejected tries.
    """
    rng = random.Random(seed)
    k = complex.dim

    def attempt(bound: int) -> Optional[GeneralLine]:
        cand = [rng.randint(-bound, bound) for _ in range(k)]
        normals = (f.hyperplane.normal for cell in complex.cells for f in cell.facets)
        if not any(cand) or any(sum(map(mul, n, cand)) == 0 for n in normals):
            return None
        entries = tuple(
            CertificateEntry("facet-not-parallel", (i, h), True)
            for i, cell in enumerate(complex.cells)
            for h in range(len(cell.facets))
        )
        return GeneralLine(direction=tuple(cand), certificate=entries)

    return rejection_sample(f"general direction for seed {seed}", 4, attempt)


def place_flags(complex: SchlegelComplex) -> list[Flag]:
    """Two flags, orientations +1 and -1, at every proper face."""
    return [
        Flag(base_face=face, orientation=orientation, value=Fraction((-1) ** c, 2))
        for c in sorted(complex.faces_by_dimension)
        for face in complex.faces(c)
        for orientation in (1, -1)
    ]


def classify_flag(flag: Flag, complex: SchlegelComplex, signs: SignTable) -> Classification:
    """The unique cell whose tangent cone at the base point contains the
    flag, or OUTSIDE when the flag leaves the carrier.

    The base point lies in the relative interior of the base face, and the
    complex is face-to-face, so the cells holding it are the cells that
    have the base face as a face, and the facets through it are the facets
    containing that face.  A cell takes the flag when the flag's direction
    has a product <= 0 with the outer normal of each such facet; the flag
    leaves when that product is > 0 for some carrier facet through the
    face.  The signs of the products come from `signs`, the complex's sign
    table for the flag's line (`SchlegelComplex.facet_signs`), so no flag
    evaluates a facet.  Only the failure text computes the base point.
    """
    face, o = flag.base_face, flag.orientation
    cell_signs, carrier_signs = signs
    hits = [
        i for i, through in face.cells if all(o * cell_signs[i][h] <= 0 for h in through)
    ]
    escapes = any(o * carrier_signs[h] > 0 for h in face.carrier_facets)
    if len(hits) == 1 and not escapes:
        return hits[0]
    if not hits and escapes:
        return OUTSIDE
    raise GeneralPositionError(
        "general position violated: the flag at base point "
        f"{format_point(barycenter(complex.face_points(face)))} "
        f"enters cells {hits} and {'leaves' if escapes else 'stays in'} the carrier, "
        f"not exactly one of them"
    )


@dataclass
class ProofReport:
    """Every identity in the flag double count, checked exactly (fields in
    report key order)."""

    proof: str = field(default="schlegel", init=False)
    dimension: int
    facet_index: int
    seed: int
    cell_count: int
    per_cell_sums: dict[int, Fraction]
    expected_per_cell: Fraction
    outside_sum: Fraction
    expected_outside: Fraction
    total_by_base: Fraction
    total_by_classification: Fraction
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
    """Build the complex, distribute and classify all flags, check every
    cell and the outside face by face against its shadow, and check the
    per-cell, outside, and grand-total identities with their full chains."""
    with naming_seed(seed):
        complex = schlegel(p, facet_index)
        q = sample_general_line(complex, seed)
        signs = complex.facet_signs(q.direction)
        flags = place_flags(complex)
        k = complex.dim
        failures: list[str] = []

        # Per cell and for the outside: the flag sum and the flags at each face.
        sums = {kind: Fraction(0) for kind in [*range(complex.a), OUTSIDE]}
        received: dict[Classification, Counter] = {kind: Counter() for kind in sums}
        for f in flags:
            kind = classify_flag(f, complex, signs)
            sums[kind] += f.value
            received[kind][f.base_face.vertex_indices] += 1
        outside_sum = sums.pop(OUTSIDE)

        expected_per_cell = Fraction((-1) ** (k - 1))
        expected_outside = Fraction(1)
        for i, cell in enumerate(complex.cells):
            shadow = project_along(cell, q.direction)
            check_piece(
                failures, f"cell {i}", cell, complex.images, received[i], sums[i],
                expected_per_cell, shadow,
            )
        check_piece(
            failures,
            "outside",
            complex.carrier,
            complex.images,
            received[OUTSIDE],
            outside_sum,
            expected_outside,
            project_along(complex.carrier, q.direction),
            sign=1,
        )
        total_by_base, total_by_cls, lhs, rhs = check_totals(
            failures,
            f_vector(face_lattice(p)),
            (f.value for f in flags),
            [*sums.values(), outside_sum],
            "classification",
            expected_per_cell * complex.a + 1,
        )

        return ProofReport(
            dimension=p.dim,
            facet_index=complex.facet_index,
            seed=seed,
            cell_count=complex.a,
            per_cell_sums=sums,
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
