"""The acceptance matrix: every release criterion as a callable check.

The selftest subcommand and the acceptance test suite both run this
matrix, so the command line and CI agree on what "done" means.  Every
check is exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GeneralPositionError, SamplingBudgetError
from .euler import euler_alternating_sum, f_vector
from .folded_flags import sample_transversal, verify_proof_folded
from .linalg import Hyperplane, dot
from .polytope import ORACLE_BOUND, brute_force_face_lattice, face_lattice, generate
from .projection import beyond_point, project_from_point
from .schlegel_flags import verify_proof_schlegel


@dataclass
class CriterionOutcome:
    number: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)


FAMILY_SPECS = [
    f"{family}:{d}"
    for family in ("simplex", "cube", "crosspolytope")
    for d in range(1, 7)
]
RANDOM_SPECS = [("random:3,8,10", s) for s in range(20)] + [
    ("random:4,10,10", s) for s in range(20)
]

SCHLEGEL_TARGETS = [
    # spec, facets, expected per-cell sum, expected total
    ("cube:4", (0, 3), Fraction(1), Fraction(8)),
    ("cube:3", (0,), Fraction(-1), Fraction(-4)),
    ("simplex:3", (0,), Fraction(-1), Fraction(-2)),
    ("simplex:4", (0,), Fraction(1), Fraction(5)),
]

FOLDED_TARGETS = [
    # spec, facet pairs, expected special sum, per-facet sum, total
    ("cube:4", ((0, 3), (6, 7)), Fraction(2), Fraction(1), Fraction(8)),
    ("cube:3", ((0, 5), (1, 2)), Fraction(0), Fraction(-1), Fraction(-4)),
    ("simplex:4", ((0, 1), (2, 4)), Fraction(2), Fraction(1), Fraction(5)),
]

SEEDS = range(5)


def _outcome(number: int, title: str, failures: list[str], details: list[str]) -> CriterionOutcome:
    return CriterionOutcome(
        number=number,
        title=title,
        passed=not failures,
        details=details + failures,
    )


def criterion_1() -> CriterionOutcome:
    """Alternating sum equals 1 on all families and seeded random hulls."""
    failures: list[str] = []
    started = time.monotonic()
    count = 0
    for spec in FAMILY_SPECS:
        if euler_alternating_sum(f_vector(face_lattice(generate(spec)))) != 1:
            failures.append(f"{spec}: alternating sum != 1")
        count += 1
    for spec, seed in RANDOM_SPECS:
        p = generate(spec, seed)
        if euler_alternating_sum(f_vector(face_lattice(p))) != 1:
            failures.append(f"{spec} seed {seed}: alternating sum != 1")
        count += 1
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    return _outcome(
        1,
        "Euler alternating sum = 1 (families d=1..6, 40 random hulls)",
        failures,
        [f"{count} polytopes in {elapsed:.1f}s"],
    )


def criterion_2() -> CriterionOutcome:
    """Fast face lattice matches the brute-force oracle exactly."""
    failures: list[str] = []
    compared = 0
    cases = [(spec, None) for spec in FAMILY_SPECS] + RANDOM_SPECS
    for spec, seed in cases:
        p = generate(spec, seed) if seed is not None else generate(spec)
        if len(p.vertices) > ORACLE_BOUND:
            continue
        oracle = brute_force_face_lattice(p, bound=ORACLE_BOUND)
        if not face_lattice(p).same_faces(oracle):
            failures.append(f"{spec} seed {seed}: lattice disagrees with oracle")
        compared += 1
    return _outcome(
        2,
        f"face lattice matches the brute-force oracle (<= {ORACLE_BOUND} vertices)",
        failures,
        [f"{compared} polytopes compared"],
    )


def _schlegel_runs(targets, failures: list[str]) -> list:
    """Run the Schlegel proof on every target facet and seed, checking its
    sums; return the (label, report) pairs."""
    runs = []
    for spec, facets, per_cell, total in targets:
        p = generate(spec)
        for facet in facets:
            for seed in SEEDS:
                label = f"{spec} facet {facet} seed {seed}"
                r = verify_proof_schlegel(p, facet, seed)
                if r.cell_count != len(r.per_cell_sums):
                    failures.append(f"{label}: cell bookkeeping broken")
                if any(v != per_cell for v in r.per_cell_sums.values()):
                    failures.append(f"{label}: a per-cell sum differs from {per_cell}")
                if r.outside_sum != 1:
                    failures.append(f"{label}: outside sum {r.outside_sum} != 1")
                if not (r.total == r.lhs_needed == r.rhs_needed == total):
                    failures.append(f"{label}: total {r.total} != {total}")
                failures.extend(f"{label}: {f}" for f in r.failures)
                runs.append((label, r))
    return runs


def criterion_3() -> CriterionOutcome:
    """Schlegel proof on the 4-cube: 7 cells, +1 each, outside 1, total 8."""
    failures: list[str] = []
    runs = _schlegel_runs(SCHLEGEL_TARGETS[:1], failures)
    failures += [f"{label}: {r.cell_count} cells != 7" for label, r in runs if r.cell_count != 7]
    return _outcome(
        3,
        "Schlegel proof on cube:4 (7 cells, per-cell +1, outside 1, total 8)",
        failures,
        [f"{len(runs)} runs (2 facets x {len(SEEDS)} seeds)"],
    )


def criterion_4() -> CriterionOutcome:
    """Schlegel proof on cube:3, simplex:3, simplex:4."""
    failures: list[str] = []
    runs = _schlegel_runs(SCHLEGEL_TARGETS[1:], failures)
    return _outcome(
        4,
        "Schlegel proof on cube:3, simplex:3, simplex:4 (totals -4, -2, +5)",
        failures,
        [f"{len(runs)} runs"],
    )


def criterion_5() -> CriterionOutcome:
    """Projection criterion holds for every (face, cell) pair.

    Every Schlegel run checks each cell, and the outside, face by face
    against its shadow; this copies the failures of one run per target.
    """
    failures: list[str] = []
    for spec, facets, _, _ in SCHLEGEL_TARGETS:
        r = verify_proof_schlegel(generate(spec), facets[0], 0)
        failures.extend(f"{spec}: {f}" for f in r.failures)
    return _outcome(
        5,
        "projection criterion exhaustive over all (face, cell) pairs",
        failures,
        [f"{len(SCHLEGEL_TARGETS)} complexes checked exhaustively"],
    )


def criterion_6() -> CriterionOutcome:
    """Folded-flag proof batteries with per-flag invariants.

    Each run checks the invariants itself: facet_assignment_sums reports a
    flag not collinear with its facet point as a failure, copied here, and
    fold_flags raises unless a face's two flags go to two different facets,
    which run_all turns into a FAIL.
    """
    failures: list[str] = []
    runs = 0
    for spec, pairs, special, per_facet, total in FOLDED_TARGETS:
        p = generate(spec)
        for pair in pairs:
            for seed in SEEDS:
                label = f"{spec} pair {pair} seed {seed}"
                r = verify_proof_folded(p, seed, facet_pair=pair)
                if r.special_pair_sum != special:
                    failures.append(
                        f"{label}: special sum {r.special_pair_sum} != {special}"
                    )
                if any(v != per_facet for v in r.per_facet_sums.values()):
                    failures.append(f"{label}: a per-facet sum differs from {per_facet}")
                if not (r.total == r.lhs_needed == r.rhs_needed == total):
                    failures.append(f"{label}: total {r.total} != {total}")
                if not r.passed:
                    failures.extend(f"{label}: {f}" for f in r.failures)
                runs += 1
    return _outcome(
        6,
        "folded proof batteries (cube:4, cube:3, simplex:4) + flag invariants",
        failures,
        [f"{runs} runs (2 pairs x {len(SEEDS)} seeds each)"],
    )


def criterion_7() -> CriterionOutcome:
    """The transversal line meets exactly the two chosen facets."""
    failures: list[str] = []
    checked = 0
    for spec, pairs, _, _, _ in FOLDED_TARGETS:
        p = generate(spec)
        for pair in pairs:
            for seed in SEEDS:
                line = sample_transversal(p, seed, facet_pair=pair)
                for j in range(len(p.facets)):
                    hit = line.facet_points[j]
                    if j in pair:
                        if not p.in_relative_interior_of_facet(hit, j):
                            failures.append(
                                f"{spec} pair {pair} seed {seed}: t_{j} not interior"
                            )
                    elif p.contains(hit):
                        failures.append(
                            f"{spec} pair {pair} seed {seed}: t_{j} lies on facet {j}"
                        )
                checked += 1
    return _outcome(
        7,
        "line meets facet i's hyperplane on the facet iff i is in the pair",
        failures,
        [f"{checked} lines checked"],
    )


def criterion_8() -> CriterionOutcome:
    """Flag partition: 100 seeded proof runs, no ambiguous classification."""
    failures: list[str] = []
    polytopes = [
        generate("cube:3"),
        generate("simplex:3"),
        generate("crosspolytope:3"),
        generate("random:3,8,10", 5),
    ]
    runs = 0
    for p in polytopes:
        for seed in range(25):
            try:
                r = verify_proof_schlegel(p, seed % len(p.facets), seed)
            except (GeneralPositionError, SamplingBudgetError) as e:
                failures.append(f"seed {seed}: {e}")
                continue
            if r.total_by_base != r.total_by_classification:
                failures.append(f"seed {seed}: a flag was lost or double-counted")
            if not r.passed:
                failures.extend(f"seed {seed}: {f}" for f in r.failures)
            runs += 1
    return _outcome(
        8,
        "every flag classified exactly once across 100 seeded runs (d=3)",
        failures,
        [f"{runs} proof runs"],
    )


def _tilted_screen(p, apex) -> Hyperplane:
    """A second admissible screen: tilt the default normal until strict
    separation still holds, then place the screen halfway."""
    violated = next(f.hyperplane for f in p.facets if f.hyperplane.side(apex) > 0)
    n = violated.normal
    for t in range(1, 64):
        eps = Fraction(1, 2**t)
        for axis in range(p.dim):
            n2 = tuple(c + eps * (1 if i == axis else 0) for i, c in enumerate(n))
            hi = max(dot(n2, v) for v in p.vertices)
            lo = dot(n2, apex)
            if lo > hi:
                return Hyperplane(n2, (hi + lo) / 2)
    raise AssertionError("no tilted screen found")


def criterion_9() -> CriterionOutcome:
    """Two admissible screens give identical shadow face structure."""
    failures: list[str] = []
    instances = 0
    for seed in range(10):
        p = generate("random:3,8,10", seed)
        apex = beyond_point(p, 0)
        sh_default = project_from_point(p, apex)
        sh_tilted = project_from_point(p, apex, _tilted_screen(p, apex))
        if sh_default.face_image != sh_tilted.face_image:
            failures.append(f"seed {seed}: face-image maps differ")
        if sh_default.face_source_labels() != sh_tilted.face_source_labels():
            failures.append(f"seed {seed}: shadow face lattices differ")
        instances += 1
    return _outcome(
        9,
        "screen independence of central-projection shadows (10 instances)",
        failures,
        [f"{instances} (source, apex) instances"],
    )


def criterion_10() -> CriterionOutcome:
    """All reported sums are seed-invariant."""
    failures: list[str] = []
    for spec, facets, _, _ in SCHLEGEL_TARGETS:
        p = generate(spec)
        seen = {
            (
                tuple(sorted(r.per_cell_sums.items())),
                r.outside_sum,
                r.total,
            )
            for r in (verify_proof_schlegel(p, facets[0], s) for s in SEEDS)
        }
        if len(seen) != 1:
            failures.append(f"{spec}: schlegel sums vary with the seed")
    for spec, pairs, _, _, _ in FOLDED_TARGETS:
        p = generate(spec)
        seen = {
            (
                r.special_pair_sum,
                tuple(sorted(r.per_facet_sums.items())),
                r.total,
            )
            for r in (
                verify_proof_folded(p, s, facet_pair=pairs[0]) for s in SEEDS
            )
        }
        if len(seen) != 1:
            failures.append(f"{spec}: folded sums vary with the seed")
    return _outcome(
        10,
        "seed invariance of every reported sum",
        failures,
        [],
    )


def criterion_11() -> CriterionOutcome:
    """SVG fidelity: 16 vertex marks / 32 edge paths on cube:4; 5 cells on
    cube:3; byte-identical across runs."""
    from .cli import main as cli_main
    from .jsonio import dumps, polytope_to_document

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec, counts in [
            ("cube:4", {"<circle": 16, "<path": 32}),
            ("cube:3", {"<polygon": 5}),
        ]:
            doc_path = os.path.join(tmp, f"{spec.replace(':', '')}.json")
            with open(doc_path, "w", encoding="utf-8") as fh:
                fh.write(dumps(polytope_to_document(generate(spec), name=spec)))
            outputs = []
            for run in range(2):
                svg_path = os.path.join(tmp, f"{spec.replace(':', '')}-{run}.svg")
                code = cli_main(
                    ["schlegel-svg", doc_path, "--facet", "0", "-o", svg_path]
                )
                if code != 0:
                    failures.append(f"{spec}: schlegel-svg exited {code}")
                    continue
                with open(svg_path, "rb") as fh:
                    outputs.append(fh.read())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                failures.append(f"{spec}: SVG output is not byte-identical")
            text = outputs[0].decode("utf-8") if outputs else ""
            for marker, expected in counts.items():
                got = text.count(marker)
                if got != expected:
                    failures.append(f"{spec}: {got} x {marker!r}, expected {expected}")
    return _outcome(
        11,
        "SVG figures: cube:4 wireframe 16 vertices/32 edges; cube:3 5 cells",
        failures,
        [],
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all() -> list[CriterionOutcome]:
    """Run every criterion.  One that raises is a FAIL naming the exception,
    and the rest still run."""
    outcomes = []
    for number, fn in enumerate(ALL_CRITERIA, 1):
        try:
            outcomes.append(fn())
        except Exception as e:
            outcomes.append(
                _outcome(number, fn.__name__, [f"raised {type(e).__name__}: {e}"], [])
            )
    return outcomes
