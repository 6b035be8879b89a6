"""Command-line interface.

Subcommands: generate (family spec to JSON document), check (Euler
alternating sum), verify (flag-count proof harnesses), schlegel-svg
(deterministic diagram), selftest (the full acceptance matrix).

Exit codes: 0 all checks passed; 1 a mathematical identity failed or a
run could not be completed (the report carries the counterexample);
2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from datetime import datetime, timezone
from typing import Optional

from .errors import EulerlabError, GeneralPositionError, SamplingBudgetError
from .euler import euler_alternating_sum, f_vector
from .folded_flags import other_facet, verify_proof_folded
from .jsonio import (
    dumps,
    load_polytope,
    polytope_to_document,
    run_report,
)
from .linalg import format_rational
from .polytope import face_lattice, generate
from .projection import schlegel
from .schlegel_flags import verify_proof_schlegel
from .svg import render_schlegel_svg


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _timestamp(args) -> Optional[str]:
    if getattr(args, "stamp", False):
        return datetime.now(timezone.utc).isoformat()
    return None


def cmd_generate(args) -> int:
    p = generate(args.spec, args.seed)
    doc = polytope_to_document(p, name=args.spec)
    _write_text(args.output, dumps(doc))
    return 0


def cmd_check(args) -> int:
    doc, p = load_polytope(args.path)
    fv = f_vector(face_lattice(p))
    total = euler_alternating_sum(fv)
    passed = total == 1
    print(f"polytope: {doc.get('name', args.path)} (dimension {p.dim})")
    print(f"f-vector: ({', '.join(str(c) for c in fv)})")
    print(f"alternating sum: {total}")
    print("PASS" if passed else "FAIL")
    if args.output:
        report = run_report(
            command="check",
            inputs={"path": args.path, "name": doc.get("name")},
            seed=None,
            f_vec=fv,
            euler_sum=total,
            passed=passed,
            timestamp=_timestamp(args),
        )
        _write_text(args.output, dumps(report))
    return 0 if passed else 1


def _folded_pair(p, seed: int, facet: Optional[int]):
    if facet is None:
        return None
    return (facet, other_facet(random.Random(seed), len(p.facets), facet))


def _sums(sums: dict) -> str:
    return ", ".join(f"{i}: {format_rational(v)}" for i, v in sorted(sums.items()))


def _print_verdict(r) -> None:
    print(f"  total: {format_rational(r.total)}; identity needs {format_rational(r.rhs_needed)}")
    print(f"  flags: {r.flag_count}")
    for line in r.failures:
        print(f"  counterexample: {line}")
    print(f"  {'PASS' if r.passed else 'FAIL'}")


def _print_schlegel(r) -> None:
    sums = _sums(r.per_cell_sums)
    print(f"schlegel proof: facet {r.facet_index}, seed {r.seed}")
    print(f"  cells: {r.cell_count}")
    print(f"  per-cell sums: {{{sums}}} (expected {format_rational(r.expected_per_cell)} each)")
    print(f"  outside sum: {format_rational(r.outside_sum)} (expected {format_rational(r.expected_outside)})")
    _print_verdict(r)


def _print_folded(r) -> None:
    sums = _sums(r.per_facet_sums)
    print(f"folded proof: facet pair {r.facet_pair}, seed {r.seed}")
    print(f"  special pair sum: {format_rational(r.special_pair_sum)} (expected {format_rational(r.expected_special)})")
    print(f"  per-facet sums: {{{sums}}} (expected {format_rational(r.expected_per_facet)} each)")
    _print_verdict(r)


def cmd_verify(args) -> int:
    doc, p = load_polytope(args.path)
    if p.dim < 3:
        raise ValueError(f"verify requires d >= 3 (document has dimension {p.dim})")
    schlegel_report = None
    folded_report = None
    aborted = None
    try:
        if args.proof in ("schlegel", "both"):
            schlegel_report = verify_proof_schlegel(
                p, args.facet if args.facet is not None else 0, args.seed
            )
            _print_schlegel(schlegel_report)
        if args.proof in ("folded", "both"):
            folded_report = verify_proof_folded(
                p, args.seed, facet_pair=_folded_pair(p, args.seed, args.facet)
            )
            _print_folded(folded_report)
    except (GeneralPositionError, SamplingBudgetError) as e:
        print(f"verification aborted: {e}", file=sys.stderr)
        aborted = f"{type(e).__name__}: {e}"
    reports = [r for r in (schlegel_report, folded_report) if r is not None]
    passed = aborted is None and all(r.passed for r in reports)
    print("PASS" if passed else "FAIL")
    if args.output:
        fv = f_vector(face_lattice(p))
        report = run_report(
            command="verify",
            inputs={
                "path": args.path,
                "name": doc.get("name"),
                "proof": args.proof,
                "facet": args.facet,
            },
            seed=args.seed,
            f_vec=fv,
            euler_sum=euler_alternating_sum(fv),
            passed=passed,
            schlegel_proof=schlegel_report,
            folded_proof=folded_report,
            timestamp=_timestamp(args),
        )
        if aborted is not None:
            report["aborted"] = aborted
        _write_text(args.output, dumps(report))
    return 0 if passed else 1


def cmd_schlegel_svg(args) -> int:
    doc, p = load_polytope(args.path)
    if p.dim not in (3, 4):
        raise ValueError(
            f"schlegel-svg supports dimensions 3 and 4 (document has dimension {p.dim})"
        )
    cx = schlegel(p, args.facet)
    _write_text(args.output, render_schlegel_svg(cx))
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    outcomes = run_all()
    for o in outcomes:
        print(f"[{o.number:2d}] {'PASS' if o.passed else 'FAIL'}  {o.title}")
        for line in o.details:
            print(f"      {line}")
    passed = all(o.passed for o in outcomes)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Exact verification of the Euler formula on convex polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a polytope document")
    g.add_argument("spec", help="simplex:d | cube:d | crosspolytope:d | random:d,n,bound")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="check the Euler alternating sum")
    c.add_argument("path")
    c.add_argument("-o", "--output", default=None, help="write a JSON run report")
    c.add_argument("--stamp", action="store_true", help="include a wall-clock timestamp")
    c.set_defaults(func=cmd_check)

    v = sub.add_parser("verify", help="run the flag-count proof harnesses")
    v.add_argument("path")
    v.add_argument(
        "--proof", choices=("schlegel", "folded", "both"), default="both"
    )
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--facet", type=int, default=None)
    v.add_argument("-o", "--output", default=None, help="write a JSON run report")
    v.add_argument("--stamp", action="store_true", help="include a wall-clock timestamp")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("schlegel-svg", help="draw a Schlegel diagram")
    s.add_argument("path")
    s.add_argument("--facet", type=int, default=0)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_schlegel_svg)

    t = sub.add_parser("selftest", help="run the full acceptance matrix")
    t.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, EulerlabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
