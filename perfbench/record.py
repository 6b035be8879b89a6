"""Record a baseline: run every workload over several seeds and write the
medians, quartiles and spreads with the machine they were taken on.

Run from the root of a source checkout:

    python3 perfbench/record.py --runs 10 --out perfbench/BASELINE.json

Each end-to-end metric's spread is the distance between the first and third
quartile of its values as a share of their median; the benchmark is steady
when every spread stays below a third of the metric's bound in
BENCHMARK.json.  One traced run per workload (at the first seed)
adds the per-layer metrics and the hotspot lines.  Runs are sequential, so
they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own module, next to this file)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds 0..runs-1 per workload")
    ap.add_argument("--out", default=None, help="write the record here as JSON")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = list(range(args.runs))
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in run.WORKLOADS:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, _ = bench(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {n: round(m["value"], 4) for n, m in result["metrics"].items()},
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            if spread >= bounds[name] / 3:
                steady = False
            print(f"{workload} {name}: median {med:.4f} spread {spread:.2%} "
                  f"(bound {bounds[name]:.0%})", flush=True)
        traced, lines = bench(workload, seeds[0], spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "why": whys[workload],
            "jobs": [ln.split(" median ")[0][4:] for ln in lines if ln.startswith("job ")],
            "failed_frac": {"failed": failed, "attempted": attempted},
            "end_to_end": summary,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "hotspots": [ln for ln in lines if ln.startswith("hotspots ")],
        }
        for ln in record["workloads"][workload]["hotspots"]:
            print(f"{workload} {ln}", flush=True)
    record["steady"] = steady
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=2) + "\n")
    print("steady" if steady else "NOT steady: a spread reached a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
