"""Tests of the benchmark itself, on reduced job lists (``--smoke``).

Each benchmark run happens in a subprocess inside a temporary copy of the
checkout, because the benchmark re-imports and wraps the eulerlab modules.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _copy_bench(dest) -> None:
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    dest = tmp_path_factory.mktemp("checkout")
    _copy_bench(dest)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def bench(cwd, workload: str, trace: int, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("report_sha256 "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_exactly(checkout, workload):
    first, digest1 = bench(checkout, workload, trace=1)
    second, digest2 = bench(checkout, workload, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert digest1 == digest2
    exact = [n for n in first["metrics"]
             if n.endswith((".calls", ".computed", "probes_per_flag"))]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_names_match_benchmark_json(checkout):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    plain, _ = bench(checkout, "check", trace=0)
    traced, _ = bench(checkout, "check", trace=1)
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    _copy_bench(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_closed_forms():
    assert run.family_f_vector("cube", 3) == [8, 12, 6, 1]
    assert run.family_f_vector("crosspolytope", 3) == [6, 12, 8, 1]
    assert run.family_f_vector("simplex", 3) == [4, 6, 4, 1]


def test_failed_jobs_are_reported_not_raised():
    job = run.Job("cube:4", "schlegel", "unused.json", family=("cube", 4))
    assert run.check_report(job, 1, None) == "exit code 1"
    assert run.check_report(job, 0, None) == "no report written"
    report = {
        "pass": True, "euler_sum": 1, "f_vector": [16, 32, 24, 8, 1],
        "schlegel_proof": {"cell_count": 7, "total_by_classification": "8"},
    }
    assert run.check_report(job, 0, json.dumps(report)) is None
    report["schlegel_proof"]["total_by_classification"] = "6"
    assert "Schlegel total" in run.check_report(job, 0, json.dumps(report))
