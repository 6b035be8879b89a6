"""End-to-end and per-layer benchmark for eulerlab.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check --seed 0 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``check``    -- ``eulerlab check`` over the standard families and seeded
                  point clouds with interior points (hull + face lattice).
* ``schlegel`` -- ``eulerlab verify --proof schlegel`` on the fixed corpus.
* ``folded``   -- ``eulerlab verify --proof folded`` on the same corpus.
* ``oracle``   -- ``brute_force_face_lattice`` against ``face_lattice``.

Load is one client in a closed loop: the next job starts only when the last
one has finished.  The job list is repeated until ``--seconds`` have passed
(always at least one full pass); a job is one CLI invocation through
``eulerlab.cli.main`` in this process, so each job re-reads its document and
builds fresh objects.  ``wall_s`` is the time of one pass, taken as the sum
over jobs of each job's median time, each run scaled to a nominal host speed
(see ``HostClock``).  Every job's output is checked; a job that exits
non-zero, writes no report, breaks an identity or writes different bytes
from its first run counts as failed.  ``failed_frac`` is printed with its
base; it is not in the JSON metrics, which must never be 0, but follows from
``failed`` / ``attempted``.

``setup_s`` is the median over SETUP_REPEATS fresh interpreters, each started
on this script, of the time from starting it until it has set up as the
measured run does: interpreter start, the cold import of eulerlab and
writing the input documents.  It is scaled like ``wall_s``.

With ``--trace 1`` no end-to-end metric is measured.  Instead each job runs
untraced and then traced, pass after pass, until ``--seconds`` have passed:
for a traced run the public functions of each module are wrapped, in every
``eulerlab.*`` namespace that bound them, and spans (name, parent, job,
start, end, self time) are kept in memory.  Per-layer metrics come from the
first traced pass, so counts repeat exactly from run to run; its spans are
written to ``.bench_out/`` at the end.  ``trace.overhead_frac`` compares the
traced and untraced runs of each pair.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("check", "schlegel", "folded", "oracle")
SETUP_REPEATS = 25
ORACLE_BOUND = 12

# (dimension, points, coordinate bound) of the seeded point clouds of `check`.
CLOUDS = [(3, 40, 20)] * 4 + [(4, 30, 20)] * 4 + [(5, 20, 10)] * 2
# Jobs of `schlegel` and `folded`.  The i-th listing of a spec is run with
# the verify seed S+i, and a random spec is also drawn with seed S+i.  The
# sampled direction or transversal, and so the cost of a run, depends on the
# seed; listing each family twice halves that part of the spread of wall_s.
# These are smaller than the ROADMAP corpus (cube:4, crosspolytope:5,
# random:4,12,10, cube:6): one pass of that takes 12 s (schlegel) and 26 s
# (folded), too long to repeat within a run.
CORPUS = (["cube:4"] * 2 + ["crosspolytope:4"] * 2 + ["cube:5"] * 2
          + ["random:3,8,10"] * 4)
# Documents of `oracle`.  A "paraboloid:d,n,b" document holds n distinct
# seeded integer points x of [-b, b]^(d-1) lifted to (x, |x|^2): all n are
# vertices, so the oracle's cost (exponential in the vertex count) barely
# depends on the seed, unlike a random:d,n,b draw.
ORACLE = ["crosspolytope:5"] + ["paraboloid:4,8,6"] * 2 + ["paraboloid:3,9,8"] * 3

# Reduced job lists for the benchmark's own tests (``--smoke``).
SMOKE_CLOUDS = [(3, 12, 5)]
SMOKE_CORPUS = ["cube:4", "random:3,8,10"]
SMOKE_ORACLE = ["paraboloid:3,7,4"]


# ---------------------------------------------------------------- inputs


@dataclass
class Job:
    label: str
    kind: str  # "check" | "schlegel" | "folded" | "oracle"
    doc: str
    family: Optional[tuple[str, int]] = None  # closed-form f-vector known
    seed: int = 0


def family_vertices(name: str, d: int) -> list[list[int]]:
    if name == "cube":
        return [[(m >> i) & 1 for i in range(d)] for m in range(1 << d)]
    if name == "crosspolytope":
        return [
            [s if j == i else 0 for j in range(d)] for i in range(d) for s in (1, -1)
        ]
    if name == "simplex":
        return [[0] * d] + [[int(j == i) for j in range(d)] for i in range(d)]
    raise ValueError(name)


def family_f_vector(name: str, d: int) -> list[int]:
    """Closed-form face counts (f_0, ..., f_d), top face included."""
    c = math.comb
    if name == "cube":
        return [c(d, k) * 2 ** (d - k) for k in range(d + 1)]
    if name == "crosspolytope":
        return [2 ** (k + 1) * c(d, k + 1) for k in range(d)] + [1]
    return [c(d + 1, k + 1) for k in range(d + 1)]


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def make_jobs(program, workload: str, seed: int, smoke: bool, docdir: str) -> list[Job]:
    """Write the workload's input documents into docdir and list its jobs."""
    os.makedirs(docdir, exist_ok=True)

    def family_doc(name: str, d: int) -> Job:
        path = os.path.join(docdir, f"{name}{d}.json")
        verts = [[str(x) for x in v] for v in family_vertices(name, d)]
        write_json(path, {"dimension": d, "vertices": verts, "name": f"{name}:{d}"})
        return Job(f"{name}:{d}", workload, path, family=(name, d), seed=seed)

    def random_doc(spec: str, s: int) -> Job:
        path = os.path.join(docdir, f"{spec.replace(':', '').replace(',', '_')}.s{s}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = program.cli.main(["generate", spec, "--seed", str(s), "-o", path])
        if rc != 0:
            raise RuntimeError(f"eulerlab generate {spec} --seed {s} exited {rc}")
        return Job(f"{spec}@{s}", workload, path, seed=s)

    def paraboloid_doc(spec: str, s: int) -> Job:
        d, n, b = (int(a) for a in spec.partition(":")[2].split(","))
        rng = random.Random(s)
        xs: set[tuple[int, ...]] = set()
        while len(xs) < n:
            xs.add(tuple(rng.randint(-b, b) for _ in range(d - 1)))
        pts = [[str(c) for c in x] + [str(sum(c * c for c in x))] for x in sorted(xs)]
        path = os.path.join(docdir, f"paraboloid{d}_{n}_{b}.s{s}.json")
        write_json(path, {"dimension": d, "vertices": pts, "name": spec})
        return Job(f"{spec}@{s}", workload, path, seed=s)

    def listed_docs(specs: list[str]) -> list[Job]:
        jobs, drawn = [], {}
        for spec in specs:
            name, _, args = spec.partition(":")
            s = seed + drawn.get(spec, 0)
            drawn[spec] = drawn.get(spec, 0) + 1
            if name == "random":
                jobs.append(random_doc(spec, s))
            elif name == "paraboloid":
                jobs.append(paraboloid_doc(spec, s))
            else:
                job = family_doc(name, int(args))
                job.label, job.seed = f"{spec}@{s}", s
                jobs.append(job)
        return jobs

    if workload == "check":
        dims = range(3, 5) if smoke else range(3, 7)
        jobs = [family_doc(n, d) for n in ("cube", "crosspolytope", "simplex") for d in dims]
        rng = random.Random(seed)
        for i, (d, n, b) in enumerate(SMOKE_CLOUDS if smoke else CLOUDS):
            path = os.path.join(docdir, f"cloud{i}.json")
            pts = [[str(rng.randint(-b, b)) for _ in range(d)] for _ in range(n)]
            write_json(path, {"dimension": d, "vertices": pts, "name": f"cloud:{d},{n},{b}"})
            jobs.append(Job(f"cloud{i}:{d},{n},{b}", "check", path, seed=seed))
        return jobs
    if workload == "oracle":
        return listed_docs(SMOKE_ORACLE if smoke else ORACLE)
    return listed_docs(SMOKE_CORPUS if smoke else CORPUS)


class Program:
    """The eulerlab modules of the checkout, freshly imported."""

    def __init__(self, src: str):
        for name in [m for m in sys.modules if m == "eulerlab" or m.startswith("eulerlab.")]:
            del sys.modules[name]
        if sys.path[:1] != [src]:
            sys.path.insert(0, src)
        self.cli = importlib.import_module("eulerlab.cli")
        self.jsonio = importlib.import_module("eulerlab.jsonio")
        self.polytope = importlib.import_module("eulerlab.polytope")
        if not os.path.abspath(self.cli.__file__).startswith(src + os.sep):
            raise RuntimeError(f"eulerlab imported from outside {src}")

    def modules(self):
        return [m for n, m in sorted(sys.modules.items()) if n.startswith("eulerlab.")]


# ---------------------------------------------------------------- jobs


def check_report(job: Job, rc, text: Optional[str]) -> Optional[str]:
    """Why the job's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    if text is None:
        return "no report written"
    r = json.loads(text)
    if r.get("pass") is not True or r.get("euler_sum") != 1:
        return "report does not pass"
    fv = r["f_vector"]
    d = len(fv) - 1
    error = f_vector_error(job, fv)
    if error is not None:
        return error
    if job.kind == "schlegel":
        s = r["schlegel_proof"]
        cells = s["cell_count"]
        if cells != fv[d - 1] - 1:
            return f"{cells} cells for {fv[d - 1]} facets"
        if s["total_by_classification"] != str((-1) ** d * cells + 1):
            return f"Schlegel total {s['total_by_classification']} for {cells} cells"
    if job.kind == "folded":
        f = r["folded_proof"]
        k = d - 1
        want = (1 - (-1) ** k) - (fv[k] - 2) * (-1) ** k
        if f["total_by_facet"] != str(want):
            return f"folded total {f['total_by_facet']} != {want}"
        if f["flag_count"] != 2 * sum(fv[:k]):
            return f"folded flag count {f['flag_count']} != {2 * sum(fv[:k])}"
    return None


def run_cli(program: Program, clock: "HostClock", argv: list[str]):
    """Call eulerlab.cli.main with stdout and stderr captured; returns the
    exit code (None for an escaped exception) and the nominal seconds."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        clock.start()
        try:
            rc = program.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a failed job, not a crashed benchmark
            rc = None
        elapsed = clock.stop()
    return rc, elapsed


def f_vector_error(job: Job, fv: list[int]) -> Optional[str]:
    """Why the f-vector is wrong (Euler's relation, closed form), or None."""
    if sum((-1) ** c * n for c, n in enumerate(fv)) != 1 or fv[-1] != 1:
        return f"f-vector {fv} breaks Euler's relation"
    if job.family is not None and fv != family_f_vector(*job.family):
        return f"f-vector {fv} != closed form for {job.label}"
    return None


def run_oracle(program: Program, clock: "HostClock", job: Job):
    """Brute-force lattice vs fast lattice; the 'report' is the benchmark's
    own canonical rendering of the result.  Returns what run_job returns."""
    jsonio, polytope = program.jsonio, program.polytope
    clock.start()
    try:
        p = jsonio.document_to_polytope(jsonio.load_document(job.doc))
        slow = polytope.brute_force_face_lattice(p, bound=ORACLE_BOUND)
        fast = polytope.face_lattice(p)
        same = slow.same_faces(fast)
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        return clock.stop(), None, "oracle raised"
    elapsed = clock.stop()
    fv = [len(fast.faces(c)) for c in range(fast.dim + 1)]
    families = {
        str(c): sorted(sorted(s) for s in fam) for c, fam in fast.vertex_set_families().items()
    }
    text = json.dumps({"same": same, "f_vector": fv, "faces": families}, sort_keys=True)
    return elapsed, text, f_vector_error(job, fv) if same else "oracle lattice differs"


def run_job(program: Program, clock: "HostClock", job: Job, report: str):
    """Run one job; returns (nominal seconds, report text or None, error or None)."""
    if job.kind == "oracle":
        return run_oracle(program, clock, job)
    if os.path.exists(report):
        os.remove(report)
    if job.kind == "check":
        argv = ["check", job.doc, "-o", report]
    else:
        argv = ["verify", job.doc, "--proof", job.kind, "--seed", str(job.seed), "-o", report]
    rc, elapsed = run_cli(program, clock, argv)
    text = None
    if os.path.exists(report):
        with open(report, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        error = check_report(job, rc, text)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        error = f"malformed report: {e!r}"
    return elapsed, text, error


class Loop:
    """Closed loop with one client over a fixed job list."""

    def __init__(self, program: Program, jobs: list[Job], reportdir: str):
        self.program = program
        self.jobs = jobs
        self.reportdir = reportdir
        self.first: dict[int, Optional[str]] = {}
        self.clock = HostClock()
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, i: int, tracer: Optional["Tracer"] = None) -> float:
        """Run job i once and check it; returns its nominal seconds."""
        job = self.jobs[i]
        report = os.path.join(self.reportdir, f"job{i}.json")
        if tracer is not None:
            tracer.job = i
        elapsed, text, error = run_job(self.program, self.clock, job, report)
        self.attempted += 1
        if error is None and i in self.first and self.first[i] != text:
            error = "report bytes differ from the job's first run"
        self.first.setdefault(i, text)
        if error is not None:
            self.failures.append(f"{job.label}: {error}")
        return elapsed

    def timed(self, seconds: float, between, times: int) -> list[list[float]]:
        """Repeat the job list until `seconds` have passed, finishing at least
        one full pass; returns each job's samples.  Calls `between()` `times`
        times in all, spread evenly over the run between two jobs; the time
        spent in it does not count towards `seconds`."""
        samples: list[list[float]] = [[] for _ in self.jobs]
        start = time.perf_counter()
        calls = 0
        while min(map(len, samples)) == 0 or time.perf_counter() - start < seconds:
            i = sum(map(len, samples)) % len(self.jobs)
            samples[i].append(self.run(i))
            if calls < times and time.perf_counter() - start >= calls * seconds / times:
                t0 = time.perf_counter()
                between()
                calls += 1
                start += time.perf_counter() - t0
        for _ in range(calls, times):
            between()
        return samples

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.jobs)):
            h.update(repr(self.first.get(i)).encode())
        return h.hexdigest()


def pass_time(samples: list[list[float]]) -> float:
    return sum(statistics.median(s) for s in samples)


# The machine is shared, and the speed at which it runs the same work swings
# by up to a factor of two in phases that last from a fraction of a second to
# several seconds.  So a fixed task that uses nothing from the program, the
# reference, is timed right before and right after each job and, from a
# SIGALRM handler, every SAMPLE_PERIOD_S seconds during it.  The job's time,
# less the time spent in the handler, is scaled by NOMINAL_REFERENCE_S /
# (mean reference time): it reads as seconds on a host that runs the
# reference in the nominal time.  On a two-second job, repeated on a shared
# 2-vCPU VM under Python 3.11.7, this cut the quartile spread of single runs
# from 18% (raw) and 23% (scaled by the references before and after alone)
# to 5%; the handler adds about 1.3% to the time of a run.
NOMINAL_REFERENCE_S = 0.0007
SAMPLE_PERIOD_S = 0.05
BRACKET_TIMINGS = 5  # per reference before and after a job, which weigh most on short jobs


def reference(times: int = 1) -> float:
    """Seconds taken by the fixed reference task: Gaussian elimination over
    Fractions, like the program's own arithmetic, of a pseudo-random 7x7
    matrix.  The median of `times` timings, so that one interruption does
    not count."""
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        x, n, m = 12345, 7, []
        for _i in range(n):
            row = []
            for _j in range(n):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(Fraction(x % 201 - 100, x % 7 + 1))
            m.append(row)
        for k in range(n - 1):
            if m[k][k] == 0:
                continue
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class HostClock:
    """Times work in nominal-host seconds (see NOMINAL_REFERENCE_S)."""

    def __init__(self):
        self.last: Optional[float] = None  # reference time after the last stop
        self.refs: list[float] = []
        self.spent = 0.0  # seconds spent in the sampler since start
        self.t0 = 0.0
        self.raw = 0.0  # unscaled seconds of the last start-stop, as spans read
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference())
        self.spent += time.perf_counter() - t0

    def start(self, sample: bool = True) -> None:
        """Start timing.  Turn `sample` off for work done by a child process:
        a reference timed in the handler would share the processor with the
        child."""
        self.refs = [reference(BRACKET_TIMINGS) if self.last is None else self.last]
        self.spent = 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.t0 = time.perf_counter()

    def stop(self) -> float:
        """Nominal seconds since start."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = time.perf_counter() - self.t0 - self.spent
        self.last = reference(BRACKET_TIMINGS)
        self.refs.append(self.last)
        return self.raw * NOMINAL_REFERENCE_S / statistics.fmean(self.refs)


# ---------------------------------------------------------------- tracing

# Public functions traced per module, as (module, attribute).  Methods are
# written "Class.method".  Names in COUNT_ONLY are counted but not timed.
TRACED = {
    "polytope": [
        "build_polytope", "face_lattice", "facet_polytope",
        "Polytope.contains", "Polytope.in_tangent_cone",
    ],
    "schlegel_flags": [
        "classify_flag", "verify_proof_schlegel", "sample_general_line", "place_flags",
    ],
    "folded_flags": [
        "fold_flags", "sample_transversal", "flag_collinear_with_assigned_point",
        "facet_assignment_sums", "verify_proof_folded",
    ],
    "projection": ["schlegel", "project_along", "project_from_point", "beyond_point"],
    "linalg": [
        "rank", "nullspace", "solve_linear", "affine_dim", "affine_hull",
        "hyperplane_through", "linear_feasible", "dot",
    ],
    "jsonio": ["load_document", "document_to_polytope", "run_report", "dumps"],
    "cli": ["main"],
}
COUNT_ONLY = {"linalg.dot"}


class Tracer:
    """In-memory spans: (name id, parent index, job index, start, end, self)."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        # One array per span field: arrays hold no objects for the garbage
        # collector to walk, which keeps the tracing overhead flat.
        self.fields = tuple(array(code) for code in "iiiddd")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.counts: dict[str, int] = {}
        self.computed = 0  # face_lattice calls that had to build the lattice
        self.job = -1
        self.undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def call(self, nid: int, fn, args, kwargs):
        stack = self.stack
        idx = len(self.fields[0])
        for field, value in zip(self.fields, (nid, stack[-1][0] if stack else -1, self.job, 0, 0, 0)):
            field.append(value)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            _, _, _, start, end, self_s = self.fields
            start[idx], end[idx], self_s[idx] = t0, t1, t1 - t0 - frame[1]

    @property
    def spans(self):
        return zip(*self.fields)

    def span_wrapper(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        return traced

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def lattice_wrapper(self, name: str, fn):
        traced = self.span_wrapper(name, fn)

        @functools.wraps(fn)
        def lattice(p, *args, **kwargs):
            if "lattice" not in getattr(p, "__dict__", {}):
                self.computed += 1
            return traced(p, *args, **kwargs)

        return lattice

    def install(self, program: Program) -> None:
        """Wrap every traced function under the same object in every
        eulerlab.* namespace that bound it, and the traced methods on
        their class."""
        modules = program.modules()
        for short, attrs in TRACED.items():
            home = sys.modules[f"eulerlab.{short}"]
            for attr in attrs:
                name = f"{short}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._replace(cls, meth, self.span_wrapper(name, cls.__dict__[meth]))
                    continue
                original = getattr(home, attr)
                if name in COUNT_ONLY:
                    wrapped = self.count_wrapper(name, original)
                elif attr == "face_lattice":
                    wrapped = self.lattice_wrapper(name, original)
                else:
                    wrapped = self.span_wrapper(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapped)

    def _replace(self, owner, key: str, value) -> None:
        self.undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        agg: dict[str, dict[str, float]] = {}
        for nid, _parent, _job, t0, t1, self_s in self.spans:
            a = agg.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += self_s
        return agg

    def probes_per_flag(self) -> float:
        """`Polytope.contains` calls inside `classify_flag` spans per
        `classify_flag` call."""
        below: list[bool] = []  # span index -> is or runs inside classify_flag
        flags = probes = 0
        for nid, parent, *_rest in self.spans:  # parents precede children
            name = self.names[nid]
            up = parent >= 0 and below[parent]
            if name == "schlegel_flags.classify_flag":
                flags += 1
            elif name == "polytope.Polytope.contains" and up:
                probes += 1
            below.append(up or name == "schlegel_flags.classify_flag")
        return probes / flags if flags else 0.0

    def write(self, path: str, jobs: list[Job]) -> None:
        """All spans as tab-separated lines in start order (parents first)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tname\tparent\tjob\tstart_s\tend_s\tself_s\n")
            for idx, (nid, parent, job, t0, t1, self_s) in enumerate(self.spans):
                label = jobs[job].label if job >= 0 else "-"
                fh.write(
                    f"{idx}\t{self.names[nid]}\t{parent}\t{label}\t{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\n"
                )
            for name, n in sorted(self.counts.items()):
                fh.write(f"# count\t{name}\t{n}\n")


# Per-layer metric names, as (metric suffix per traced name).
LAYER_METRICS = {
    "polytope.build_polytope": ("calls", "self_s", "total_s"),
    "polytope.face_lattice": ("calls", "self_s"),
    "polytope.facet_polytope": ("calls", "total_s"),
    "polytope.Polytope.contains": ("calls", "self_s"),
    "polytope.Polytope.in_tangent_cone": ("calls", "self_s"),
    "schlegel_flags.classify_flag": ("calls", "total_s"),
    "schlegel_flags.verify_proof_schlegel": ("self_s", "total_s"),
    "schlegel_flags.sample_general_line": ("self_s", "total_s"),
    "schlegel_flags.place_flags": ("self_s",),
    "folded_flags.fold_flags": ("calls", "self_s", "total_s"),
    "folded_flags.sample_transversal": ("self_s", "total_s"),
    "folded_flags.flag_collinear_with_assigned_point": ("calls", "total_s"),
    "folded_flags.facet_assignment_sums": ("self_s",),
    "folded_flags.verify_proof_folded": ("total_s",),
    "projection.schlegel": ("calls", "self_s", "total_s"),
    "projection.project_along": ("calls", "total_s"),
    "projection.project_from_point": ("calls", "total_s"),
    "projection.beyond_point": ("total_s",),
    **{
        f"linalg.{f}": ("calls", "self_s")
        for f in (
            "rank", "nullspace", "solve_linear", "affine_dim", "affine_hull",
            "hyperplane_through", "linear_feasible",
        )
    },
    "jsonio.load_document": ("self_s",),
    "jsonio.document_to_polytope": ("self_s",),
    "jsonio.run_report": ("self_s",),
    "jsonio.dumps": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    agg = tracer.aggregate()
    out = {}
    for name, kinds in LAYER_METRICS.items():
        a = agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for kind in kinds:
            out[f"{name}.{kind}"] = (a[kind], UNITS[kind])
    calls = agg.get("polytope.face_lattice", {"calls": 0})["calls"]
    out["polytope.face_lattice.computed"] = (tracer.computed, "count")
    out["polytope.face_lattice.hit_ratio"] = (
        (calls - tracer.computed) / calls if calls else 0.0, "ratio")
    out["linalg.dot.calls"] = (tracer.counts.get("linalg.dot", 0), "count")
    out["schlegel_flags.probes_per_flag"] = (tracer.probes_per_flag(), "probes/flag")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def hotspots(tracer: Tracer, jobs: list[Job], job_wall: list[float], top: int = 3) -> list[str]:
    """The largest self times as shares of the traced pass, overall and per job."""
    selfs: dict[str, dict[str, float]] = {"pass": {}}
    for nid, _parent, job, _t0, _t1, self_s in tracer.spans:
        name = tracer.names[nid]
        for group in (selfs["pass"], selfs.setdefault(jobs[job].label, {})):
            group[name] = group.get(name, 0.0) + self_s
    walls = {"pass": sum(job_wall), **{j.label: w for j, w in zip(jobs, job_wall)}}
    lines = []
    for group, by_name in selfs.items():
        best = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
        shares = ", ".join(f"{n} {s / walls[group]:.1%}" for n, s in best)
        lines.append(f"hotspots {group} ({walls[group]:.3f} s): {shares}")
    return lines


# ---------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced job lists, for tests")
    # Set up into this directory and exit: the child side of setup_run.
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eulerlab", "cli.py")):
        print(f"perfbench: no eulerlab sources under {src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        make_jobs(Program(src), args.workload, args.seed, args.smoke, args.setup_probe)
        os._exit(0)  # set-up ends here; interpreter shutdown is not part of it
    # Paths relative to the checkout and free of run-specific parts, because
    # the program writes the document path into each report and the reports
    # must repeat byte for byte.
    outdir = ".bench_out"
    workdir = os.path.join(outdir, f"work-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return measure(args, src, outdir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_run(args, docdir: str) -> None:
    """Start a fresh interpreter on this script that sets up as the measured
    run does, into docdir, and exits: interpreter start, the cold import of
    eulerlab and writing the workload's input documents."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0", "--setup-probe", docdir]
    proc = subprocess.run(argv + ["--smoke"] * args.smoke, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")


def traced_passes(loop: Loop, seconds: float):
    """Alternate an untraced and a traced run of each job, pass after pass,
    until `seconds` have passed (at least one pass).  Both runs of a pair
    see the same host speed, so their ratio is the tracing overhead.
    Returns the first pass's tracer, its per-job unscaled traced times (the
    clock its spans use) and the overhead as (sum of traced medians) /
    (sum of untraced medians) - 1."""
    plain: list[list[float]] = [[] for _ in loop.jobs]
    traced: list[list[float]] = [[] for _ in loop.jobs]
    first: Optional[Tracer] = None
    first_raw: list[float] = []
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        tracer = Tracer()  # spans of later passes only give times
        for i in range(len(loop.jobs)):
            plain[i].append(loop.run(i))
            tracer.install(loop.program)
            try:
                traced[i].append(loop.run(i, tracer))
            finally:
                tracer.uninstall()
            if first is None:
                first_raw.append(loop.clock.raw)
        first = first or tracer
    return first, first_raw, pass_time(traced) / pass_time(plain) - 1


def pin_to_current_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on the processor
    it runs on now, so that the reference is timed on the processor that
    runs the work: on a shared host each processor's speed swings on its
    own."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def measure(args, src: str, outdir: str, workdir: str) -> int:
    pin_to_current_cpu()
    program = Program(src)
    jobs = make_jobs(program, args.workload, args.seed, args.smoke, os.path.join(workdir, "docs"))
    reportdir = os.path.join(workdir, "reports")
    os.makedirs(reportdir)
    loop = Loop(program, jobs, reportdir)

    metrics: dict[str, tuple[float, str]]
    if args.trace:
        tracer, job_wall, overhead = traced_passes(loop, args.seconds)
        metrics = layer_metrics(tracer, overhead)
        for line in hotspots(tracer, jobs, job_wall):
            print(line)
        tracer.write(os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.tsv"), jobs)
    else:
        # Set-up runs are spread over the timed loop, so that they meet the
        # host in as many of its phases as the jobs do.
        setups: list[float] = []

        def setup_once() -> None:
            loop.clock.start(sample=False)
            setup_run(args, os.path.join(workdir, f"probe{len(setups)}"))
            setups.append(loop.clock.stop())

        samples = loop.timed(args.seconds, setup_once, SETUP_REPEATS)
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
              f"{min(map(len, samples))}-{max(map(len, samples))} runs each")
        for job, times in zip(jobs, samples):
            print(f"job {job.label} median {statistics.median(times):.4f} s of {len(times)}")
        print("setup runs " + " ".join(f"{t:.4f}" for t in setups) + " s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (pass_time(samples), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    failed = len(loop.failures)
    for line in loop.failures[:20]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / loop.attempted:.6g} ({failed} of {loop.attempted} jobs)")
    print(f"report_sha256 {loop.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
