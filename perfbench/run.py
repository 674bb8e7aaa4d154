"""Closed-loop benchmark of the qbnsl solvers, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-check

One workload runs per process, single-threaded, as a closed loop with one
caller: each op starts when the previous one has finished.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
span-traced run.  The last line of standard output is the JSON result.
``--all`` runs every workload both ways and prints one table; see README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# Pin BLAS/OpenMP pools before numpy loads, so every run is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Workload, op_rng  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("instance", "scores_io", "dp_exact", "bucket_cover", "po_dp", "grover_sim")
# setup_s is the median of the run's own set-up and of fresh-process probes:
# at least MIN_SETUPS, more (up to MAX_SETUPS) while probing stays cheap.
MIN_SETUPS, MAX_SETUPS, PROBE_BUDGET_S = 3, 15, 3.0
P90_MIN_OPS = 100  # p90 needs at least 10 samples beyond it
CHILD_TIMEOUT_S = 170
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


def benchmark_spec() -> dict:
    """BENCHMARK.json: the one record of run length and why each workload exists."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


@dataclass
class OpRecord:
    index: int
    seconds: float
    traced: bool
    problem: str | None  # None when the output was verified correct


def package_dir() -> Path:
    package = SRC / "qbnsl"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no package source at {package}")
    return package


def import_qbnsl() -> SimpleNamespace:
    """The package modules, imported from this checkout's src/ and nowhere else."""
    package = package_dir()
    sys.path.insert(0, str(SRC))
    qbnsl = importlib.import_module("qbnsl")
    if Path(qbnsl.__file__).resolve().parent != package.resolve():
        raise BenchError(f"qbnsl was imported from {qbnsl.__file__}, not {package}")
    return SimpleNamespace(**{m: importlib.import_module(f"qbnsl.{m}") for m in MODULES})


def set_up(wl: Workload, seed: int):
    """Import the package and run one untimed warm-up op; input generation
    happens before the clock starts."""
    raw = wl.make(op_rng(seed, wl.key, 0), 0)
    start = perf_counter()
    qb = import_qbnsl()
    case = wl.prepare(qb, raw)
    out = wl.op(qb, case)
    seconds = perf_counter() - start
    return seconds, qb, wl.check(qb, case, out)


def run_op(wl: Workload, qb, index: int, seed: int, tracer=None, op=None) -> OpRecord:
    """Generate, time and verify one op; ``op`` replaces the workload's op."""
    case = wl.prepare(qb, wl.make(op_rng(seed, wl.key, index), index))
    op = op or wl.op
    traced = tracer is not None and index % 2 == 0
    if traced:
        tracer.install(index)
    start = perf_counter()
    try:
        out, problem = op(qb, case), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, problem = None, f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if traced:
        tracer.uninstall()
    if problem is None:
        try:
            problem = wl.check(qb, case, out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return OpRecord(index, seconds, traced, problem)


def end_to_end(records: list[OpRecord], setups: list[float]) -> dict[str, float]:
    if not records:
        raise BenchError("no op was attempted; a run that checks nothing fails")
    times = [r.seconds for r in records]
    ok = sum(r.problem is None for r in records)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def latency_lines(records: list[OpRecord]) -> list[str]:
    """The op-time median, and p90 where at least 10 samples lie beyond it.

    Printed, not gated: on a host whose CPU speed switches between two
    states, op times within a run are bimodal and the median jumps between
    the modes from run to run.  ``ops_per_s`` is one over the mean op time
    in this one-caller loop, and it is the gated latency figure.
    """
    times = [r.seconds for r in records]
    lines = [f"metric op_s_p50 {statistics.median(times)!r} s"]
    if len(times) >= P90_MIN_OPS:
        lines.append(f"metric op_s_p90 {statistics.quantiles(times, n=10)[-1]!r} s")
    else:
        lines.append(f"op_s_p90 undefined: {len(times)} ops < {P90_MIN_OPS}")
    return lines


def per_layer(tracer, records: list[OpRecord]) -> dict[str, dict]:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    if not traced or not plain:
        raise BenchError("a traced run needs at least one traced and one untraced op")
    metrics = tracer.layer_metrics(len(traced))
    rate = lambda rs: len(rs) / sum(r.seconds for r in rs)  # noqa: E731
    roots = tracer.root_time()
    metrics["trace.overhead_ratio"] = {"value": rate(traced) / rate(plain), "unit": "ratio"}
    metrics["trace.span_coverage"] = {
        "value": min(roots.get(r.index, 0.0) / r.seconds for r in traced), "unit": "ratio"}
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(wl: Workload) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": wl.name,
        "inputs": wl.props,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def probe_setup(wl: Workload, seed: int) -> float:
    """One set-up in a fresh process, so the package import is cold again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", wl.name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    package_dir()  # fail before any probe runs
    setups: list[float] = []
    probe_start = perf_counter()
    while not trace and (len(setups) < MIN_SETUPS - 1 or (
            len(setups) < MAX_SETUPS - 1 and perf_counter() - probe_start < PROBE_BUDGET_S)):
        setups.append(probe_setup(wl, seed))
    setup, qb, warm_problem = set_up(wl, seed)
    setups.append(setup)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer(qb)
    records: list[OpRecord] = []
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline:
        records.append(run_op(wl, qb, index, seed, tracer))
        index += 1
    failed = [r for r in records if r.problem is not None]
    if trace:
        metrics = per_layer(tracer, records)
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in end_to_end(records, setups).items()}
    context = run_context(wl)
    print(f"context {json.dumps(context, sort_keys=True)}")
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    print(f"workload {wl.name}: {why.get(wl.name, '')}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not trace:
        print("\n".join(latency_lines(records)))
    print(f"metric ops_failed/ops_attempted {len(failed)}/{len(records)} ops")
    if warm_problem:
        print(f"warm-up op failed: {warm_problem}")
    for r in failed[:5]:
        print(f"failed op {r.index}: {r.problem}")
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{wl.name}-seed{seed}.json.gz", context)
    result = {
        "correct": not failed and warm_problem is None,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows, status = [], 0
    for name in WORKLOADS:
        found: dict[str, str] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + seconds)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            if not json.loads(lines[-1])["correct"]:
                status = 1
            print(f"== {name} --trace {trace}")
            for line in lines[:-1]:
                if line.startswith("metric "):
                    _, metric, value, unit = line.split(" ", 3)
                    shown = value if "/" in value else f"{float(value):.4g}"
                    found.setdefault(metric, shown)
                    print(f"  {metric:40s} {shown:>14s} {unit}")
                elif not line.startswith("context "):
                    print(f"  {line}")
        rows.append((name, found))
    cols = ("setup_s", "ops_per_s", "op_s_p50", "op_s_p90", "peak_rss_mb",
            "ops_failed/ops_attempted", "trace.overhead_ratio")
    print("\n" + " ".join([f"{'workload':13s}"] + [f"{c:>{len(c)}s}" for c in cols]))
    for name, found in rows:
        print(" ".join([f"{name:13s}"] + [f"{found.get(c, '-'):>{len(c)}s}" for c in cols]))
    return status


def self_check() -> int:
    """Planted wrong results must count as failed ops; an empty run must fail."""
    qb = import_qbnsl()
    seed, problems = 1, []

    def expect(label: str, wl: Workload, plant) -> None:
        op = (lambda qb_, case: plant(case, wl.op(qb_, case))) if plant else None
        record = run_op(wl, qb, 1, seed, op=op)
        caught = record.problem is not None
        if caught != (plant is not None):
            problems.append(label)
        print(f"{'ok ' if label not in problems else 'BAD'} {wl.name}: {label}: "
              f"{record.problem or 'verified correct'}")

    def cyclic(n: int):
        return qb.instance.Dag.from_masks(n, [0b10, 0b01] + [0] * (n - 2))

    def empty(table):
        dag = qb.instance.Dag.from_masks(table.n, [0] * table.n)
        return qb.instance.total_score(dag, table), dag

    csv, cover, sweep, maxf = (WORKLOADS[k] for k in
                               ("csv-to-dag", "cover-scan", "oracle-sweep", "maxfind"))
    for wl in WORKLOADS.values():
        expect("genuine result passes", wl, None)
    expect("perturbed score", csv, lambda c, out: {**out, "score": out["score"] + 1e-6})
    expect("perturbed score", cover, lambda c, out: (out[0] + 1e-6, *out[1:]))
    expect("cyclic witness", cover, lambda c, out: (out[0], cyclic(out[1].n), out[2]))
    expect("cyclic witness", sweep, lambda c, out: [(out[0][0], cyclic(out[0][1].n))] + out[1:])
    expect("suboptimal witness", sweep, lambda c, out: out[:-1] + [empty(c["table"])])
    expect("non-argmax index", maxf,
           lambda c, out: ((out[0] + 1) % len(c["values"]), *out[1:]))
    try:
        end_to_end([], [0.1])
        problems.append("empty run")
        print("BAD empty run was reported as a pass")
    except BenchError as exc:
        print(f"ok  empty run is a failure: {exc}")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", "maxfind",
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("zero-second run")
    print(f"{'ok ' if 'zero-second run' not in problems else 'BAD'} a 0-second run exits "
          f"{done.returncode} without a result: {done.stderr.strip()}")
    print("self-check " + ("passed" if not problems else f"FAILED: {problems}"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, one table")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        wl = WORKLOADS[args.workload]
        if args.setup_probe:
            print(set_up(wl, args.seed)[0])
            return 0
        return measure(wl, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
