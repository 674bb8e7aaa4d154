"""The traced benchmark run must still find every boundary it wraps.

``perfbench/spans.py`` silently leaves out any per-layer metric whose
boundary or observed attribute no longer exists in the package, so a
renamed function or attribute would shrink the traced run's result
without failing it.  The first check loads the benchmark's span tracer
and workloads from their files, unchanged, and runs one op of each
workload under the tracer.  The second runs ``perfbench/run.py`` itself,
as the benchmark does, and reads its last line of output.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The package modules the benchmark hands to its workloads and tracer.
MODULES = ("instance", "scores_io", "dp_exact", "bucket_cover", "po_dp", "grover_sim")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_per_layer_metric():
    spans, workloads = _load("spans"), _load("workloads")
    qb = SimpleNamespace(**{m: importlib.import_module(f"qbnsl.{m}") for m in MODULES})
    tracer = spans.Tracer(qb)
    assert tracer.missing == set()
    for op_id, wl in enumerate(workloads.WORKLOADS.values()):
        case = wl.prepare(qb, wl.make(workloads.op_rng(1, wl.key, 1), 1))
        tracer.install(op_id)
        try:
            out = wl.op(qb, case)
        finally:
            tracer.uninstall()
        assert wl.check(qb, case, out) is None, wl.name
    assert tracer.lost == set()
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    # The two trace.* metrics come from the run loop, not from the tracer.
    expected = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")}
    assert set(tracer.layer_metrics(1)) == expected

    # The member spans must keep counting on the traced cover-scan op.
    wl = workloads.WORKLOADS["cover-scan"]
    case = wl.prepare(qb, wl.make(workloads.op_rng(1, wl.key, 1), 1))
    tracer = spans.Tracer(qb)
    tracer.install(0)
    try:
        wl.op(qb, case)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["bucket_cover.downsets_per_member"]["value"] == 343
    assert metrics["po_dp.members_solved"]["value"] >= 1


def test_traced_csv_to_dag_run_ends_in_a_complete_result():
    # Anything printed after the result line, by the run or the library,
    # would make the last line unreadable for the benchmark.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "csv-to-dag",
         "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, env=env, cwd=PERFBENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
