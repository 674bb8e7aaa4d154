"""Smoke tests: each script in ``scripts/`` runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv,header",
    [
        (("demo_pipeline.py", "--rows", "200"), "rows = 200, local score entries F"),
    ],
)
def test_script_runs(argv, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)


SETUP_PROBE = """
import contextlib
import io
import sys
import numpy as np
import qbnsl
from qbnsl import cli
from qbnsl.bucket_cover import BlockPartition
from qbnsl.dp_exact import solve_dp
from qbnsl.grover_sim import cost_report
from qbnsl.po_dp import COVER_STRATEGIES, solve_cover
from qbnsl.scores_io import DiscreteDataset, bic_scores
from qbnsl.tables import random_table

table = random_table(np.random.default_rng(1), 6)
solve_dp(table)
for strategy in COVER_STRATEGIES:
    solve_cover(table, BlockPartition.contiguous(6, 4), strategy)
bic_scores(DiscreteDataset.from_csv("a,b,c\\n0,1,0\\n1,1,2\\n0,0,1\\n"), max_indegree=2)
cost_report(26, None, 26)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["bench", "--suite", "grover", "--trials", "3"])
print(sorted(name for name in ("numpy.ma", "mpmath", "scipy") if name in sys.modules))
"""


def test_solvers_do_not_import_numpy_ma():
    # numpy.ma costs tens of milliseconds to import, once per process; a bare
    # np.unique(x) pulls it in through np.ma.is_masked on numpy 2.4.  mpmath
    # and scipy are test-only: neither the cost report nor the grover bench
    # may load them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
