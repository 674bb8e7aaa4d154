"""End-to-end command-line checks, run in process through ``main``."""

from __future__ import annotations

import csv
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbnsl
from qbnsl.cli import ALGORITHMS, MAX_REPORT_N, _binomial_tail, build_parser, main
from qbnsl.scores_io import parse_scores

FIXTURE = "2\nA 2\n-1.5 0\n-1.0 1 B\nB 1\n-2.0 0\n"

CSV = "A,B\n0,0\n0,0\n1,1\n1,1\n0,1\n1,0\n0,0\n1,1\n"

# 300 rows of four arity-100 columns: a dense count of the full set would
# need 100^4 cells.
WIDE_CSV = "A,B,C,D\n" + "".join(
    ",".join(map(str, row)) + "\n"
    for row in np.random.default_rng(0).integers(100, size=(300, 4)).tolist()
)

# 2000 rows of two columns whose states are multiples of 10^16: combining
# raw states into one code would overflow int64.
HUGE_STATES_CSV = "A,B\n" + "".join(
    ",".join(map(str, row)) + "\n"
    for row in (np.random.default_rng(0).integers(40, size=(2000, 2)) * 10**16).tolist()
)


@pytest.fixture
def score_file(tmp_path):
    path = tmp_path / "pair.scores"
    path.write_text(FIXTURE, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_fixture_every_algorithm(score_file, capsys, algo):
    code, out, _ = run(capsys, "solve", score_file, "--algo", algo)
    assert code == 0
    assert "score = -3.000000000" in out
    assert f"algo = {algo}" in out
    if algo not in ("brute-orders", "brute-dags"):
        assert "A <- B" in out
        assert "B <-" in out


def test_solve_cover_ledger_lines(score_file, capsys):
    code, out, _ = run(capsys, "solve", score_file, "--algo", "cover", "--k", "2")
    assert code == 0
    assert "classical_evals = 2" in out
    assert "charged_quantum_queries = 0" in out


def test_solve_grover_is_deterministic_given_seed(score_file, capsys):
    argv = ("solve", score_file, "--algo", "cover-grover", "--k", "2", "--seed", "7")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_solve_writes_edge_list_and_dot(score_file, tmp_path, capsys):
    out_path = tmp_path / "net.edges"
    code, _, _ = run(capsys, "solve", score_file, "--out", out_path)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == "A <- B\nB <-\n"
    dot = (tmp_path / "net.dot").read_text(encoding="utf-8")
    assert '"B" -> "A";' in dot
    assert dot.startswith("digraph network {")


def test_solve_out_ending_in_dot_exits_two(score_file, tmp_path, capsys):
    # The DOT sibling of net.dot is net.dot itself: it would overwrite the edge list.
    out_path = tmp_path / "net.dot"
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(score_file), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and ".dot" in err and "Traceback" not in err
    assert not out_path.exists()


def test_solve_shuffle_blocks_same_score(score_file, capsys):
    code, out, _ = run(
        capsys, "solve", score_file, "--algo", "cover", "--shuffle-blocks"
    )
    assert code == 0
    assert "score = -3.000000000" in out


def test_infeasible_configurations_exit_two(score_file, tmp_path, capsys):
    code, _, err = run(capsys, "solve", score_file, "--algo", "cover", "--k", "3")
    assert code == 2 and "error:" in err

    # 21 variables: over the DP cap (20), and at k = 6 a cover of 24,000
    # members, over the simulation cap (4,096), refused before any member
    # is solved.
    wide = tmp_path / "wide.scores"
    wide.write_text(
        "21\n" + "".join(f"V{i} 1\n0.0 0\n" for i in range(21)), encoding="utf-8"
    )
    code, _, err = run(capsys, "solve", wide, "--algo", "dp")
    assert code == 2 and "error:" in err

    start = time.perf_counter()
    code, _, err = run(capsys, "solve", wide, "--algo", "cover-grover", "--k", "6")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "grover-sim cap" in err

    big = tmp_path / "five.scores"
    big.write_text(
        "5\n" + "".join(f"V{i} 1\n0.0 0\n" for i in range(5)), encoding="utf-8"
    )
    code, _, err = run(capsys, "solve", big, "--algo", "brute-dags")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--suite", "grover", "--trials", "0"),
        ("bench", "--suite", "grover", "--trials", "-2"),
        ("bench", "--suite", "oracle", "--instances", "-3"),
        ("bench", "--suite", "oracle", "--instances", "0"),
        ("cover-stats", "--n", "0", "--k", "2"),
        ("cover-stats", "--n", "8", "--k", "4", "--entries", "-1"),
        ("bench", "--suite", "grover", "--trials", "two"),
        ("score", "data.csv", "--max-indegree", "-1"),
        ("score", "data.csv", "--max-indegree", "x"),
        ("cover-stats", "--n", "8", "--k", "4", "--entries", "0"),
        ("cover-stats", "--n", "-3", "--k", "2"),
        ("score", "data.csv", "--max-entries", "-1"),
        ("bench", "--suite", "oracle", "--instances", "x"),
        ("score", "data.csv", "--max-entries", "x"),
        ("bench", "--suite", "grover", "--trials", "1.5"),
        ("cover-stats", "--n", "12000", "--k", "2"),
        ("cover-stats", "--n", "10000", "--k", "10000"),
        ("cover-stats", "--n", "1000000000000", "--k", "2"),
        ("cover-stats", "--n", "1000", "--k", "2", "--entries", str(10**4299)),
    ],
)
def test_nonpositive_counts_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err


def test_caps_accept_their_maximum(capsys):
    most = MAX_REPORT_N << (MAX_REPORT_N - 1)  # n * 2^(n-1), every parent set listed
    for k in (2, MAX_REPORT_N):
        for entries in ((), ("--entries", most)):
            code, out, err = run(capsys, "cover-stats", "--n", MAX_REPORT_N, "--k", k, *entries)
            assert code == 0 and err == ""
            assert f"n = {MAX_REPORT_N}" in out and "work_proxy = " in out


def test_cover_lattice_beyond_memory_cap_exits_two(tmp_path):
    # 28 nodes in pairs: 3^14 downsets and 44,641,044 lattice edges, over
    # the byte cap.  24 nodes in fours: 46,656 members of 117,649 downsets,
    # hours of work, over the work cap.  The size checks must refuse both
    # before any lattice array exists.  The child runs under an
    # address-space limit, so a regression fails with a MemoryError there
    # instead of taking the test host's memory.
    child = (
        "import sys, time\n"
        "from qbnsl.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    limit = 1 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(qbnsl.__file__).parents[1]))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")  # thread buffers count too
    for n, k in ((28, 2), (24, 4)):
        path = tmp_path / f"n{n}.scores"
        path.write_text(
            f"{n}\n" + "".join(f"V{i} 1\n0.0 0\n" for i in range(n)), encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "solve", str(path), "--algo", "cover", "--k", str(k)],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2 and "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert float(proc.stdout.split()[-1]) < 1.0


def test_io_and_parse_errors_exit_three(tmp_path, capsys):
    code, _, err = run(capsys, "solve", tmp_path / "missing.scores")
    assert code == 3 and "error:" in err

    bad = tmp_path / "bad.scores"
    bad.write_text("2\nA 1\n-1.0 zero\nB 1\n0.0 0\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", bad)
    assert code == 3 and "error:" in err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("A,B\n0,1\n0\n", encoding="utf-8")
    code, _, err = run(capsys, "score", ragged)
    assert code == 3 and "error:" in err


@pytest.mark.parametrize(
    "csv_text,argv,expected",
    [
        (CSV, (), 0),
        (WIDE_CSV, ("--max-indegree", "3"), 0),
        (CSV, ("--max-entries", "3"), 2),
        ("A,B\n0,1\n0\n", (), 3),
        ("A,B\n0,-1\n", (), 3),
        ("A,B\n1,99999999999999999999\n", (), 3),
        (HUGE_STATES_CSV, ("--max-indegree", "2"), 0),
        ("a b,c\n0,1\n", (), 3),
        ("#a,c\n0,1\n", (), 3),
        ("a,,c\n0,1,0\n", (), 3),
        ("A,B\n0,1\n" + " " * (csv.field_size_limit() + 1) + "1,0\n", (), 3),
    ],
    ids=[
        "pair",
        "wide-arity-100",
        "entry-budget",
        "ragged",
        "negative-cell",
        "cell-beyond-int64",
        "huge-state-indices",
        "name-with-space",
        "name-starts-with-hash",
        "empty-name",
        "field-over-csv-limit",
    ],
)
def test_score_exit_codes(tmp_path, capsys, csv_text, argv, expected):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    out_path = tmp_path / "out.scores"
    code, _, err = run(capsys, "score", csv_path, "--out", out_path, *argv)
    assert code == expected
    assert (code == 0) == (err == "")
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_score_then_solve_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(CSV, encoding="utf-8")
    out_path = tmp_path / "data.scores"
    code, out, _ = run(capsys, "score", csv_path, "--out", out_path)
    assert code == 0
    assert "F = " in out
    assert "parent_sets[A] = 2" in out
    assert "parent_sets[B] = 2" in out

    table = parse_scores(out_path.read_text(encoding="utf-8"))
    assert table.names == ("A", "B")

    code, solved_dp, _ = run(capsys, "solve", out_path, "--algo", "dp")
    assert code == 0
    code, solved_cover, _ = run(capsys, "solve", out_path, "--algo", "cover")
    assert code == 0
    line = next(l for l in solved_dp.splitlines() if l.startswith("score"))
    assert line in solved_cover


def test_score_without_out_prints_score_file(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(CSV, encoding="utf-8")
    code, out, _ = run(capsys, "score", csv_path)
    assert code == 0
    tail = out.split("parent_sets[B] = 2\n", 1)[1]
    assert parse_scores(tail).n == 2


def test_cover_stats_reference_counts(capsys):
    code, out, _ = run(capsys, "cover-stats", "--n", "26", "--k", "26")
    assert code == 0
    assert "cover_members = 10400600" in out
    assert "downsets_per_member = 16383" in out

    code, out, _ = run(capsys, "cover-stats", "--n", "8", "--k", "4")
    assert code == 0
    assert "cover_members = 36" in out
    assert "downsets_per_member = 49" in out
    assert "work_proxy = 1764" in out

    code, out, _ = run(capsys, "cover-stats", "--n", "2", "--k", "2")
    assert code == 0
    assert "cover_members = 2" in out
    assert "downsets_per_member = 3" in out
    assert "work_proxy = 6" in out


def test_cover_stats_report_file_matches_stdout(tmp_path, capsys):
    report = tmp_path / "stats.txt"
    code, out, _ = run(
        capsys, "cover-stats", "--n", "8", "--k", "4", "--report", report
    )
    assert code == 0
    assert report.read_text(encoding="utf-8") == out


def test_bench_oracle_small(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "oracle", "--instances", "8")
    assert code == 0
    assert "result = pass" in out
    assert "max_abs_score_gap" in out


def test_bench_grover_small(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "grover", "--trials", "40")
    assert code == 0
    assert "result = pass" in out
    assert "success_rate[16]" in out
    assert "single_search_closed_form[64]" in out


def test_binomial_tail_matches_scipy():
    # scipy is an independent reference here; its cdf is within ~5e-11
    # relative of the exact sum the bench prints.
    from scipy.stats import binom

    cases = [(t, np.arange(t + 1)) for t in range(1, 41)]
    cases += [(333, np.arange(0, 334, 37)), (2000, np.arange(1250, 1451, 25))]
    for trials, successes in cases:
        want = binom.cdf(successes, trials, 2.0 / 3.0)
        got = [_binomial_tail(int(s), trials) for s in successes]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)
    assert _binomial_tail(2, 2) == 1.0
    assert _binomial_tail(0, 3) == 1 / 27


def test_bench_scaling(tmp_path, capsys):
    report = tmp_path / "scaling.txt"
    code, out, _ = run(capsys, "bench", "--suite", "scaling", "--report", report)
    assert code == 0
    assert "result = pass" in out
    assert "speedup_n24" in out
    assert report.read_text(encoding="utf-8") == out


def test_parser_prog_and_config_validation(score_file, tmp_path, capsys):
    parser = build_parser()
    assert parser.prog == "qbnsl"
    with pytest.raises(SystemExit):
        parser.parse_args(["solve"])  # missing scores path
    code, _, err = run(capsys, "solve", score_file, "--algo", "cover", "--k", "5")
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, "solve", score_file, "--algo", "dp", "--k", "5")
    assert code == 0 and "score = -3.000000000" in out  # non-cover algorithms ignore k
    # The file is read before k is checked, so a missing file is an I/O error.
    code, _, err = run(
        capsys, "solve", tmp_path / "missing.scores", "--algo", "cover", "--k", "5"
    )
    assert code == 3 and "error:" in err


# Exit-code fuzz: every run of the command line ends in 0, 2 or 3, never in
# a traceback.  Counts come from the edges of their ranges and far beyond;
# files are small, valid or broken.  ``bench`` is left out: large counts
# only make it run long.
COUNTS = (-1, 0, 1, 2, 3, 12000, 10**12)


def broken(draw, text: str) -> str:
    """The text as is (most often), cut short, or with one token replaced."""
    how = draw(st.sampled_from(["keep", "keep", "cut", "token"]))
    if how == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "token":
        tokens = text.replace(",", " , ").split(" ")
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(["-1", "x", "", "1.5", "nan", str(2**64), "A"]))
        return " ".join(tokens).replace(" , ", ",")
    return text


@st.composite
def csv_files(draw):
    names = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    cell = st.integers(0, 3)
    rows = draw(st.lists(st.lists(cell, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=12))
    lines = [",".join(names)] + [",".join(map(str, row)) for row in rows]
    return broken(draw, "\n".join(lines) + "\n")


@st.composite
def score_files(draw):
    n = draw(st.integers(1, 5))
    lines = [str(n)]
    for i in range(n):
        others = [f"V{j}" for j in range(n) if j != i]
        parents = st.lists(st.sampled_from(others), max_size=2, unique=True) if others else st.just([])
        records = [[]] + draw(st.lists(parents, max_size=3, unique_by=tuple))
        lines.append(f"V{i} {len(records)}")
        for record in records:
            score = draw(st.sampled_from(["-1.5", "0.0", "2", "-3.25"]))
            lines.append(" ".join([score, str(len(record)), *record]))
    return broken(draw, "\n".join(lines) + "\n")


@st.composite
def cli_runs(draw):
    count = lambda: str(draw(st.sampled_from(COUNTS)))  # noqa: E731
    command = draw(st.sampled_from(["score", "solve", "cover-stats"]))
    if command == "cover-stats":
        argv = ["cover-stats", "--n", count(), "--k", count()]
        return argv + (["--entries", count()] if draw(st.booleans()) else []), None
    if command == "score":
        argv = ["score", "data.csv", "--max-indegree", count()]
        if draw(st.booleans()):
            argv += ["--max-entries", count()]
        return argv, ("data.csv", draw(csv_files()))
    argv = ["solve", "net.scores", "--algo", draw(st.sampled_from(ALGORITHMS)), "--k", count()]
    if draw(st.booleans()):
        argv += ["--seed", count()]
    return argv, ("net.scores", draw(score_files()))


@given(cli_runs())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cli_exit_codes_fuzz(run_case):
    argv, data = run_case
    limit = 3 << 29  # 1.5 GiB of address space, in the child only
    env = dict(os.environ, PYTHONPATH=str(Path(qbnsl.__file__).parents[1]))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            Path(tmp, data[0]).write_text(data[1], encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "qbnsl.cli", *argv],
            capture_output=True, text=True, timeout=30, env=env, cwd=tmp,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
    assert proc.returncode in (0, 2, 3), (argv, data, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, data, proc.stderr)
