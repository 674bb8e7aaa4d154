"""Generate the command-line equivalence corpus, ``cli_corpus.json``.

Each record is one ``qbnsl`` invocation, run in process through
``qbnsl.cli.main`` in a fresh directory holding the corpus's input files,
with everything it produced: stdout, stderr, the exit code and the text of
every file it wrote.  The commands are

* ``cover-stats`` on a grid: n = 1..30, 64, 333, 999 and 1000; k = 2, 4,
  26 and the largest even k <= n, where valid (n = 1 has none, so its
  k = 2 refusal stands in); ``--entries`` at its default, at 1 and at its
  maximum; one run also writes ``--report``;
* ``bench`` with each suite: ``scaling``, ``grover`` at small ``--trials``
  and two seeds, and ``oracle`` with a few instances;
* ``score`` on a small CSV, to stdout and to ``--out``;
* ``solve`` with every ``--algo`` at k = 2 and 4, with and without
  ``--shuffle-blocks``, on a 4-node and a 7-node score file;
* the exit-2 refusals of ``dp`` at n = 21 and of ``cover-grover`` at
  (n, k) = (18, 6), whose 8,000 members are over the simulation cap.

The input files are stored in the corpus too, so a change to the table
generators cannot change what the commands read.  ``test_cli_corpus.py``
reruns every record and shows the lines that differ.  A change that is
meant to alter an output regenerates the file with

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import io
import json
import platform
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from qbnsl.cli import ALGORITHMS, MAX_REPORT_N, main
from qbnsl.scores_io import write_scores
from qbnsl.tables import random_table

CORPUS = Path(__file__).with_name("cli_corpus.json")
# Stands for the run's working directory in argv and in recorded text.
DIR = "{dir}"
MAX_ENTRIES = str(MAX_REPORT_N << (MAX_REPORT_N - 1))


def make_inputs() -> dict[str, str]:
    """The input files, drawn once when the corpus is generated."""
    rng = np.random.default_rng(20261019)
    rows = rng.integers(0, [2, 3, 2, 3], size=(60, 4))
    rows[:, 1] = (rows[:, 0] + rows[:, 1]) % 3  # B leans on A
    csv = "A,B,C,D\n" + "".join(",".join(map(str, row)) + "\n" for row in rows.tolist())
    return {
        "data.csv": csv,
        "four.scores": write_scores(random_table(rng, 4)),
        "seven.scores": write_scores(random_table(rng, 7)),
        "eighteen.scores": empty_parent_sets(18),
        "twentyone.scores": empty_parent_sets(21),
    }


def empty_parent_sets(n: int) -> str:
    return f"{n}\n" + "".join(f"X{i} 1\n0.0 0\n" for i in range(n))


def cover_stats_argvs() -> list[list[str]]:
    argvs = []
    for n in [*range(1, 31), 64, 333, 999, 1000]:
        ks = sorted({k for k in (2, 4, 26, n - n % 2) if 2 <= k <= n}) or [2]
        for k in ks:
            for entries in (None, "1", MAX_ENTRIES):
                argv = ["cover-stats", "--n", str(n), "--k", str(k)]
                argvs.append(argv + ([] if entries is None else ["--entries", entries]))
    argvs.append(["cover-stats", "--n", "12", "--k", "4", "--report", f"{DIR}/stats.txt"])
    return argvs


def bench_argvs() -> list[list[str]]:
    return [
        ["bench", "--suite", "scaling"],
        ["bench", "--suite", "scaling", "--report", f"{DIR}/scaling.txt"],
        ["bench", "--suite", "grover", "--trials", "6", "--seed", "0"],
        ["bench", "--suite", "grover", "--trials", "9", "--seed", "5"],
        ["bench", "--suite", "oracle", "--instances", "14", "--seed", "3"],
    ]


def score_and_solve_argvs() -> list[list[str]]:
    argvs = [
        ["score", f"{DIR}/data.csv"],
        ["score", f"{DIR}/data.csv", "--max-indegree", "1", "--out", f"{DIR}/out.scores"],
    ]
    for scores in ("four.scores", "seven.scores"):
        for algo in ALGORITHMS:
            for k in ("2", "4"):
                for shuffle in ([], ["--shuffle-blocks"]):
                    argvs.append(
                        ["solve", f"{DIR}/{scores}", "--algo", algo, "--k", k, "--seed", "3"]
                        + shuffle
                    )
    argvs.append(["solve", f"{DIR}/seven.scores", "--algo", "cover", "--out", f"{DIR}/dag.txt"])
    argvs.append(["solve", f"{DIR}/twentyone.scores", "--algo", "dp"])
    argvs.append(["solve", f"{DIR}/eighteen.scores", "--algo", "cover-grover", "--k", "6"])
    return argvs


def all_argvs() -> list[list[str]]:
    return cover_stats_argvs() + bench_argvs() + score_and_solve_argvs()


def record_id(argv: list[str]) -> str:
    return " ".join(argv).replace(f"{DIR}/", "").replace(MAX_ENTRIES, "max")


def group(argv: list[str]) -> str:
    """The test a record belongs to: one per cover-stats n, else its own."""
    return " ".join(argv[:3]) if argv[0] == "cover-stats" else record_id(argv)


def run(argv: list[str], inputs: dict[str, str]) -> dict:
    """Run one command in a fresh directory holding the inputs it names."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in inputs.items():
            if f"{DIR}/{name}" in argv:
                (root / name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.replace(DIR, tmp) for arg in argv])
        files = {
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(root.iterdir())
            if path.name not in inputs
        }
    return {
        "id": record_id(argv),
        "argv": argv,
        "exit_code": code,
        "stdout": out.getvalue().replace(tmp, DIR).splitlines(),
        "stderr": err.getvalue().replace(tmp, DIR).splitlines(),
        "files": {name: text.splitlines() for name, text in files.items()},
    }


def load() -> tuple[dict, dict[str, str], list[dict]]:
    """The committed corpus: its versions, input files and records."""
    data = json.loads(CORPUS.read_text(encoding="utf-8"))
    inputs = {name: "\n".join(lines) + "\n" for name, lines in data["inputs"].items()}
    return data["generated_with"], inputs, data["records"]


def main_generate() -> None:
    inputs = make_inputs()
    corpus = {
        "generated_with": {"python": platform.python_version(), "numpy": np.__version__},
        "inputs": {name: text.splitlines() for name, text in inputs.items()},
        "records": [run(argv, inputs) for argv in all_argvs()],
    }
    # One output line per JSON line, so a changed output is a readable diff.
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus['records'])} records to {CORPUS}")


if __name__ == "__main__":
    main_generate()
