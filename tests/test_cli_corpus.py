"""The command line reproduces its committed corpus byte for byte.

``cli_corpus.json`` is written by ``cli_corpus.py``: stdout, stderr, exit
code and written files of ``cover-stats`` over an (n, k, entries) grid,
every ``bench`` suite, ``score`` and ``solve`` with every algorithm, and
two exit-2 refusals.  Each record is rerun here; a difference fails with
the lines that differ.
"""

from __future__ import annotations

import difflib
import re

import pytest

from cli_corpus import all_argvs, group, load, record_id, run

VERSIONS, INPUTS, RECORDS = load()
GROUPS: dict[str, list[dict]] = {}
for rec in RECORDS:
    GROUPS.setdefault(group(rec["argv"]), []).append(rec)


def test_corpus_lists_every_command_and_its_versions():
    assert [rec["argv"] for rec in RECORDS] == all_argvs()
    assert [rec["id"] for rec in RECORDS] == [record_id(argv) for argv in all_argvs()]
    assert set(VERSIONS) == {"python", "numpy"}
    # The grover suite's binomial tail is pinned at an interior value too.
    p_values = [
        float(line.rsplit(" ", 1)[1])
        for rec in RECORDS
        for line in rec["stdout"]
        if re.match(r"binomial_p_below_two_thirds\[\d+\] = ", line)
    ]
    assert any(0.0 < p < 1.0 for p in p_values), p_values


def diff(field: str, want: list[str], got: list[str]) -> str:
    return "\n".join(difflib.unified_diff(want, got, f"corpus {field}", f"now {field}", lineterm=""))


@pytest.mark.parametrize("name", list(GROUPS))
def test_cli_matches_corpus_record(name):
    for want in GROUPS[name]:
        got = run(want["argv"], INPUTS)
        assert got["exit_code"] == want["exit_code"], want["id"]
        for field in ("stdout", "stderr"):
            assert got[field] == want[field], f"{want['id']}\n{diff(field, want[field], got[field])}"
        assert sorted(got["files"]) == sorted(want["files"]), want["id"]
        for file_name, lines in want["files"].items():
            now = got["files"][file_name]
            assert now == lines, f"{want['id']}\n{diff(file_name, lines, now)}"
