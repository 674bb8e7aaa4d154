"""BIC scoring and the score file reproduce their committed corpus exactly.

``scores_corpus.json`` is written by ``scores_corpus.py``.  Every record's
``write_scores`` text is recomputed and compared line by line, read back
with ``parse_scores`` and written again unchanged, and each dataset is
checked to take the counting path it stands for.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from qbnsl import scores_io
from qbnsl.scores_io import bic_scores, parse_scores, write_scores
from scores_corpus import CORPUS, case_ids, case_inputs, record

CORPUS_DATA = json.loads(CORPUS.read_text())
RECORDS = {rec["id"]: rec for rec in CORPUS_DATA["records"]}


def test_corpus_lists_every_case_and_its_versions():
    assert list(RECORDS) == case_ids()
    assert set(CORPUS_DATA["generated_with"]) == {"python", "numpy"}


@pytest.mark.parametrize("case_id", case_ids())
def test_score_file_matches_corpus_record(case_id):
    want = RECORDS[case_id]
    got = record(case_id)
    for field in want:
        assert got[field] == want[field], field
    text = "\n".join(want["score_file"]) + "\n"
    parsed = parse_scores(text)
    assert write_scores(parsed) == text
    table = bic_scores(*case_inputs(case_id))
    assert parsed.names == table.names
    for field in ("nodes", "masks", "scores", "offsets"):
        assert np.array_equal(getattr(parsed, field), getattr(table, field)), field


def test_cases_take_their_counting_paths():
    calls = {}
    for case_id in case_ids():
        data, max_indegree = case_inputs(case_id)
        with (
            mock.patch.object(scores_io, "_count_tables", wraps=scores_io._count_tables) as dense,
            mock.patch.object(
                scores_io, "_sparse_log_likelihood", wraps=scores_io._sparse_log_likelihood
            ) as sparse,
        ):
            bic_scores(data, max_indegree)
        # Sets per dense call against the sets one bincount chunk takes.
        chunked = [len(c.args[2]) > c.args[3] for c in dense.call_args_list]
        calls[case_id] = (any(chunked), sparse.call_count > 0)
    assert calls == {
        "dense-one-chunk": (False, False),
        "dense-chunked": (True, False),
        "sparse-pair": (False, True),
    }
