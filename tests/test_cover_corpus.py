"""The cover path reproduces its committed equivalence corpus exactly.

``cover_corpus.json`` is written by ``cover_corpus.py``, and a change to the
cover path leaves every record as it is unless it regenerates the file on
purpose.  Every record is recomputed here and compared field by field:
``member_optima`` bytes (under the default chunk size and with one and
three members per chunk), the ``solve_dp`` result and every
``solve_cover`` strategy's score ``repr``, witness and ledger counts.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from cover_corpus import CORPUS, case_ids, case_inputs, optima_digest, record
from qbnsl import po_dp
from qbnsl.bucket_cover import lattice_edge_count_formula
from reference import member_optima

CORPUS_DATA = json.loads(CORPUS.read_text())
RECORDS = {rec["id"]: rec for rec in CORPUS_DATA["records"]}


def test_corpus_lists_every_case_and_its_versions():
    assert list(RECORDS) == case_ids()
    assert set(CORPUS_DATA["generated_with"]) == {"python", "numpy"}


@pytest.mark.parametrize("case_id", case_ids())
def test_cover_path_matches_corpus_record(case_id):
    want = RECORDS[case_id]
    got = record(case_id)
    for field in want:
        assert got[field] == want[field], field
    table, partition, _ = case_inputs(case_id)
    # A budget of batch * max(E, F) elements is B = batch members per chunk.
    row = max(lattice_edge_count_formula(partition.n, partition.k), len(table.scores))
    for batch in (1, 3):
        with mock.patch.object(po_dp, "_CHUNK_ELEMENTS", batch * row):
            optima = member_optima(table, partition)
        assert optima_digest(optima) == want["member_optima_sha256"], batch
