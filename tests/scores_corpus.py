"""Generate the score-file equivalence corpus, ``scores_corpus.json``.

Each record is one seeded dataset, given by its row count, arities and
indegree bound, and the ``write_scores`` text of its ``bic_scores``
table, one list item per line.  The three datasets take the three
counting paths of ``bic_scores``:

- dense sets, each shape's sets in one ``bincount`` chunk;
- dense sets over enough rows that ``_CHUNK_CODES // m`` is 3, so a
  shape's sets are counted in several chunks;
- a high-arity pair over more than ``_SPARSE_CELLS_PER_ROW * m`` cells,
  counted over its occurring cells only.

``test_scores_corpus.py`` recomputes every record, compares the text line
by line and checks the ``parse_scores`` round trip.  A change that is
meant to alter a record regenerates the file with

    PYTHONPATH=src python tests/scores_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from qbnsl.scores_io import DiscreteDataset, bic_scores, write_scores
from qbnsl.seeding import rng_for

CORPUS = Path(__file__).with_name("scores_corpus.json")
# id -> (rows m, arities, max indegree)
CASES = {
    "dense-one-chunk": (60, (2, 3, 2, 4), 3),
    "dense-chunked": (20_000, (2, 2, 3, 2, 2), 2),
    "sparse-pair": (60, (2, 3, 200, 2), 2),
}


def case_ids() -> list[str]:
    return list(CASES)


def case_inputs(case_id: str) -> tuple[DiscreteDataset, int]:
    """The case's dataset and indegree bound, all from its id."""
    m, arities, max_indegree = CASES[case_id]
    seed = int.from_bytes(hashlib.sha256(case_id.encode()).digest()[:4], "big")
    rows = rng_for(seed, "scores-corpus").integers(0, arities, size=(m, len(arities)))
    names = tuple(f"V{j}" for j in range(len(arities)))
    return DiscreteDataset(names, rows, arities), max_indegree


def record(case_id: str) -> dict:
    data, max_indegree = case_inputs(case_id)
    return {
        "id": case_id,
        "m": data.m,
        "arities": list(data.arities),
        "max_indegree": max_indegree,
        "score_file": write_scores(bic_scores(data, max_indegree)).splitlines(),
    }


def main() -> None:
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    data = {"generated_with": versions, "records": [record(case_id) for case_id in case_ids()]}
    # One score-file line per JSON line, so a changed score is one changed line.
    CORPUS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data['records'])} records to {CORPUS}")


if __name__ == "__main__":
    main()
