"""Generate the cover-path equivalence corpus, ``cover_corpus.json``.

Each record is one seeded (table, partition) case with everything the
cover path returns for it: the ``member_optima`` bytes as a sha256, the
``solve_dp`` score and witness, and for every ``solve_cover`` strategy the
score ``repr``, the witness parent masks and the ledger's two meters
(``grover-sim`` at a fixed seed per case).  The cases run over n = 2..10,
k = 2 and 4, random and tie-heavy tables (small integer scores with some
``-inf`` entries), and contiguous and shuffled blocks.

``test_cover_corpus.py`` recomputes every record and compares it field by
field, so a kernel rewrite that changes any result shows which one.  A
change that is meant to alter a record regenerates the file with

    PYTHONPATH=src python tests/cover_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from qbnsl.bucket_cover import BlockPartition
from qbnsl.dp_exact import solve_dp
from qbnsl.instance import LocalScoreTable
from qbnsl.po_dp import COVER_STRATEGIES, solve_cover
from qbnsl.seeding import rng_for
from qbnsl.tables import random_table
from reference import member_optima

CORPUS = Path(__file__).with_name("cover_corpus.json")
KINDS = ("random", "tie-heavy")
LAYOUTS = ("contiguous", "shuffled")


def case_ids() -> list[str]:
    return [
        f"n{n}-k{k}-{kind}-{layout}"
        for n in range(2, 11)
        for k in (2, 4)
        if k <= n
        for kind in KINDS
        for layout in LAYOUTS
    ]


def case_inputs(case_id: str) -> tuple[LocalScoreTable, BlockPartition, int]:
    """The case's table, partition and grover-sim seed, all from its id."""
    head, layout = case_id.rsplit("-", 1)
    size, block, kind = head.split("-", 2)
    n, k = int(size[1:]), int(block[1:])
    seed = int.from_bytes(hashlib.sha256(case_id.encode()).digest()[:4], "big")
    rng = rng_for(seed, "cover-corpus")
    table = random_table(rng, n)
    if kind == "tie-heavy":
        # Small integer scores tie often; -inf never wins over the empty set.
        entries = []
        for i in range(n):
            node = {}
            for mask, _ in table.items(i):
                score = float(rng.integers(-2, 3))
                node[mask] = float("-inf") if mask and rng.random() < 0.2 else score
            entries.append(node)
        table = LocalScoreTable(n, entries)
    if layout == "shuffled":
        partition = BlockPartition.shuffled(n, k, seed)
    else:
        partition = BlockPartition.contiguous(n, k)
    return table, partition, seed


def optima_digest(optima: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(optima, dtype=np.float64).tobytes()).hexdigest()


def result_record(score: float, dag) -> dict:
    return {"score": repr(score), "parents": [int(p) for p in dag.parents]}


def record(case_id: str) -> dict:
    table, partition, seed = case_inputs(case_id)
    out = {
        "id": case_id,
        "grover_seed": seed,
        "member_optima_sha256": optima_digest(member_optima(table, partition)),
        "solve_dp": result_record(*solve_dp(table)),
    }
    for strategy in COVER_STRATEGIES:
        score, dag, ledger = solve_cover(table, partition, strategy, seed=seed)
        out[strategy] = result_record(score, dag) | {
            "classical_evals": ledger.classical_evals,
            "charged_quantum_queries": ledger.charged_quantum_queries,
        }
    return out


def main() -> None:
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    # One record per line, so a changed record is one changed line.
    lines = [json.dumps(record(case_id)) for case_id in case_ids()]
    CORPUS.write_text(
        f'{{"generated_with": {json.dumps(versions)},\n"records": [\n'
        + ",\n".join(lines)
        + "\n]}\n"
    )
    print(f"wrote {len(lines)} records to {CORPUS}")


if __name__ == "__main__":
    main()
