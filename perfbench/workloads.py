"""The four benchmark workloads: seeded inputs, the timed op, the check.

Inputs come only from this file's generators, driven by
``numpy.random.default_rng``, so a change to the package under test cannot
change what the benchmark feeds it.  Each workload is four steps:

* ``make(rng, index)``: raw input of op ``index``, built from numpy and plain Python data only;
* ``prepare(qb, raw)``: untimed conversion into package types;
* ``op(qb, case)``: the timed calls a user of the package makes;
* ``check(qb, case, out)``: untimed verification; returns ``None`` when the
  output is right, else a one-line reason.

``qb`` is a namespace holding the package modules.  Ops call the public
functions through those module attributes, which is where the traced run
installs its span wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import numpy as np

TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    key: int  # stream key, so workloads never share an input stream
    props: dict[str, Any]
    make: Callable[[np.random.Generator, int], Any]
    prepare: Callable[[Any, Any], Any]
    op: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], "str | None"]


def op_rng(seed: int, key: int, index: int) -> np.random.Generator:
    """Input stream of op ``index`` (0 is the warm-up op)."""
    return np.random.default_rng([seed, key, index])


def witness_problem(table, score: float, dag, reference: float | None = None) -> str | None:
    """Why a returned (score, witness DAG) is wrong, or None when it is right.

    Acyclicity is checked with this file's own walk and the witness is
    rescored from the table's entries, summed in node order.
    """
    n = table.n
    if dag.n != n:
        return f"witness has {dag.n} nodes, table has {n}"
    parents = [int(p) for p in dag.parents]
    placed = 0
    while placed != (1 << n) - 1:
        ready = [i for i in range(n) if not placed >> i & 1 and parents[i] & ~placed == 0]
        if not ready:
            return "cyclic witness"
        for i in ready:
            placed |= 1 << i
    try:
        rescored = sum(table.score(i, parents[i]) for i in range(n))
    except LookupError:
        return "witness uses an unlisted parent set"
    if abs(rescored - score) > TOL:
        return f"witness rescores to {rescored!r}, solver returned {score!r}"
    if reference is not None and abs(score - reference) > TOL:
        return f"score {score!r} differs from reference optimum {reference!r}"
    return None


def _random_blocks(rng: np.random.Generator, n: int, k: int) -> list[list[int]]:
    """Blocks of k nodes from a random permutation, remainder block last."""
    nodes = [int(v) for v in rng.permutation(n)]
    return [nodes[s : s + k] for s in range(0, n, k)]


def _partition(qb, n: int, k: int, blocks: list[list[int]]):
    bc = qb.bucket_cover
    return bc.BlockPartition(n, k, tuple(qb.instance.NodeSet.from_nodes(b) for b in blocks))


# ---------------------------------------------------------------- csv-to-dag

CSV_N, CSV_M, CSV_ARITY, CSV_INDEGREE = 17, 2000, 3, 3
CSV_F = CSV_N * sum(math.comb(CSV_N - 1, d) for d in range(CSV_INDEGREE + 1))
CSV_SPOT_CHECKS = 4  # BIC entries recomputed independently per op


def _make_csv(rng: np.random.Generator, index: int) -> dict:
    """Forward-sample a random network; parents are drawn from earlier nodes."""
    n, m, r = CSV_N, CSV_M, CSV_ARITY
    order = [int(v) for v in rng.permutation(n)]
    data = np.zeros((m, n), dtype=np.int64)
    for pos, v in enumerate(order):
        k = int(rng.integers(0, min(CSV_INDEGREE, pos) + 1))
        parents = [order[int(p)] for p in rng.choice(pos, size=k, replace=False)]
        config = np.zeros(m, dtype=np.int64)
        for p in parents:
            config = config * r + data[:, p]
        cumulative = rng.dirichlet(np.ones(r), size=r**k).cumsum(axis=1)[config]
        data[:, v] = np.minimum((rng.random((m, 1)) > cumulative).sum(axis=1), r - 1)
    lines = [",".join(f"X{i}" for i in range(n))]
    lines.extend(",".join(map(str, row)) for row in data.tolist())
    spots = []
    for _ in range(CSV_SPOT_CHECKS):
        child = int(rng.integers(n))
        others = [j for j in range(n) if j != child]
        size = int(rng.integers(0, CSV_INDEGREE + 1))
        parents = sorted(int(j) for j in rng.choice(others, size, replace=False))
        spots.append((child, tuple(parents)))
    return {"text": "\n".join(lines) + "\n", "rows": data, "spots": spots}


def _bic(rows: np.ndarray, child: int, parents: tuple[int, ...]) -> float:
    """Independent BIC of one family, from sparse joint counts."""
    m = rows.shape[0]
    arity = rows.max(axis=0) + 1
    joint, counts = np.unique(rows[:, [*parents, child]], axis=0, return_counts=True)
    totals: Any = m
    if parents:
        _, parent_of = np.unique(joint[:, :-1], axis=0, return_inverse=True)
        parent_of = parent_of.ravel()
        totals = np.bincount(parent_of, weights=counts)[parent_of]
    ll = float((counts * np.log(counts / totals)).sum())
    params = int(arity[child] - 1) * math.prod(int(arity[j]) for j in parents)
    return ll - 0.5 * math.log(m) * params


def _csv_op(qb, raw: dict) -> dict:
    sio = qb.scores_io
    data = sio.DiscreteDataset.from_csv(raw["text"])
    table = sio.bic_scores(data, max_indegree=CSV_INDEGREE)
    text = sio.write_scores(table)
    parsed = sio.parse_scores(text)
    score, dag = qb.dp_exact.solve_dp(parsed)
    rescored = qb.instance.total_score(dag, parsed)
    return {"table": table, "parsed": parsed, "score": score, "dag": dag, "rescored": rescored}


def _csv_check(qb, raw: dict, out: dict) -> str | None:
    table, parsed = out["table"], out["parsed"]
    if table.n != CSV_N or table.total_entries != CSV_F:
        return f"BIC table has n={table.n}, F={table.total_entries}"
    if parsed != table:
        return "parse_scores(write_scores(t)) != t"
    for child, parents in raw["spots"]:
        mask = sum(1 << j for j in parents)
        want = _bic(raw["rows"], child, parents)
        if abs(table.score(child, mask) - want) > TOL * max(1.0, abs(want)):
            return f"BIC of node {child} given {parents} is off"
    if abs(out["rescored"] - out["score"]) > TOL:
        return "total_score disagrees with solve_dp's score"
    return witness_problem(parsed, out["score"], out["dag"])


# ---------------------------------------------------------------- cover-scan

COVER_N, COVER_K, COVER_INDEGREE, COVER_ROWS = 12, 4, 2, 2000
COVER_F = COVER_N * sum(math.comb(COVER_N - 1, d) for d in range(COVER_INDEGREE + 1))


def _make_cover(rng: np.random.Generator, index: int) -> dict:
    """Dense tables shaped like BIC: likelihood gains against a penalty that
    triples with every parent (arity 3), over every set of up to 2 parents."""
    n = COVER_N
    half_log_m = 0.5 * math.log(COVER_ROWS)
    entries = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        base = -rng.uniform(800.0, 1200.0)
        gain = rng.exponential(20.0, size=n)
        node: dict[int, float] = {}
        for size in range(COVER_INDEGREE + 1):
            for combo in combinations(others, size):
                synergy = rng.normal(0.0, 5.0) if size > 1 else 0.0
                penalty = half_log_m * 2 * 3**size
                node[sum(1 << j for j in combo)] = (
                    base + sum(gain[j] for j in combo) + synergy - penalty
                )
        entries.append(node)
    return {"entries": entries, "blocks": _random_blocks(rng, n, COVER_K)}


def _cover_prepare(qb, raw: dict) -> dict:
    table = qb.instance.LocalScoreTable(COVER_N, raw["entries"])
    return {"table": table, "partition": _partition(qb, COVER_N, COVER_K, raw["blocks"])}


def _cover_op(qb, case: dict):
    return qb.po_dp.solve_cover(case["table"], case["partition"], "classical-scan")


def _cover_check(qb, case: dict, out) -> str | None:
    score, dag, _ledger = out
    reference, _ = qb.dp_exact.solve_dp(case["table"])
    return witness_problem(case["table"], score, dag, reference)


# -------------------------------------------------------------- oracle-sweep

SWEEP_NODES = range(2, 9)
SWEEP_MAX_SETS, SWEEP_KS = 12, (2, 4)


def _make_sweep(rng: np.random.Generator, index: int) -> dict:
    """Sparse tables: 1..12 random parent sets per node, scores U[-10, 10);
    n cycles through 2..8 with the op index."""
    n = SWEEP_NODES[index % len(SWEEP_NODES)]
    entries = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        want = min(int(rng.integers(1, SWEEP_MAX_SETS + 1)), 1 << len(others))
        masks = {0}
        while len(masks) < want:
            pick = int(rng.integers(1 << len(others)))
            masks.add(sum(1 << j for b, j in enumerate(others) if pick >> b & 1))
        entries.append({mask: float(rng.uniform(-10.0, 10.0)) for mask in sorted(masks)})
    blocks = {k: _random_blocks(rng, n, k) for k in SWEEP_KS if k <= n}
    return {"n": n, "entries": entries, "blocks": blocks}


def _sweep_prepare(qb, raw: dict) -> dict:
    n = raw["n"]
    table = qb.instance.LocalScoreTable(n, raw["entries"])
    parts = [_partition(qb, n, k, b) for k, b in raw["blocks"].items()]
    return {"table": table, "partitions": parts}


def _sweep_op(qb, case: dict) -> list:
    table = case["table"]
    results = [qb.dp_exact.solve_dp(table)]
    for partition in case["partitions"]:
        results.append(qb.po_dp.solve_cover(table, partition, "classical-scan")[:2])
    return results


def _sweep_check(qb, case: dict, out: list) -> str | None:
    table = case["table"]
    reference = qb.dp_exact.brute_force_orders(table)
    if len(out) != 1 + len(case["partitions"]):
        return "missing solver results"
    for score, dag in out:
        problem = witness_problem(table, score, dag, reference)
        if problem:
            return problem
    return None


# ------------------------------------------------------------------- maxfind

MAXFIND_M, MAXFIND_REPETITIONS = 1296, 7


def _make_maxfind(rng: np.random.Generator, index: int) -> dict:
    """Distinct values (a shuffled ramp), so exactly one point is the argmax."""
    values = rng.permutation(MAXFIND_M).astype(np.float64) * 0.25 - 100.0
    return {"values": values, "rng_seed": int(rng.integers(2**31))}


def _maxfind_prepare(qb, raw: dict) -> dict:
    return raw


def _maxfind_op(qb, case: dict):
    gs = qb.grover_sim
    oracle = gs.MaxOracle(MAXFIND_M, case["values"].__getitem__)
    return gs.max_find(
        oracle, MAXFIND_M, "sim", rng_seed=case["rng_seed"], repetitions=MAXFIND_REPETITIONS
    )


def _maxfind_check(qb, case: dict, out) -> str | None:
    index, value, _ledger = out
    best = int(np.argmax(case["values"]))
    if index != best:
        return f"index {index} is not the argmax {best}"
    if value != case["values"][best]:
        return "returned value differs from the oracle's value at the argmax"
    return None


# ------------------------------------------------------------------ registry
# Why each workload exists is recorded once, in BENCHMARK.json.

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "csv-to-dag", 1,
            {"n": CSV_N, "m": CSV_M, "arity": CSV_ARITY, "indegree": CSV_INDEGREE, "F": CSV_F},
            _make_csv, lambda qb, raw: raw, _csv_op, _csv_check,
        ),
        Workload(
            "cover-scan", 2,
            {"n": COVER_N, "k": COVER_K, "indegree": COVER_INDEGREE, "F": COVER_F,
             "members": 216, "downsets_per_member": 343},
            _make_cover, _cover_prepare, _cover_op, _cover_check,
        ),
        Workload(
            "oracle-sweep", 3,
            {"n": "2..8", "k": list(SWEEP_KS), "max_sets_per_node": SWEEP_MAX_SETS,
             "downsets_per_member": "3..81"},
            _make_sweep, _sweep_prepare, _sweep_op, _sweep_check,
        ),
        Workload(
            "maxfind", 4,
            {"domain_m": MAXFIND_M, "repetitions": MAXFIND_REPETITIONS},
            _make_maxfind, _maxfind_prepare, _maxfind_op, _maxfind_check,
        ),
    )
}
