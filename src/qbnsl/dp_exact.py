"""Classical exact solvers: subset dynamic programming and brute forcers.

The subset DP runs in O(2^n * n^2) after one (n, 2^(n-1)) subset-max
array is built, and is the reference solver for n up to ``DP_CAP``.  Row
i holds values only, over the other n-1 nodes (bit i squeezed out), as
does the DP table: the traceback recovers sinks from the values, then
each witness parent set with ``best_parents_in``.
The brute forcers are test oracles, over all node orderings and over all
parent assignments that form a DAG.  Each solver refuses an instance
over its size cap, a module constant read at call time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .instance import (
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    NodeSet,
    best_parents_in,
    is_acyclic,
    total_score,
)

DP_CAP = 20
ORDER_BRUTE_CAP = 8
DAG_BRUTE_CAP = 4


def best_parents_all_subsets(table: LocalScoreTable) -> np.ndarray:
    """Subset-max transform of every node's score entries over its n-1 others.

    ``values[i, k]`` is max{ s_i(J) : J listed for i, J subset of S } for
    the mask S of the nodes other than i whose bits, with bit i squeezed
    out, spell k: k = (S & low) | ((S >> 1) & ~low) with low = 2^i - 1.
    The array is (n, 2^(n-1)), ascending S in each row.
    """
    n = table.n
    if n > DP_CAP:
        raise InstanceTooLargeError(f"n={n} exceeds the subset-table cap {DP_CAP}")
    low = (1 << table.nodes) - 1
    squeezed = (table.masks & low) | ((table.masks >> 1) & ~low)
    values = np.full((n, 1 << (n - 1)), -np.inf, dtype=np.float64)
    values[table.nodes, squeezed] = table.scores
    # One max-propagation pass per dimension over all rows: after pass j,
    # each index holds the best over seeded subsets differing only in bits <= j.
    for j in range(n - 1):
        pairs = values.reshape(n, -1, 2, 1 << j)
        hi = pairs[:, :, 1, :]
        np.maximum(hi, pairs[:, :, 0, :], out=hi)
    return values


def solve_dp(table: LocalScoreTable) -> tuple[float, Dag]:
    """Exact optimum over all DAGs by dynamic programming over subsets.

    opt[S] is the best score of a network on the nodes of S; each step
    chooses the last node of S in some topological order.  Returns the
    optimal total score together with a witness DAG whose rescoring equals
    the returned value.  opt holds values only; the traceback takes each
    set's smallest sink whose candidate, re-added from the same two floats,
    equals opt[S].  Parent ties go to the smallest (cardinality, bitmask).
    """
    n = table.n
    if n > DP_CAP:
        raise InstanceTooLargeError(f"n={n} exceeds the DP cap {DP_CAP}")
    size = 1 << n
    half = size >> 1
    best_parent_values = best_parents_all_subsets(table)
    # Squeezed masks by cardinality, ascending within each layer.  Layer l
    # of the DP reads, for every sink i, the same squeezed indices: the
    # masks of l-1 other nodes; unsqueezing them per i gives S minus i.
    by_layer = np.argsort(np.bitwise_count(np.arange(half)), kind="stable")
    layer_ends = np.cumsum([math.comb(n - 1, c) for c in range(n)]).tolist()
    nodes = np.arange(n)[:, None]
    low = (1 << nodes) - 1
    opt = np.full(size, -np.inf, dtype=np.float64)
    opt[0] = 0.0
    start = 0
    for end in layer_ends:
        squeezed = by_layer[start:end]
        start = end
        without = (squeezed & low) | ((squeezed & ~low) << 1)
        candidates = opt[without] + np.take(best_parent_values, squeezed, axis=1)
        with_sink = without | (1 << nodes)
        for row, targets in zip(candidates, with_sink):
            np.maximum(row, opt[targets], out=row)
            opt[targets] = row
    parents: list[NodeSet] = [NodeSet(0)] * n
    mask = size - 1
    while mask:
        for i in NodeSet(mask):
            rest, below = mask ^ (1 << i), (1 << i) - 1
            if opt[rest] + best_parent_values[i, rest & below | (rest >> 1) & ~below] == opt[mask]:
                break
        mask = rest
        parents[i] = best_parents_in(table, i, mask)[1]
    dag = Dag(n, tuple(parents))
    return total_score(dag, table), dag


def brute_force_orders(table: LocalScoreTable) -> float:
    """Oracle: maximize over all n! node orderings.

    For a fixed ordering the best network takes, per node, its best listed
    parent set among its predecessors; the maximum over orderings equals
    the DAG optimum.  Per-(node, predecessor-mask) bests are direct linear
    scans, independent of the DP's subset-max propagation.
    """
    n = table.n
    if n > ORDER_BRUTE_CAP:
        raise InstanceTooLargeError(
            f"n={n} exceeds the order brute-force cap {ORDER_BRUTE_CAP}"
        )
    size = 1 << n
    best_in: list[list[float]] = [[0.0] * size for _ in range(n)]
    for i in range(n):
        row = best_in[i]
        entries = table.items(i)
        for mask in range(size):
            if (mask >> i) & 1:
                continue
            best = None
            for pset, score in entries:
                if pset & ~mask:
                    continue
                if best is None or score > best:
                    best = score
            row[mask] = best  # empty set always qualifies
    best_total = -float("inf")
    for perm in itertools.permutations(range(n)):
        placed = 0
        acc = 0.0
        for v in perm:
            acc += best_in[v][placed]
            placed |= 1 << v
        if acc > best_total:
            best_total = acc
    return best_total


def enumerate_dags(table: LocalScoreTable):
    """Yield every acyclic assignment of listed parent sets, one per node."""
    n = table.n
    per_node = [tuple(mask for mask, _ in table.items(i)) for i in range(n)]
    for assignment in itertools.product(*per_node):
        dag = Dag.from_masks(n, assignment)
        if is_acyclic(dag):
            yield dag


def brute_force_dags(table: LocalScoreTable) -> float:
    """Oracle: maximize the total score over every explicitly enumerated DAG."""
    n = table.n
    if n > DAG_BRUTE_CAP:
        raise InstanceTooLargeError(f"n={n} exceeds the DAG brute-force cap {DAG_BRUTE_CAP}")
    best = None
    for dag in enumerate_dags(table):
        score = sum(table.score(i, dag.parents[i]) for i in range(n))
        if best is None or score > best:
            best = score
    assert best is not None  # empty assignment is always acyclic
    return best
