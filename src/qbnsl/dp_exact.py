"""Classical exact solvers: subset dynamic programming and brute forcers.

The subset DP runs in O(2^n * n^2) after one (2^(n-1), n) subset-max
array is folded by :func:`_fold_sub_downsets`, as the cover scan's cells
are; it is the reference solver for n up to ``DP_CAP``, its only limit.
Column i holds values only, over the other n-1 nodes (bit i squeezed out),
as does the DP table: the traceback recovers sinks, then witness parents
by ``instance.choose_parents``, the cover trace's parent rule.  It runs
each layer in bounded slices, and ``_dp_plan`` counts the arrays it holds.
The brute forcers are test oracles, over all node orderings and over all
parent assignments that form a DAG.  Each solver refuses an instance
over its size cap, a module constant read at call time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .instance import Dag, InstanceTooLargeError, LocalScoreTable, NodeSet
from .instance import choose_parents, is_acyclic

# Unused here, but perfbench/spans.py wraps these two names in this module.
from .instance import best_parents_in, total_score  # noqa: F401

DP_CAP = 20
ORDER_BRUTE_CAP = 8
DAG_BRUTE_CAP = 4
_SLICE_SETS = 1 << 10  # squeezed sets in one slice of a DP layer


def best_parents_all_subsets(table: LocalScoreTable) -> np.ndarray:
    """Subset-max transform of every node's score entries over its n-1 others.

    ``values[k, i]`` is max{ s_i(J) : J listed for i, J subset of S } for
    the mask S of the nodes other than i whose bits, with bit i squeezed
    out, spell k: k = (S & low) | ((S >> 1) & ~low) with low = 2^i - 1.
    The array is (2^(n-1), n), a row per squeezed set in ascending order,
    seeded by one scatter and folded on one Boolean axis.
    """
    n = table.n
    if n > DP_CAP:
        raise InstanceTooLargeError(f"n={n} exceeds the subset-table cap {DP_CAP}")
    low = (1 << table.nodes) - 1
    squeezed = (table.masks & low) | ((table.masks >> 1) & ~low)
    values = np.full((1 << (n - 1), n), -np.inf, dtype=np.float64)
    values[squeezed, table.nodes] = table.scores
    _fold_sub_downsets(values, ((1 << (n - 1), ((0, n - 1),)),))
    return values


def _fold_sub_downsets(values: np.ndarray, axes) -> None:
    """In place, replace each row by the max over the rows below it.

    ``values`` is (rows, width), rows a product of lattices, first axis
    most significant; an axis is (radix, parts), each part (start, bits) a
    Boolean lattice on digits start..start+2^bits-1.  A block axis is the
    first half's (digits 0..2^h-1) with the second half's stacked on its
    top (digits 2^h-1 onwards), so one max pass per local bit finishes the
    axis.
    """
    outer, inner = 1, values.size
    for radix, parts in axes:
        inner //= radix
        axis = values.reshape(outer, radix, inner)
        for start, bits in parts:
            part = axis[:, start : start + (1 << bits)]
            for j in range(bits):
                pairs = part.reshape(outer, -1, 2, (1 << j) * inner, copy=False)
                upper = pairs[:, :, 1]
                np.maximum(upper, pairs[:, :, 0], out=upper)
        outer *= radix


def _plan_bytes(held: tuple, phases: tuple) -> int:
    """Bytes of the ``held`` (shape, ``np.dtype``) arrays and of the largest
    of the ``phases``, whose arrays never live at the same time."""
    def size(arrays):
        return sum(math.prod(shape) * dtype.itemsize for shape, dtype in arrays)

    return size(held) + max(map(size, phases))


def _dp_plan(n: int, entries: int) -> tuple[int, tuple, tuple]:
    """C, the widest slice of a layer; (shape, dtype) of the subset tables,
    held throughout; and of each phase's own arrays, at the bound beside
    each, for ``solve_dp`` on F entries."""
    half, i64, f64, flag = 1 << (n - 1), np.dtype(np.int64), np.dtype(np.float64), np.dtype(bool)
    width = min(_SLICE_SETS, math.comb(n - 1, (n - 1) // 2))  # the middle layer is the widest
    kept = (((2 * half,), f64), ((half,), i64))  # opt, the layer order
    return width, (((half, n), f64),), (
        (((5, entries), i64),),  # seeding: squeezed masks, with up to four of their parts
        kept + (((n, width), i64), ((2, n, width), f64),  # a slice's targets, candidates,
                ((2, np.getbufsize()), f64)),  # gathered rows, and at most two ufunc buffers
        # the traceback's one choose_parents row: (1, F) arrays, as _scan_plan counts a trace's
        kept + (((1, 2 * entries), f64), ((1, 2 * entries), flag), ((entries,), i64)),
    )


def solve_dp(table: LocalScoreTable) -> tuple[float, Dag]:
    """Exact optimum over all DAGs by dynamic programming over subsets.

    opt[S] is the best score of a network on the nodes of S; each step
    chooses the last node of S in some topological order.  Returns the
    optimal total score together with a witness DAG whose rescoring equals
    the returned value.  opt holds values only; the traceback takes each
    set's smallest sink whose candidate, re-added from the same two floats,
    equals opt[S]; one ``choose_parents`` row then gives every sink its
    parents and adds the total in node order.
    Each layer runs in slices of at most ``_SLICE_SETS`` sets, which bound
    its temporaries: the peak is about 1.3x the subset tables at n = 16
    and 1.2x at n = 18.  ``DP_CAP`` is the only limit; no byte cap applies.
    """
    n = table.n
    if n > DP_CAP:
        raise InstanceTooLargeError(f"n={n} exceeds the DP cap {DP_CAP}")
    size = 1 << n
    best_parent_values = best_parents_all_subsets(table)
    # Squeezed masks by cardinality, ascending within each layer.  Layer l
    # of the DP reads, for every sink i, the same squeezed indices: the
    # masks of l-1 other nodes; unsqueezing them per i gives S minus i.
    by_layer = np.argsort(np.bitwise_count(np.arange(size >> 1)), kind="stable")
    layer_ends = np.cumsum([math.comb(n - 1, c) for c in range(n)]).tolist()
    width = _dp_plan(n, len(table.scores))[0]
    nodes = np.arange(n)[:, None]
    high = ~((1 << nodes) - 1)
    opt = np.full(size, -np.inf, dtype=np.float64)
    opt[0] = 0.0
    start = 0
    for end in layer_ends:
        # A layer's targets of one sink are distinct, and max is exact in
        # any order, so slices of the layer leave opt as one pass would.
        for lo in range(start, end, width):
            squeezed = by_layer[lo : min(lo + width, end)]
            targets = squeezed & high
            targets += squeezed  # S minus i: the bits at and above i move up one
            candidates = opt[targets]
            candidates += np.take(best_parent_values, squeezed, axis=0).T
            targets |= 1 << nodes
            for row, sink_targets in zip(candidates, targets):
                np.maximum(row, opt[sink_targets], out=row)
                opt[sink_targets] = row
            # Freed now: the loop's rows are views, which would keep them
            # alive while the next slice's are made.
            del targets, candidates, row, sink_targets
        start = end
    allowed = np.empty((1, n), dtype=np.int64)  # each sink's set left behind
    mask = size - 1
    while mask:
        for i in NodeSet(mask):
            rest, below = mask ^ (1 << i), (1 << i) - 1
            if opt[rest] + best_parent_values[rest & below | (rest >> 1) & ~below, i] == opt[mask]:
                break
        mask = allowed[0, i] = rest
    totals, entry = choose_parents(table, allowed)
    return float(totals[0]), Dag.from_masks(n, table.masks[entry[0]])


def brute_force_orders(table: LocalScoreTable) -> float:
    """Oracle: maximize over all n! node orderings.

    For a fixed ordering the best network takes, per node, its best listed
    parent set among its predecessors; the maximum over orderings equals
    the DAG optimum.  Per-(node, predecessor-mask) bests are direct linear
    scans, independent of the DP's subset-max propagation.
    """
    n = table.n
    if n > ORDER_BRUTE_CAP:
        raise InstanceTooLargeError(f"n={n} exceeds the order brute-force cap {ORDER_BRUTE_CAP}")
    best_in = [[0.0] * (1 << n) for _ in range(n)]
    for i in range(n):
        items = table.items(i)
        for mask in range(1 << n):
            if not (mask >> i) & 1:  # the empty set always qualifies
                best_in[i][mask] = max(score for pset, score in items if not pset & ~mask)
    best_total = -float("inf")
    for perm in itertools.permutations(range(n)):
        placed, acc = 0, 0.0
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
    scores = [dict(table.items(i)) for i in range(n)]
    # The empty assignment is always acyclic, so there is at least one DAG.
    return max(
        sum(scores[i][dag.parents[i].bits] for i in range(n)) for dag in enumerate_dags(table)
    )
