"""Constrained optimization over one cover member's downset lattice.

Fixing a cover member restricts attention to linear orders extending its
precedence constraints; the best network score over those orders is
computed by dynamic programming whose states are the member's downsets.
Every member of a partition shares one slot-space lattice
(:class:`~qbnsl.bucket_cover.LatticeTemplate`), so the lattice is built
once and each member solve is a handful of numpy passes over it:

- the per-node inner maxima, values only: every listed parent set is
  bucketed at its downward closure (O(F n) for F table entries), then
  folded into its superset downsets one block axis at a time, at most
  n^2 D / 2 elementwise max folds for D downsets;
- the member DP, one cardinality layer at a time over the template's CSR
  edges, O(D n);
- the traceback, which re-derives each witness parent set with
  ``best_parents_in`` (O(F) in all).

This is correct for arbitrary listed parent sets (no closure-under-
inclusion assumption).  On top of the member solver sit three search
strategies over the whole cover: exhaustive classical scan, simulated
quantum maximum finding, and an analytic cost model that books the
quantum charge without simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bucket_cover import (
    BlockPartition,
    CoverMember,
    DownsetIndex,
    LatticeTemplate,
    closure_digit,
    cover_size,
    covering_member,
    member_by_index,
)
from .dp_exact import DP_CAP, solve_dp
from .grover_sim import MAX_SIM_DOMAIN, MaxOracle, QueryLedger, max_find, quantum_charge
from .instance import (
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    NodeSet,
    best_parents_in,
    topological_order,
    total_score,
)

COVER_STRATEGIES = ("classical-scan", "grover-sim", "grover-cost-model")
SCAN_MEMBER_CAP = 1_000_000
_NEG_INF = float("-inf")


class StrategyUnavailableError(ValueError):
    """The requested cover-search strategy is not one of COVER_STRATEGIES."""


@dataclass
class DownsetScoreTable:
    """Per (node, downset): the best listed parent score within the downset.

    ``values[i, d]`` is max{ s_i(J) : J listed for i, J inside downset d },
    an (n, D) float array.  It holds values only: the witness parent set
    of node i inside a downset is ``best_parents_in(table, i, downset)``.
    ``edge_visits`` counts the sweep's elementwise max folds (n per local
    lattice edge per slice of the other blocks), for work-bound checks.
    """

    index: DownsetIndex
    values: np.ndarray
    edge_visits: int


class ScoreEntries(NamedTuple):
    """A table's entries as flat arrays: owning node, parent-set bits, score.

    ``bits[e, j]`` is 1 iff node j is in entry e's parent set, so the
    entries' slot masks under a member are ``bits @ index.slot_weights()``.
    """

    node: np.ndarray
    bits: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, table: LocalScoreTable) -> "ScoreEntries":
        nodes: list[int] = []
        masks: list[int] = []
        scores: list[float] = []
        for i in range(table.n):
            for mask, score in table.items(i):
                nodes.append(i)
                masks.append(mask)
                scores.append(score)
        mask_array = np.array(masks, dtype=np.int64)
        bits = (mask_array[:, None] >> np.arange(table.n, dtype=np.int64)) & 1
        return cls(np.array(nodes, dtype=np.int64), bits, np.array(scores))


def downset_best_parents(
    table: LocalScoreTable,
    member: CoverMember,
    index: DownsetIndex | None = None,
    entries: ScoreEntries | None = None,
) -> DownsetScoreTable:
    """Best-parent scores for every node over every downset of the member.

    Works in two phases, on all nodes at once.  Every listed parent set is
    bucketed at the index of its downward closure (valid because a set
    lies inside a downset exactly when its closure does): its mask is
    relabelled to slots, each block's part is closed and turned into a
    local digit, and ``np.maximum.at`` keeps each bucket's best score.
    Then the bucket maxima are folded into every superset downset one
    block axis at a time, over that block's small local lattice; the
    downset lattice is the product of the block lattices, so this yields
    the max over all sub-downsets.  Values only: witnesses come from
    ``best_parents_in`` on the traceback, with the same (cardinality,
    bitmask) tie rule.
    """
    n = table.n
    if n != member.partition.n:
        raise ValueError("table and member sizes differ")
    if index is None:
        index = DownsetIndex(member)
    if entries is None:
        entries = ScoreEntries.of(table)
    template = index.template
    slot_masks = entries.bits @ index.slot_weights()
    flat = entries.node.copy()
    for t, (offset, size, h) in enumerate(
        zip(template.offsets, template.block_sizes, template.halves)
    ):
        local = (slot_masks >> offset) & ((1 << size) - 1)
        flat += closure_digit(local, h) * (template.weights[t] * n)
    # Stored downset-major, so every fold below runs over contiguous rows.
    by_downset = np.full(template.size * n, _NEG_INF)
    np.maximum.at(by_downset, flat, entries.scores)
    by_downset = by_downset.reshape(template.size, n)
    visits = _fold_sub_downsets(by_downset, template)
    return DownsetScoreTable(index, by_downset.T, visits)


def _fold_sub_downsets(values: np.ndarray, template: LatticeTemplate) -> int:
    """In place, replace each downset's entry by the max over its sub-downsets.

    Per block axis, the local lattice is the Boolean lattice of the first
    half (digits 0..2^h-1) with the Boolean lattice of the second half
    stacked on its top (digits 2^h-1 onwards), so one max pass per local
    bit finishes the axis.  Returns the number of elementwise max folds.
    """
    outer = 1
    folds = 0
    for radix, size, h, weight in zip(
        template.radices, template.block_sizes, template.halves, template.weights
    ):
        axis = values.reshape(outer, radix, weight * values.shape[1])
        for start, bits in ((0, h), ((1 << h) - 1, size - h)):
            part = axis[:, start : start + (1 << bits)]
            for j in range(bits):
                pairs = part.reshape(outer, -1, 2, (1 << j) * axis.shape[2], copy=False)
                upper = pairs[:, :, 1]
                np.maximum(upper, pairs[:, :, 0], out=upper)
                folds += upper.size
        outer *= radix
    return folds


def solve_member(
    table: LocalScoreTable,
    member: CoverMember,
    index: DownsetIndex | None = None,
    best: DownsetScoreTable | None = None,
) -> tuple[float, Dag]:
    """Best network score over linear orders extending the member.

    DP over downsets: the value of a downset is the best way to schedule
    its nodes, choosing a last node among the removable ones and giving it
    its best parents inside the remaining downset.  It runs one
    cardinality layer at a time over the template's CSR edges: a gather,
    an add and a ``maximum.reduceat``.  The traceback takes, at each
    downset, the smallest node whose candidate equals the downset's value
    and gives it ``best_parents_in`` the remaining downset.  Returns the
    optimum and a witness DAG whose rescoring equals the returned value.
    """
    n = table.n
    if n != member.partition.n:
        raise ValueError("table and member sizes differ")
    if index is None:
        index = DownsetIndex(member)
    if best is None:
        best = downset_best_parents(table, member, index)
    layers = index.template.layers
    size = index.size
    edge_node = np.array(index.nodes)[layers.edge_slot]
    by_downset = np.ascontiguousarray(best.values.T).ravel()
    edge_best = by_downset[layers.edge_child * n + edge_node]
    value = np.empty(size)
    value[0] = 0.0
    for downsets, edges, children, segments in layers.steps:
        cand = value[children] + edge_best[edges]
        value[downsets] = np.maximum.reduceat(cand, segments)
    parents = [NodeSet(0)] * n
    mask = (1 << n) - 1
    d = size - 1
    while mask:
        p = layers.position[d]
        target = value[d]
        sink, sink_child = n, -1
        for e in range(layers.edge_ptr[p], layers.edge_ptr[p + 1]):
            i = int(edge_node[e])
            child = layers.edge_child[e]
            if i < sink and value[child] + edge_best[e] == target:
                sink, sink_child = i, child
        mask ^= 1 << sink
        parents[sink] = best_parents_in(table, sink, mask)[1]
        d = sink_child
    dag = Dag(n, tuple(parents))
    return total_score(dag, table), dag


def solve_cover(
    table: LocalScoreTable,
    partition: BlockPartition,
    strategy: str,
    *,
    seed: int = 0,
    repetitions: int = 7,
    scan_cap: int = SCAN_MEMBER_CAP,
    sim_cap: int = MAX_SIM_DOMAIN,
    dp_cap: int = DP_CAP,
) -> tuple[float, Dag, QueryLedger]:
    """Maximize the member optimum over the whole cover.

    Because every linear order extends some member, the cover maximum
    equals the unconstrained optimum; all strategies return that score
    (grover-sim with failure probability below 5e-4 per call).

    classical-scan solves every member and keeps the best (ties keep the
    lowest member index).  grover-sim evaluates all member scores once
    (each metered as a classical evaluation), then runs simulated quantum
    maximum finding over them, charging oracle applications to the ledger.
    grover-cost-model computes the answer classically, locates the member
    covering an optimal topological order as the witness, and books the
    analytic charge ceil(sqrt(members)) * ceil(log2(members)) instead of
    simulating.  Every member solve of a call shares one lattice template
    and one flat copy of the table's entries.
    """
    if strategy not in COVER_STRATEGIES:
        raise StrategyUnavailableError(
            f"strategy {strategy!r} not in {COVER_STRATEGIES}"
        )
    if table.n != partition.n:
        raise ValueError("table and partition sizes differ")
    members = cover_size(partition.n, partition.k)
    ledger = QueryLedger()
    if strategy == "classical-scan" and members > scan_cap:
        raise InstanceTooLargeError(
            f"cover has {members} members; classical-scan cap is {scan_cap}"
        )
    if strategy == "grover-sim" and members > sim_cap:
        raise InstanceTooLargeError(
            f"cover has {members} members; grover-sim cap is {sim_cap}"
        )
    template = LatticeTemplate(partition)
    entries = ScoreEntries.of(table)

    def solve(member: CoverMember) -> tuple[float, Dag]:
        index = DownsetIndex(member, template)
        best = downset_best_parents(table, member, index, entries)
        ledger.count_classical()
        return solve_member(table, member, index, best)

    if strategy == "classical-scan":
        best_score = _NEG_INF
        best_dag: Dag | None = None
        for idx in range(members):
            score, dag = solve(member_by_index(partition, idx))
            if best_dag is None or score > best_score:
                best_score = score
                best_dag = dag
        assert best_dag is not None
        return best_score, best_dag, ledger
    if strategy == "grover-sim":
        scores = [solve(member_by_index(partition, idx))[0] for idx in range(members)]
        oracle = MaxOracle(members, scores.__getitem__, ledger)
        best_idx, _, _ = max_find(
            oracle, members, "sim", rng_seed=seed, repetitions=repetitions
        )
        score, dag = solve(member_by_index(partition, best_idx))
        return score, dag, ledger
    # grover-cost-model: exact answer plus analytic accounting.
    opt_score, opt_dag = solve_dp(table, cap=dp_cap)
    score, dag = solve(covering_member(partition, topological_order(opt_dag)))
    if abs(score - opt_score) > 1e-9:
        raise RuntimeError("cover identity violated: member optimum != DP optimum")
    ledger.charge_quantum(quantum_charge(members))
    return score, dag, ledger
