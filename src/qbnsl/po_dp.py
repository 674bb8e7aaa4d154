"""Constrained optimization over one cover member's downset lattice.

Fixing a cover member restricts attention to linear orders extending its
precedence constraints; the best network score over those orders is
computed by dynamic programming whose states are the member's downsets.
Every member of a partition shares one slot-space lattice
(:class:`~qbnsl.bucket_cover.LatticeTemplate`, the downset masks and the
covering edges in cardinality layers), so the lattice is built once per
call and members are solved by three numpy kernels over it, each working
on a batch of members at once (members are the minor axis):

- bucketing, values only: every listed parent set is placed at its
  downward closure's downset (O(F) per member for F table entries) and
  ``np.maximum.at`` keeps each bucket's best score;
- the fold of bucket maxima into superset downsets, one block axis at a
  time, at most n^2 D / 2 elementwise max folds per member for D downsets;
- the member DP, one cardinality layer at a time over the template's CSR
  edges, O(D n) per member.

The classical cover scan is values first.  :func:`member_optima` runs
the kernels over chunks of members in index order and returns every
member's optimum as a float array; a chunk holds B members with
B * D * n at most 2^16 float64 values (512 KiB).  Witnesses are then
traced one member at a time (B = 1) by :func:`solve_member`, which
re-derives each parent set with ``best_parents_in`` and rescores the DAG,
and only for the candidates: the members within tol of the maximum,
where tol = 1e-9 * (1 + |max optimum|) (see :func:`solve_cover`).  A
rescored total differs from its DP value only by summation order; a
traced member off by more than tol / 2 raises ``RuntimeError``.

On top sit three search strategies over the whole cover: the classical
scan, simulated quantum maximum finding, and an analytic cost model that
takes the scan's answer and books the quantum charge without simulating.
A work cap (members x D) and a byte cap refuse a cover before its lattice
is built.  This is correct for arbitrary listed parent sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bucket_cover import (
    BlockPartition,
    CoverMember,
    DownsetIndex,
    LatticeTemplate,
    closure_digit,
    cover_size,
    downset_count_formula,
    lattice_build_bytes,
    lattice_edge_count_formula,
    member_by_index,
    member_radix,
    split_slot_positions,
)
from .dp_exact import DP_CAP, solve_dp
from .grover_sim import MAX_SIM_DOMAIN, MaxOracle, QueryLedger, max_find, quantum_charge
from .instance import (
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    NodeSet,
    best_parents_in,
    total_score,
)

COVER_STRATEGIES = ("classical-scan", "grover-sim", "grover-cost-model")
# Members times downsets: (21, 4), at 2.6e8, runs; (22, 4) at 7.8e8 does not.
SCAN_WORK_CAP = 1 << 28
# solve_dp's subset tables at its cap: n * 2^(n-1) float64, 80 MiB at n = 20.
LATTICE_BYTES_CAP = DP_CAP * (1 << (DP_CAP - 1)) * 8
_NEG_INF = float("-inf")
_CHUNK_ELEMENTS = 1 << 16  # float64 values in one chunk's (D, n * members) table


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

    values: np.ndarray
    edge_visits: int


def _block_patterns(masks: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Each entry's parent set within one block, bit p for node ``elems[p]``.

    ``masks`` are the table's entry bitmasks.  With ``elems`` in slot order
    this is the entry's slot pattern, whose ``closure_digit`` times the
    block's stride is the block's share of the entry's bucket: a set lies
    inside a downset exactly when its closure does.
    """
    return ((masks[:, None] >> elems) & 1) @ (1 << np.arange(len(elems)))


def _bucket_maxima(
    flat: np.ndarray, scores: np.ndarray, size: int, n: int
) -> np.ndarray:
    """A (D, n * batch) table of each bucket's best score, -inf if empty.

    ``flat[e, b]`` is d * n + node for entry e under member b, whose
    bucket is downset d; member b owns column b of each node's block.
    A 1-D ``flat`` is one member.
    """
    batch = math.prod(flat.shape[1:])
    out = np.full(size * n * batch, _NEG_INF)
    cells = flat * batch + np.arange(batch).reshape(flat.shape[1:])
    # Scores are repeated explicitly: ufunc.at mishandles broadcast values.
    np.maximum.at(out, cells.ravel(), np.repeat(scores, batch))
    return out.reshape(size, n * batch)


def _member_dp(
    by_downset: np.ndarray, edge_node: np.ndarray, template: LatticeTemplate
) -> tuple[np.ndarray, np.ndarray]:
    """Downset DP values (D, batch) and per-edge best scores (E, batch).

    ``by_downset`` is the folded (D, n * batch) table and ``edge_node`` the
    (E, batch) node removed along each CSR edge; a 1-D ``edge_node`` is one
    member and gives 1-D results.  Per cardinality layer: a gather, an add
    and a ``maximum.reduceat`` along the edge axis.
    """
    size, width = by_downset.shape
    shape = edge_node.shape[1:]
    batch = math.prod(shape)
    n = width // batch
    child = template.edge_child.reshape(template.edge_child.shape + (1,) * len(shape))
    edge_best = by_downset.ravel()[
        (child * n + edge_node) * batch + np.arange(batch).reshape(shape)
    ]
    value = np.empty((size,) + shape)
    value[0] = 0.0
    for downsets, edges, children, segments in template.steps:
        cand = value[children] + edge_best[edges]
        value[downsets] = np.maximum.reduceat(cand, segments)
    return value, edge_best


def downset_best_parents(
    table: LocalScoreTable, index: DownsetIndex
) -> DownsetScoreTable:
    """Best-parent scores for every node over every downset of the member.

    Works in two phases, on all nodes at once: the bucketing and the
    sub-downset fold kernels with a batch of one.  The downset lattice is
    the product of the block lattices, so folding the bucket maxima block
    axis by block axis yields the max over all sub-downsets.  Values only:
    witnesses come from ``best_parents_in`` on the traceback, with the
    same (cardinality, bitmask) tie rule.
    """
    n = table.n
    if n != index.member.partition.n:
        raise ValueError("table and member sizes differ")
    template = index.template
    nodes = np.array(index.nodes)
    flat = table.nodes.copy()
    for offset, size, h, weight in zip(
        template.offsets, template.block_sizes, template.halves, template.weights
    ):
        local = _block_patterns(table.masks, nodes[offset : offset + size])
        flat += closure_digit(local, h) * (weight * n)
    by_downset = _bucket_maxima(flat, table.scores, template.size, n)
    visits = _fold_sub_downsets(by_downset, template)
    return DownsetScoreTable(by_downset.T, visits)


def _fold_sub_downsets(values: np.ndarray, template: LatticeTemplate) -> int:
    """In place, replace each downset's row by the max over its sub-downsets.

    ``values`` is (D, row).  Per block axis, the local lattice is the
    Boolean lattice of the first half (digits 0..2^h-1) with the Boolean
    lattice of the second half stacked on its top (digits 2^h-1 onwards),
    so one max pass per local bit finishes the axis.  Returns the number
    of elementwise max folds.
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


def _chunk_members(members: int, downsets: int, n: int) -> int:
    """Members per chunk of ``member_optima``: B * D * n <= 2^16, B >= 1."""
    return max(1, min(members, _CHUNK_ELEMENTS // (downsets * n)))


def member_optima(
    table: LocalScoreTable,
    partition: BlockPartition,
    template: LatticeTemplate | None = None,
) -> np.ndarray:
    """Every member's optimum, values only, in ``member_by_index`` order.

    Members are stepped through as an odometer over the per-block split
    digits.  Per block, the slot order of every split and the entries'
    distinct patterns within the block are found once per call.  A chunk
    of B members, B * D * n <= 2^16, places each distinct pattern under
    each of its members' splits, then takes one bucketing pass, one fold
    and one layered DP, each over the whole chunk.  The optimum is the DP
    value of the full set; no witness is traced (``solve_member`` gives the
    witness of any one member).
    """
    n = table.n
    if n != partition.n:
        raise ValueError("table and partition sizes differ")
    if template is None:
        template = LatticeTemplate(partition)
    size = template.size
    blocks = []  # (nodes, slot positions per split, patterns, entry -> pattern)
    for block in partition.blocks:
        elems = np.array(list(block))
        splits = range(member_radix(len(elems)))
        slots = np.array([split_slot_positions(len(elems), d) for d in splits])
        patterns, which = np.unique(
            _block_patterns(table.masks, elems), return_inverse=True
        )
        blocks.append((elems, slots, patterns, which))
    weights = [1 << np.arange(len(elems)) for elems, _, _, _ in blocks]
    members = math.prod(len(slots) for _, slots, _, _ in blocks)
    batch = _chunk_members(members, size, n)
    optima = np.empty(members)
    for lo in range(0, members, batch):
        hi = min(lo + batch, members)
        flat = np.repeat(table.nodes[:, None], hi - lo, axis=1)
        rest = np.arange(lo, hi)
        nodes = []
        for t in reversed(range(len(blocks))):
            elems, slots, patterns, which = blocks[t]
            digit = rest % len(slots)
            rest //= len(slots)
            nodes.append(elems[slots[digit]].T)
            local = ((patterns[:, None, None] >> slots[digit]) & 1) @ weights[t]
            closure = closure_digit(local, template.halves[t])
            flat += (closure * (template.weights[t] * n))[which]
        by_downset = _bucket_maxima(flat, table.scores, size, n)
        _fold_sub_downsets(by_downset, template)
        edge_node = np.concatenate(nodes[::-1])[template.edge_slot]
        optima[lo:hi] = _member_dp(by_downset, edge_node, template)[0][-1]
    return optima


def solve_member(
    table: LocalScoreTable, member: CoverMember, template: LatticeTemplate | None = None
) -> tuple[float, Dag]:
    """Best network score over linear orders extending the member.

    DP over downsets: the value of a downset is the best way to schedule
    its nodes, choosing a last node among the removable ones and giving it
    its best parents inside the remaining downset.  It is the layered DP
    kernel with a batch of one over ``template``, built if not given.  The
    traceback takes, at each downset, the smallest node whose candidate
    equals the downset's value and gives it ``best_parents_in`` the
    remaining downset.  Returns the witness DAG's rescored total and the DAG.
    """
    index = DownsetIndex(member, template)
    best = downset_best_parents(table, index)
    n = table.n
    template = index.template
    edge_node = np.array(index.nodes)[template.edge_slot]
    value, edge_best = _member_dp(np.ascontiguousarray(best.values.T), edge_node, template)
    parents = [NodeSet(0)] * n
    mask = (1 << n) - 1
    d = index.size - 1
    while mask:
        p = template.position[d]
        target = value[d]
        sink, sink_child = n, -1
        for e in range(template.edge_ptr[p], template.edge_ptr[p + 1]):
            i = int(edge_node[e])
            child = template.edge_child[e]
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
) -> tuple[float, Dag, QueryLedger]:
    """Maximize the member optimum over the whole cover.

    Because every linear order extends some member, the cover maximum
    equals the unconstrained optimum; all strategies return that score
    (grover-sim with failure probability below 5e-4 per call), as the
    rescored total of the returned witness.

    classical-scan is values first: ``member_optima`` gives every member's
    DP optimum, and only the candidates, the members within tol = 1e-9 *
    (1 + |max optimum|) of the maximum, are traced; the highest rescored
    total wins (ties keep the lowest member index).  It books every member
    as one classical evaluation.  grover-cost-model returns the scan's
    answer, checks it against ``solve_dp`` to 1e-9 where n <= ``DP_CAP``,
    and books one classical evaluation plus the analytic charge
    ceil(sqrt(members)) * ceil(log2(members)) instead of simulating.
    grover-sim traces and rescores every member, because its oracle table
    must order members exactly as rescored totals do and members sharing
    a constrained optimum tie, so near ties are the rule rather than the
    exception; it then runs simulated quantum maximum finding over the
    table, charging oracle applications to the ledger, and re-solves the
    winner (one more classical evaluation).

    Every member solve of a call shares one lattice template and reads
    the table's flat entry arrays.  Before any of it is allocated, the
    caps raise ``InstanceTooLargeError``: for grover-sim, more members than
    ``MAX_SIM_DOMAIN``; the byte cap, when the template build
    (``lattice_build_bytes``) plus the member phase's arrays would exceed
    ``LATTICE_BYTES_CAP``; and the work cap, when members times downsets
    exceeds ``SCAN_WORK_CAP``.
    """
    if strategy not in COVER_STRATEGIES:
        raise StrategyUnavailableError(
            f"strategy {strategy!r} not in {COVER_STRATEGIES}"
        )
    n, k = partition.n, partition.k
    if table.n != n:
        raise ValueError("table and partition sizes differ")
    members = cover_size(n, k)
    if strategy == "grover-sim" and members > MAX_SIM_DOMAIN:
        raise InstanceTooLargeError(
            f"cover has {members} members; grover-sim cap is {MAX_SIM_DOMAIN}"
        )
    downsets = downset_count_formula(n, k)
    edges = lattice_edge_count_formula(n, k)
    entries = len(table.scores)
    # Per member of a chunk: the (D, n) table, D DP values, five E-long
    # gathers, three F-long cell arrays and the k-wide split temporaries of
    # at most min(F, 2^k) block patterns; once, those of all F entries.
    batch = _chunk_members(members, downsets, n)
    needed = lattice_build_bytes(n, k) + 8 * (
        batch
        * (downsets * (n + 1) + 5 * edges + 3 * entries + 2 * k * min(entries, 1 << k))
        + 2 * k * entries
    )
    if needed > LATTICE_BYTES_CAP:
        raise InstanceTooLargeError(
            f"lattice of {downsets} downsets and {edges} edges needs {needed} "
            f"bytes, over the {LATTICE_BYTES_CAP} byte cap"
        )
    if members * downsets > SCAN_WORK_CAP:
        raise InstanceTooLargeError(
            f"cover of {members} members x {downsets} downsets is over the "
            f"{SCAN_WORK_CAP} work cap"
        )
    template = LatticeTemplate(partition)
    ledger = QueryLedger()

    if strategy == "grover-sim":
        scores = [
            solve_member(table, member_by_index(partition, idx), template)[0]
            for idx in range(members)
        ]
        ledger.count_classical(members)
        oracle = MaxOracle(members, scores.__getitem__, ledger)
        best_idx, _, _ = max_find(oracle, members, "sim", rng_seed=seed)
        ledger.count_classical()
        score, dag = solve_member(table, member_by_index(partition, best_idx), template)
        return score, dag, ledger

    # Values first, then trace only the candidates.
    optima = member_optima(table, partition, template)
    tol = 1e-9 * (1.0 + abs(float(optima.max())))
    best: tuple[float, Dag] | None = None
    for idx in np.flatnonzero(optima >= optima.max() - tol).tolist():
        score, dag = solve_member(table, member_by_index(partition, idx), template)
        if abs(score - optima[idx]) > tol / 2:
            raise RuntimeError(
                f"member {idx}: witness rescores to {score!r}, DP gave {optima[idx]!r}"
            )
        if best is None or score > best[0]:
            best = score, dag
    assert best is not None
    if strategy == "classical-scan":
        ledger.count_classical(members)
        return best[0], best[1], ledger
    if n <= DP_CAP and abs(best[0] - solve_dp(table)[0]) > 1e-9:
        raise RuntimeError("cover identity violated: member optimum != DP optimum")
    ledger.count_classical()
    ledger.charge_quantum(quantum_charge(members))
    return best[0], best[1], ledger
