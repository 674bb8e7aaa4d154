"""Constrained optimization over one cover member's downset lattice.

Fixing a cover member restricts attention to linear orders extending its
precedence constraints; the best network score over those orders is
computed by dynamic programming whose states are the member's downsets.
Every member of every (n, k) partition shares one slot-space lattice
(:class:`~qbnsl.bucket_cover.LatticeTemplate`, the downset masks and the
covering edges in cardinality layers), kept per shape when small, and
members are solved by three numpy kernels over it, each working on a
batch of members at once:

- bucketing, values only: every listed parent set is placed at its
  downward closure's cell (O(F) per member for F table entries) and
  ``np.maximum.at`` keeps each cell's best score;
- the fold of cell maxima into superset cells, one block axis at a time;
- the member DP, one cardinality layer at a time over the template's CSR
  edges, O(E) per member for E edges.

The classical cover scan is values first.  :func:`member_optima` runs
the kernels over chunks of B members, B * max(E, F) <= 2^16, on the E
cells the DP reads, one per edge, and returns every member's optimum.
Witnesses are traced one member at a time by :func:`solve_member` over
the full (D, n) table of :func:`downset_best_parents`, which re-derives
each parent set with ``best_parents_in`` and rescores the DAG, and only
for the candidates: the members within tol of the maximum, where tol =
1e-9 * (1 + |max optimum|) (see :func:`solve_cover`).  A rescored total
differs from its DP value only by summation order; a traced member off
by more than tol / 2 raises ``RuntimeError``.

On top sit three search strategies over the whole cover: the classical
scan, simulated quantum maximum finding, and an analytic cost model that
takes the scan's answer and books the quantum charge without simulating.
A work cap (members x D) and a byte cap refuse a cover before its lattice
is built.  This is correct for arbitrary listed parent sets.
"""

from __future__ import annotations

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
    lattice_template,
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
    total_score,
)

COVER_STRATEGIES = ("classical-scan", "grover-sim", "grover-cost-model")
# Members times downsets: (21, 4), at 2.6e8, runs; (22, 4) at 7.8e8 does not.
SCAN_WORK_CAP = 1 << 28
# solve_dp's subset tables at its cap: n * 2^(n-1) float64, 80 MiB at n = 20.
LATTICE_BYTES_CAP = DP_CAP * (1 << (DP_CAP - 1)) * 8
_NEG_INF = float("-inf")
_CHUNK_ELEMENTS = 1 << 16  # values in one per-chunk array of member_optima


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


def _bucket_maxima(cells: np.ndarray, scores: np.ndarray, size: int) -> np.ndarray:
    """Each of ``size`` buckets' best score, -inf if empty; ``scores[i]`` goes to ``cells[i]``."""
    out = np.full(size, _NEG_INF)
    np.maximum.at(out, cells, scores)
    return out


def _member_dp(edge_best: np.ndarray, template: LatticeTemplate) -> np.ndarray:
    """Downset DP values (D, batch) from per-edge best scores (E, batch).

    ``edge_best[e]`` is the best parent score of the node removed along
    CSR edge e within the edge's child downset; a 1-D ``edge_best`` is one
    member and gives 1-D values.  Per cardinality layer: a gather, an add
    and a ``maximum.reduceat`` along the edge axis.
    """
    value = np.empty((template.size,) + edge_best.shape[1:])
    value[0] = 0.0
    for downsets, edges, children, segments in template.steps:
        # np.take gathers rows several times faster than fancy indexing.
        cand = np.take(value, children, axis=0)
        cand += edge_best[edges]
        value[downsets] = np.maximum.reduceat(cand, segments)
    return value


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
    by_downset = _bucket_maxima(flat, table.scores, template.size * n).reshape(-1, n)
    visits = _fold_sub_downsets(by_downset, template.axes)
    return DownsetScoreTable(by_downset.T, visits)


def _fold_sub_downsets(values: np.ndarray, axes) -> int:
    """In place, replace each row by the max over the rows below it.

    ``values`` is (rows, width), rows a product of lattices, first axis
    most significant; an axis is (radix, parts), each part (start, bits) a
    Boolean lattice on digits start..start+2^bits-1.  A block axis is the
    first half's (digits 0..2^h-1) with the second half's stacked on its
    top (digits 2^h-1 onwards), so one max pass per local bit finishes the
    axis.  Returns the number of elementwise max folds.
    """
    outer, inner = 1, values.size
    folds = 0
    for radix, parts in axes:
        inner //= radix
        axis = values.reshape(outer, radix, inner)
        for start, bits in parts:
            part = axis[:, start : start + (1 << bits)]
            for j in range(bits):
                pairs = part.reshape(outer, -1, 2, (1 << j) * inner, copy=False)
                upper = pairs[:, :, 1]
                np.maximum(upper, pairs[:, :, 0], out=upper)
                folds += upper.size
        outer *= radix
    return folds


def _chunk_members(members: int, edges: int, entries: int) -> int:
    """Members per chunk of ``member_optima``: B * max(E, F) <= 2^16, B >= 1."""
    return max(1, min(members, _CHUNK_ELEMENTS // max(edges, entries)))


def member_optima(
    table: LocalScoreTable,
    partition: BlockPartition,
    template: LatticeTemplate | None = None,
) -> np.ndarray:
    """Every member's optimum, values only, in ``member_by_index`` order.

    Members are stepped through as an odometer over the per-block split
    digits, in chunks of B, over the template's E cells.  An entry's cell
    is its own block's ``own_cells`` row, from its node's slot place and
    its closure digit there, plus the other blocks' downset.  The optimum
    is the DP value of the full set (``solve_member`` gives a witness).
    """
    n = table.n
    if n != partition.n:
        raise ValueError("table and partition sizes differ")
    if template is None:
        template = lattice_template(n, partition.k)
    # Max ignores entry order, so entries are grouped by block by their rank.
    rank, k = np.empty(n, dtype=np.int64), partition.k
    rank[[node for block in partition.blocks for node in block]] = np.arange(n)
    order = np.argsort(rank[table.nodes], kind="stable")
    rank = rank[table.nodes[order]]
    bounds = np.searchsorted(rank, [*range(0, n, k), n]).tolist()
    masks, scores, position = table.masks[order], table.scores[order], rank % k
    blocks = []  # (pattern bits, entry -> pattern, own entry -> position * P + pattern)
    for t, block in enumerate(partition.blocks):
        patterns, which = np.unique(
            _block_patterns(masks, np.array(list(block))), return_inverse=True
        )
        bits = [(patterns >> p) & 1 for p in range(len(block))]
        lo, hi = bounds[t], bounds[t + 1]
        blocks.append((bits, which, position[lo:hi] * len(patterns) + which[lo:hi]))
    members = cover_size(n, k)
    batch = _chunk_members(members, len(template.edge_cell), len(scores))
    optima, laid = np.empty(members), np.empty(0)
    # Per-chunk arrays are member-major, (B, patterns or entries): their
    # inner loops run over the long axis even when B is small.
    for lo in range(0, members, batch):
        hi = min(lo + batch, members)
        width = hi - lo
        places, rest = [], np.arange(lo, hi)  # (B, s): each position's slot place
        for slot_of in reversed(template.slot_of):
            places.insert(0, slot_of[rest % len(slot_of)])
            rest //= len(slot_of)
        digits = []  # (B, P) per block: each pattern's closure digit
        for (bits, _, _), place, h in zip(blocks, places, template.halves):
            slots = bits[0] << place[:, :1]
            for p in range(1, len(bits)):
                slots |= bits[p] << place[:, p : p + 1]
            digits.append(closure_digit(slots, h))
        # Entry e of block t under member b goes to cell row * B + b; the
        # block's entries take cells[bounds[t] * B : bounds[t + 1] * B].
        cells = np.empty(len(scores) * width, dtype=np.int64)
        for t, ((_, _, own), lo_t, hi_t) in enumerate(zip(blocks, bounds, bounds[1:])):
            # (B, s, P): the cell of a node at each position with each pattern.
            at = places[t][:, :, None] * template.radices[t] + digits[t][:, None]
            rows = np.take(template.own_cells[t] * width, at)
            rows += np.arange(width)[:, None, None]
            segment = cells[lo_t * width : hi_t * width].reshape(width, -1)
            np.take(rows.reshape(width, -1), own, axis=1, out=segment)
            for digit, (_, which, _), weight in zip(digits, blocks, template.other_weights[t]):
                if weight:
                    segment += np.take(digit * (weight * width), which[lo_t:hi_t], axis=1)
        if len(laid) != len(cells):
            laid = np.concatenate([np.tile(scores[a:b], width) for a, b in zip(bounds, bounds[1:])])
        size = template.sink_row + max(template.cell_stride)
        reduced = _bucket_maxima(cells, laid, size * width).reshape(size, width)
        for first, last, axes in template.cell_groups:
            _fold_sub_downsets(reduced[first:last], axes)
        optima[lo:hi] = _member_dp(np.take(reduced, template.edge_cell, axis=0), template)[-1]
    return optima


def solve_member(
    table: LocalScoreTable, member: CoverMember, template: LatticeTemplate | None = None
) -> tuple[float, Dag]:
    """Best network score over linear orders extending the member.

    DP over downsets: the value of a downset is the best way to schedule
    its nodes, choosing a last node among the removable ones and giving it
    its best parents inside the remaining downset.  It is the layered DP
    kernel with a batch of one over the full (D, n) table of
    ``downset_best_parents``.  The traceback takes, at each downset, the
    smallest node whose candidate equals the downset's value and gives it
    ``best_parents_in`` the remaining downset.  Returns the witness DAG's
    rescored total and the DAG.
    """
    index = DownsetIndex(member, template)
    best = downset_best_parents(table, index)
    n = table.n
    template = index.template
    edge_node = np.array(index.nodes)[template.edge_slot]
    edge_best = best.values[edge_node, template.edge_child]
    value = _member_dp(edge_best, template)
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

    Every member solve shares one ``lattice_template``.  Before it is
    looked up or built, the caps raise ``InstanceTooLargeError``, in
    order: for grover-sim, more members than ``MAX_SIM_DOMAIN``; the byte
    cap, when ``lattice_build_bytes`` and the larger of the member phase
    and one traced member would exceed ``LATTICE_BYTES_CAP``; and the work
    cap, when members times downsets exceeds ``SCAN_WORK_CAP``.
    """
    if strategy not in COVER_STRATEGIES:
        raise StrategyUnavailableError(f"strategy {strategy!r} not in {COVER_STRATEGIES}")
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
    # Per chunk member: the cell table (at most E + D rows), its gather and
    # DP, F-long cells and scores, and per block of at most min(F, 2^k)
    # patterns their digits and k-wide own-cell tables.  Once: the entries'
    # copies and pattern temporaries.  Tracing one member instead: the
    # (D, n) table, its gathers and DP, and the table's views (~160 B/entry).
    blocks = len(partition.blocks)
    patterns = min(entries, 1 << k) * (3 * k + blocks + 2)
    needed = lattice_build_bytes(n, k) + 8 * max(
        _chunk_members(members, edges, entries)
        * (3 * edges + 3 * downsets + 3 * entries + patterns) + (2 * k + blocks + 6) * entries,
        downsets * (n + 2) + 4 * edges + (2 * k + 24) * entries,
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
    template = lattice_template(n, k)
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
