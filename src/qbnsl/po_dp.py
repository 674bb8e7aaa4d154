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
- the member DP, one cardinality layer at a time over the template's
  padded edge tables, O(E) per member for E edges.

The cover scan runs the kernels over chunks of B members, B * max(E, F)
<= 2^16, on the E cells the DP reads, one per edge, and traces witnesses
from the same chunks.  A member below f(running max), f(x) = x - 1e-9 *
(1 + |x|), never comes within tol = 1e-9 * (1 + |max optimum|) of the
maximum, so only the others are buffered and traced, B or more at once.
The traceback is vectorized over the batch: a segmented minimum over the
tight edges picks each downset's smallest sink, and a (B, F) fit mask
gives each node its first listed entry with the best score inside the
downset left behind, ``best_parents_in``'s tie rule.  Totals add up in
node order, as ``total_score`` does, so a total differs from its DP value
only by summation order.  :func:`solve_member` is the same DP and trace
for one member, on the E cells read from :func:`downset_best_parents`.

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
)
from .dp_exact import DP_CAP, solve_dp
from .grover_sim import MAX_SIM_DOMAIN, MaxOracle, QueryLedger, max_find, quantum_charge
from .instance import Dag, InstanceTooLargeError, LocalScoreTable, NodeSet

# Unused here, but perfbench/spans.py wraps these two names in this module.
from .bucket_cover import member_by_index  # noqa: F401
from .instance import total_score  # noqa: F401

COVER_STRATEGIES = ("classical-scan", "grover-sim", "grover-cost-model")
# Members times downsets: (21, 4), at 2.6e8, runs; (22, 4) at 7.8e8 does not.
SCAN_WORK_CAP = 1 << 28
# solve_dp's subset tables at its cap: n * 2^(n-1) float64, 80 MiB at n = 20.
LATTICE_BYTES_CAP = DP_CAP * (1 << (DP_CAP - 1)) * 8
_NEG_INF = float("-inf")
_CHUNK_ELEMENTS = 1 << 16  # values in one per-chunk array of the member pass


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


def _bucket_maxima(cells: np.ndarray, scores: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each bucket's best score in ``out``, -inf if empty; ``scores[i]`` goes to ``cells[i]``."""
    out.fill(_NEG_INF)
    np.maximum.at(out, cells, scores)
    return out


def _member_dp(
    cells: np.ndarray, template: LatticeTemplate, value: np.ndarray | None = None
) -> np.ndarray:
    """Downset DP values (D, batch), written to ``value`` if given.

    ``cells[edge_cell[e]]`` holds, per member of the batch, the best parent
    score of the node removed along CSR edge e within the edge's child
    downset; 1-D ``cells`` are one member and give 1-D values.  Per
    cardinality layer, over the template's padded edge tables: two gathers,
    an add and a max down the padded rows, an elementwise max of contiguous
    blocks (a ``maximum.reduceat`` over the CSR segments is about 2x slower).
    """
    if value is None:
        value = np.empty((template.size,) + cells.shape[1:])
    value[0] = 0.0
    for downsets, edges in template.padded_steps:
        # np.take gathers rows several times faster than fancy indexing.
        cand = np.take(value, np.take(template.edge_child, edges), axis=0)
        cand += np.take(cells, np.take(template.edge_cell, edges), axis=0)
        value[downsets] = cand.max(axis=0)
    return value


def downset_best_parents(
    table: LocalScoreTable, index: DownsetIndex
) -> DownsetScoreTable:
    """Best-parent scores for every node over every downset of the member.

    Works in two phases, on all nodes at once: the bucketing and the
    sub-downset fold kernels with a batch of one.  The downset lattice is
    the product of the block lattices, so folding the bucket maxima block
    axis by block axis yields the max over all sub-downsets.  Values only:
    the traceback picks witnesses by ``best_parents_in``'s (cardinality,
    bitmask) tie rule.
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
    by_downset = _bucket_maxima(flat, table.scores, np.empty(template.size * n)).reshape(-1, n)
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
    """Members per chunk of the member pass: B * max(E, F) <= 2^16, B >= 1."""
    return max(1, min(members, _CHUNK_ELEMENTS // max(edges, entries)))


def _scan(
    table: LocalScoreTable, partition: BlockPartition, template: LatticeTemplate,
    every: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every member's optimum, in ``member_by_index`` order, and witnesses.

    Members are stepped through as an odometer over the per-block split
    digits, in chunks of B, over the template's E cells.  An entry's cell
    is its own block's ``own_cells`` row, from its node's slot place and
    its closure digit there, plus the other blocks' downset.  The optimum
    is the DP value of the full set.  ``every`` traces every member;
    otherwise the members at or above f(running max) after each chunk join
    a buffer, buffered members that have fallen below it are dropped, and
    the buffer is traced once it holds B columns, and at the last chunk.
    Returns the optima, and per member the rescored total and parent
    masks, set for every traced member.
    """
    n, k = table.n, partition.k
    # Max ignores entry order, so entries are grouped by block by their rank.
    ranked = np.array([node for block in partition.blocks for node in block])
    rank = np.empty(n, dtype=np.int64)
    rank[ranked] = np.arange(n)
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
    size = template.sink_row + max(template.cell_stride)
    # The large chunk arrays are allocated once and viewed at each chunk's
    # width, so they are not mapped and faulted in again chunk by chunk.
    cells_at = np.empty(len(scores) * batch, dtype=np.int64)
    reduced_at, value_at = np.empty(size * batch), np.empty(template.size * batch)
    laid = np.empty(0)
    optima, totals = np.empty(members), np.empty(members)
    parents = np.empty((members, n), dtype=np.int64)
    top = floor = _NEG_INF
    shift = np.repeat(template.offsets, template.block_sizes)[:, None]  # slot of place 0
    buffered: list = []  # (members, slot nodes, cells, DP values), a column per member
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
        cells = cells_at[: len(scores) * width]
        for t, ((_, _, own), lo_t, hi_t) in enumerate(zip(blocks, bounds, bounds[1:])):
            # (B, s, P): the cell of a node at each position with each pattern.
            at = places[t][:, :, None] * template.radices[t] + digits[t][:, None]
            rows = np.take(template.own_cells[t] * width, at)
            rows += np.arange(width)[:, None, None]
            segment = cells[lo_t * width : hi_t * width].reshape(width, -1)
            np.take(rows.reshape(width, -1), own, axis=1, out=segment, mode="clip")
            for digit, (_, which, _), weight in zip(digits, blocks, template.other_weights[t]):
                if weight:
                    segment += np.take(digit * (weight * width), which[lo_t:hi_t], axis=1)
        if len(laid) != len(cells):
            laid = np.concatenate([np.tile(scores[a:b], width) for a, b in zip(bounds, bounds[1:])])
        reduced = _bucket_maxima(cells, laid, reduced_at[: size * width]).reshape(size, width)
        for first, last, axes in template.cell_groups:
            _fold_sub_downsets(reduced[first:last], axes)
        value = value_at[: template.size * width].reshape(-1, width)
        optima[lo:hi] = _member_dp(reduced, template, value)[-1]
        if not every:
            top = max(top, float(optima[lo:hi].max()))
            floor = top - 1e-9 * (1.0 + abs(top))
        nodes = np.empty((n, width), dtype=np.int64)  # each member's node in each slot
        nodes[np.hstack(places).T + shift, np.arange(width)] = ranked[:, None]
        # Masking copies: the chunk's arrays are reused.
        buffered.append([np.arange(lo, hi), nodes, reduced, value])
        buffered = [[a[..., keep] for a in piece] for piece in buffered
                    if (keep := optima[piece[0]] >= floor).any()]
        if hi == members:
            # Freed first, so that the last trace does not add to the chunk arrays.
            del cells_at, reduced_at, value_at, laid, cells, reduced, value
        if buffered and (hi == members or sum(len(piece[0]) for piece in buffered) >= batch):
            # A single piece is traced as it is, not joined into a copy.
            index, nodes, cells, value = (
                a[0] if len(a) == 1 else np.concatenate(a, axis=-1) for a in zip(*buffered)
            )
            buffered = []
            totals[index], parents[index] = _trace(table, template, nodes, cells, value)
    return optima, totals, parents


def member_optima(table: LocalScoreTable, partition: BlockPartition) -> np.ndarray:
    """Every member's optimum, in ``member_by_index`` order, from the cover scan."""
    if table.n != partition.n:
        raise ValueError("table and partition sizes differ")
    return _scan(table, partition, lattice_template(partition.n, partition.k))[0]


def _trace(
    table: LocalScoreTable, template: LatticeTemplate, nodes: np.ndarray, cells: np.ndarray,
    value: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Witnesses of B members: rescored totals (B,) and parent masks (B, n).

    ``nodes[:, b]`` is member b's node in each slot; ``cells`` (E, B) and
    ``value`` (D, B) are its DP's arrays, as ``_member_dp`` takes them.
    From the full set down, each downset gives up its smallest node whose
    edge is tight, value[child] + cells[edge_cell[edge]] == value[downset]: one
    segmented minimum over the CSR rows keyed by (node, edge), then n
    gathers.  A node's parents are its first listed entry with the best
    score inside the downset left behind, and totals add up in node order.
    """
    n, width = nodes.shape
    edges, ptr = len(template.edge_slot), template.edge_ptr
    cand = np.take(value, template.edge_child, axis=0)
    cand += np.take(cells, template.edge_cell, axis=0)
    tight = cand == np.take(value, np.repeat(template.order, np.diff(ptr)), axis=0)
    del cand
    key = np.take(nodes * edges, template.edge_slot, axis=0)
    key += np.arange(edges)[:, None]
    key[~tight] = n * edges
    # Row p - 1: the smallest tight key of the downset at order position p.
    smallest = np.minimum.reduceat(key, ptr[1:-1], axis=0)
    del key, tight
    columns = np.arange(width)
    downset = np.full(width, template.size - 1)
    left = np.full(width, (1 << n) - 1)
    allowed = np.empty((width, n), dtype=np.int64)
    for _ in range(n):
        sink, edge = np.divmod(smallest[template.position[downset] - 1, columns], edges)
        left ^= 1 << sink
        allowed[columns, sink] = left
        downset = template.edge_child[edge]
    del smallest
    fits = (table.masks & ~allowed[:, table.nodes]) == 0
    scores = np.where(fits, table.scores, _NEG_INF)
    starts = table.offsets[:-1]
    best = np.maximum.reduceat(scores, starts, axis=1)
    first = np.where(fits & (scores == best[:, table.nodes]), np.arange(len(fits[0])), len(fits[0]))
    entry = np.minimum.reduceat(first, starts, axis=1)
    chosen = table.scores[entry]
    totals = np.zeros(width)
    for i in range(n):
        totals += chosen[:, i]
    return totals, table.masks[entry]


def _dag(n: int, parents: np.ndarray) -> Dag:
    return Dag(n, tuple(NodeSet(mask) for mask in parents.tolist()))


def solve_member(table: LocalScoreTable, member: CoverMember) -> tuple[float, Dag]:
    """Best network score over linear orders extending the member.

    DP over downsets: the value of a downset is the best way to schedule
    its nodes, choosing a last node among the removable ones and giving it
    its best parents inside the remaining downset.  The values of
    ``downset_best_parents`` are laid out as the cover scan's E edge cells,
    and the scan's DP kernel and traceback run on them with a batch of
    one.  Returns the witness DAG's rescored total and the DAG.
    """
    index = DownsetIndex(member)
    template = index.template
    nodes = np.array(index.nodes)[:, None]
    best = downset_best_parents(table, index).values
    cells = np.empty((len(template.edge_cell), 1))  # the cover scan's edge cells
    cells[template.edge_cell, 0] = best[nodes[template.edge_slot, 0], template.edge_child]
    value = _member_dp(cells, template)
    totals, parents = _trace(table, template, nodes, cells, value)
    return float(totals[0]), _dag(table.n, parents[0])


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
    rescored total of the returned witness, from one chunked pass that
    traces witnesses as it goes.  classical-scan traces the candidates,
    the members within tol of the maximum: the highest total wins, ties to
    the lowest member index, and one off its DP value by more than tol / 2
    raises ``RuntimeError``.  It books every member as one classical
    evaluation.  grover-cost-model returns the scan's answer, checks it
    against ``solve_dp`` to 1e-9 where n <= ``DP_CAP``, and books one
    classical evaluation plus the charge ceil(sqrt(members)) *
    ceil(log2(members)) instead of simulating.  grover-sim traces every
    member, because its oracle table must order members exactly as totals
    do, and members sharing a constrained optimum tie, so near ties are the
    rule; it runs simulated quantum maximum finding over the totals,
    charging oracle applications to the ledger, and books the winner's
    witness as one more classical evaluation.

    Before the shared ``lattice_template`` is looked up or built, the caps
    raise ``InstanceTooLargeError``, in order: for grover-sim, more members
    than ``MAX_SIM_DOMAIN``; the byte cap, when ``lattice_build_bytes`` and
    the scan would exceed ``LATTICE_BYTES_CAP``; and the work cap, when
    members times downsets exceeds ``SCAN_WORK_CAP``.
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
    # The template's padded int32 edge table: at most D rows per removable
    # slot, which a downset has at most one of per block half, the sum of
    # the halves.  Per chunk member: the cell table (at most E + D rows),
    # its DP and the DP's per-layer gathers (a layer's padded table was at
    # most 0.6 E on every shape with n <= 20), F-long cells and scores, and
    # per block of at most min(F, 2^k) patterns their digits and k-wide
    # own-cell tables, and three n-long slot maps while its own is made.
    # Once: the entries' copies and pattern temporaries.  Per traced
    # member, at most 2B - 1 at a time: its buffered cells, DP values and
    # slot map, at most E + 2D + n, twice while pieces are joined, and the
    # larger of three (E, B) and four (B, F) trace arrays.  Kept: each
    # member's optimum, total, n parent masks and buffered index.
    chunk = _chunk_members(members, edges, entries)
    blocks = len(partition.blocks)
    halves = sum((len(block) + 1) // 2 for block in partition.blocks)
    patterns = min(entries, 1 << k) * (3 * k + blocks + 2)
    needed = lattice_build_bytes(n, k) + 4 * downsets * halves + 8 * (
        chunk * (2 * edges + 3 * downsets + 3 * entries + patterns + 3 * n)
        + (2 * k + blocks + 6) * entries
        + (2 * chunk - 1) * ((1 + (chunk > 1)) * (edges + 2 * downsets + n)
                             + max(3 * edges + downsets, 4 * entries))
        + members * (n + 3)
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
    ledger = QueryLedger()
    optima, totals, parents = _scan(
        table, partition, lattice_template(n, k), every=strategy == "grover-sim"
    )
    if strategy == "grover-sim":
        ledger.count_classical(members)
        oracle = MaxOracle(members, totals.__getitem__, ledger)
        best, _, _ = max_find(oracle, members, "sim", rng_seed=seed)
        ledger.count_classical()
        return float(totals[best]), _dag(n, parents[best]), ledger

    top = float(optima.max())
    tol = 1e-9 * (1.0 + abs(top))
    near = np.flatnonzero(optima >= top - tol)
    unequal = near[totals[near] != optima[near]]  # -inf - -inf is nan
    off = unequal[np.abs(totals[unequal] - optima[unequal]) > tol / 2]
    if len(off):
        raise RuntimeError(
            f"member {off[0]}: witness rescores to {float(totals[off[0]])!r}, "
            f"DP gave {float(optima[off[0]])!r}"
        )
    best = near[np.argmax(totals[near])]
    score, dag = float(totals[best]), _dag(n, parents[best])
    if strategy == "classical-scan":
        ledger.count_classical(members)
        return score, dag, ledger
    if n <= DP_CAP and abs(score - solve_dp(table)[0]) > 1e-9:
        raise RuntimeError("cover identity violated: member optimum != DP optimum")
    ledger.count_classical()
    ledger.charge_quantum(quantum_charge(members))
    return score, dag, ledger
