"""Constrained optimization over one cover member's downset lattice.

Fixing a cover member restricts attention to linear orders extending its
precedence constraints; the best network score over those orders is
computed by dynamic programming whose states are the member's downsets.
Every member of every (n, k) partition shares one slot-space lattice
(:class:`~qbnsl.bucket_cover.LatticeTemplate`, the downset masks and the
covering edges by downset index), kept per shape when small, and
members are solved by three numpy kernels over it, each working on a
batch of members at once:

- bucketing, values only: every listed parent set is placed at its
  downward closure's cell (O(F) per member for F table entries) and
  ``np.maximum.at`` keeps each cell's best score;
- ``dp_exact._fold_sub_downsets``, folding cell maxima into superset cells axis by axis;
- the member DP, one cardinality layer at a time over the template's
  padded gather rows, O(E) per member for E edges.

The cover scan runs the kernels over chunks of B members, B * max(E, F)
<= 2^16, on the E cells the DP reads, one per edge, and traces witnesses
from the same chunks.  A member below f(running max), f(x) = x - 1e-9 *
(1 + |x|), never comes within tol = 1e-9 * (1 + |max optimum|) of the
maximum, so only the others are buffered, and traced at most B at once.
The traceback is vectorized over the batch: a segmented minimum over the
tight edges picks each downset's smallest sink, and ``choose_parents``,
``solve_dp``'s parent rule too, gives each node its first listed entry
with the best score inside the downset left behind.  Totals add up in
node order, as ``total_score`` does, so a total differs from its DP value
only by summation order.  :func:`solve_member` is the same DP and trace
for one member, on the E cells read from :func:`downset_best_parents`.

On top sit three search strategies over the whole cover: the classical
scan, simulated quantum maximum finding, and an analytic cost model that
takes the scan's answer and books the quantum charge without simulating.
A work cap (members x D) and a byte cap, on the lattice build and the
arrays that ``_scan_plan`` lists, refuse a cover before its lattice is
built.  This is correct for arbitrary listed parent sets.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
    lattice_radix,
    lattice_template,
)
from .dp_exact import DP_CAP, _fold_sub_downsets, _plan_bytes, solve_dp
from .grover_sim import MAX_SIM_DOMAIN, MaxOracle, QueryLedger, max_find, quantum_charge
from .instance import Dag, InstanceTooLargeError, LocalScoreTable, choose_parents

# Unused here, but perfbench/spans.py wraps these two names in this module.
from .bucket_cover import member_by_index  # noqa: F401
from .instance import total_score  # noqa: F401

COVER_STRATEGIES = ("classical-scan", "grover-sim", "grover-cost-model")
# Members times downsets: (21, 4), at 2.6e8, runs; (22, 4) at 7.8e8 does not.
SCAN_WORK_CAP = 1 << 28
# 80 MiB: solve_dp's n * 2^(n-1) float64 subset tables at n = 20.  It bounds
# the scan; solve_dp, in layer slices, peaks at about 1.2x the tables (93 MiB
# counted at n = 20) and is bounded by DP_CAP alone.
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
    of node i inside a downset is the one ``choose_parents`` gives it.
    ``edge_visits`` is the sweep's count of elementwise max folds, n per
    covering edge of the downset lattice, for work-bound checks.
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


def _near_tol(top: float) -> float:
    """How close to the maximum optimum ``top`` a member's optimum counts as near it."""
    return 1e-9 * (1.0 + abs(top))


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
    cardinality layer, over the template's padded gather rows, which hold
    each padded edge's child and cell: two gathers, an add and a max down
    the padded rows, an elementwise max of contiguous blocks (a
    ``maximum.reduceat`` over the CSR segments is about 2x slower).
    """
    if value is None:
        value = np.empty((template.size,) + cells.shape[1:])
    value[0] = 0.0
    for downsets, child, cell in template.padded_steps:
        # take gathers rows several times faster than fancy indexing, and
        # the method skips np.take's Python wrapper.
        cand = value.take(child, axis=0)
        cand += cells.take(cell, axis=0)
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
    the traceback picks witnesses by ``choose_parents``'s (cardinality,
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
    _fold_sub_downsets(by_downset, template.axes)
    return DownsetScoreTable(by_downset.T, n * len(template.edge_child))


def _scan_plan(n: int, k: int, entries: int) -> tuple[int, tuple, int]:
    """``_sized_plan`` at the chunk budget and ufunc buffer size in force."""
    return _sized_plan(n, k, entries, _CHUNK_ELEMENTS, np.getbufsize())


@functools.lru_cache(maxsize=1 << 10)
def _sized_plan(n: int, k: int, entries: int, chunk: int, bufsize: int) -> tuple[int, tuple, int]:
    """B, B * max(E, F) <= ``chunk`` for E edges and F entries; (shape,
    dtype) of each array ``_scan`` allocates, in its order; and the bytes the
    byte cap counts: ``lattice_build_bytes``, the arrays and the largest
    phase's temporaries, at the bound beside each (the phases never live at
    once).  Cached, as solves repeat their keys."""
    members, downsets = cover_size(n, k), downset_count_formula(n, k)
    edges, blocks = lattice_edge_count_formula(n, k), -(-n // k)
    batch = max(1, min(members, chunk // max(edges, entries)))
    rows = edges + downsets // lattice_radix(n % k or k)  # E edge cells, then a sink trace
    column = rows + downsets + n + 1  # a buffered member's cells, DP values, nodes and index
    i64, f64, flag = np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_)
    held = (((entries * batch,), i64), ((rows * batch,), f64),  # entry cells, cell table
            ((downsets * batch,), f64), ((entries * batch,), f64),  # DP values, laid scores
            ((members,), f64), ((members,), f64), ((members, n), i64))  # optima, totals, parents
    live = (  # through the member loop
        ((blocks + 6, entries), i64),  # entry copies and patterns, each entry's pattern
        ((batch, 3 * k + blocks + 2, min(entries, 1 << k)), i64),  # digits, 2 (B, k, P) cell rows
        ((2, bufsize), f64),  # at most two ufunc buffers
    )
    traced = live + (((2 * batch - 1, column), f64),)  # B traced; or fewer, and B left buffered
    return batch, held, lattice_build_bytes(n, k) + _plan_bytes(held, (
        (((2 * k + blocks + 6, entries), i64),  # set-up, with 2 (F, k) bit tables
         ((1 << k,), i64)),  # and one block's 2^s pattern ranks
        live + (((batch, 3 * n + entries + edges + downsets), i64),  # slot maps, F offsets, DP
                ((batch - 1, column), f64)),  # gathers; and under B columns left buffered
        live + (((3 * batch - 2, column), f64),),  # the buffer's masking copies, or a join
        traced + (((batch, 2 * edges), f64), ((batch, edges), flag),  # the trace's (E, B)
                  ((edges,), i64)),  # arrays, then its (B, F) arrays
        traced + (((batch, 2 * entries), f64), ((batch, 2 * entries), flag), ((entries,), i64)),
    ))


def _scan(
    table: LocalScoreTable, partition: BlockPartition, template: LatticeTemplate,
    plan: tuple[int, tuple, int], every: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every member's optimum, in ``member_by_index`` order, and witnesses.

    Members are stepped through as an odometer over the per-block split
    digits, in chunks of ``plan``'s B, in its arrays, over the template's E
    cells.  An entry's cell is its own block's ``own_cells`` row, from its
    node's slot place and closure digit there, plus the other blocks'
    downset.  The optimum is the DP value of the full set.  ``every`` traces every member;
    otherwise the members at or above f(running max) after each chunk join
    a buffer, buffered members that have fallen below it are dropped, and
    the buffer is traced once it holds B columns, and at the last chunk,
    in leading pieces of at most B columns.
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
        local = _block_patterns(masks, np.array(list(block)))
        # Patterns ranked in a 2^s table: np.unique's sort costs more.
        dense = np.zeros(1 << len(block), dtype=np.int64)
        dense[local] = 1
        patterns = dense.nonzero()[0]
        dense[patterns] = np.arange(len(patterns))
        which = dense.take(local)
        bits = [(patterns >> p) & 1 for p in range(len(block))]
        lo, hi = bounds[t], bounds[t + 1]
        blocks.append((bits, which, position[lo:hi] * len(patterns) + which[lo:hi]))
    batch, held, _ = plan
    # The chunk arrays are allocated once and viewed at each chunk's width,
    # so they are not mapped and faulted in again chunk by chunk.
    cells_at, reduced_at, value_at, laid_at, optima, totals, parents = map(np.empty, *zip(*held))
    members, size = len(optima), template.sink_row + max(template.cell_stride)
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
            rows = (template.own_cells[t] * width).take(at)
            rows += np.arange(width)[:, None, None]
            segment = cells[lo_t * width : hi_t * width].reshape(width, -1)
            rows.reshape(width, -1).take(own, axis=1, out=segment, mode="clip")
            for digit, (_, which, _), weight in zip(digits, blocks, template.other_weights[t]):
                if weight:
                    segment += (digit * (weight * width)).take(which[lo_t:hi_t], axis=1)
        laid = laid_at[: len(cells)]
        if lo == 0 or width < batch:  # the first chunk and a ragged last one
            for a, b in zip(bounds, bounds[1:]):
                laid[a * width : b * width].reshape(width, -1)[:] = scores[a:b]
        reduced = _bucket_maxima(cells, laid, reduced_at[: size * width]).reshape(size, width)
        for first, last, axes in template.cell_groups:
            _fold_sub_downsets(reduced[first:last], axes)
        value = value_at[: template.size * width].reshape(-1, width)
        optima[lo:hi] = _member_dp(reduced, template, value)[-1]
        if not every:
            top = max(top, float(optima[lo:hi].max()))
            floor = top - _near_tol(top)
        nodes = np.empty((n, width), dtype=np.int64)  # each member's node in each slot
        nodes[np.hstack(places).T + shift, np.arange(width)] = ranked[:, None]
        # Masking copies, as the chunk's arrays are reused; row-major, as the
        # trace's row gathers would otherwise copy a column-major buffer.
        buffered.append([np.arange(lo, hi), nodes, reduced, value])
        buffered = [[a.compress(keep, axis=-1) for a in piece] for piece in buffered
                    if (keep := optima[piece[0]] >= floor).any()]
        if hi == members:
            # Freed first, so that the last trace does not add to the chunk arrays.
            del cells_at, reduced_at, value_at, laid_at, laid, cells, reduced, value
        # The leading pieces of at most B columns in all are traced at once
        # (a piece is one chunk's, at most B), so no trace is wider than B.
        while buffered and (hi == members or sum(len(piece[0]) for piece in buffered) >= batch):
            widths = itertools.accumulate(len(piece[0]) for piece in buffered)
            count = bisect.bisect_right(list(widths), batch)
            # A single piece is traced as it is, not joined into a copy.
            index, nodes, cells, value = (
                a[0] if len(a) == 1 else np.concatenate(a, axis=-1) for a in zip(*buffered[:count])
            )
            del buffered[:count]
            totals[index], parents[index] = _trace(table, template, nodes, cells, value)
    return optima, totals, parents


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
    gathers.  ``choose_parents`` gives each node its parents inside the
    downset left behind, and the totals.
    """
    n, width = nodes.shape
    edges, ptr = len(template.edge_slot), template.edge_ptr
    cand = value.take(template.edge_child, axis=0)
    cand += cells.take(template.edge_cell, axis=0)
    tight = cand == np.repeat(value, np.diff(ptr), axis=0)  # each edge's downset's value
    del cand
    key = (nodes * edges).take(template.edge_slot, axis=0)
    key += np.arange(edges)[:, None]
    key[~tight] = n * edges
    # Row d - 1: the smallest tight key of downset d.
    smallest = np.minimum.reduceat(key, ptr[1:-1], axis=0)
    del key, tight
    columns = np.arange(width)
    downset = np.full(width, template.size - 1)
    left = np.full(width, (1 << n) - 1)
    allowed = np.empty((width, n), dtype=np.int64)
    for _ in range(n):
        sink, edge = np.divmod(smallest[downset - 1, columns], edges)
        left ^= 1 << sink
        allowed[columns, sink] = left
        downset = template.edge_child[edge]
    del smallest
    totals, entry = choose_parents(table, allowed)
    return totals, table.masks[entry]


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
    return float(totals[0]), Dag.from_masks(table.n, parents[0])


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
    evaluation and no quantum query.  grover-cost-model returns the scan's
    answer, checks it against ``solve_dp`` to 1e-9 where n <= ``DP_CAP``,
    and books one classical evaluation plus the charge ceil(sqrt(m)) *
    ceil(log2(m)) for m members instead of simulating.  grover-sim traces every
    member, because its oracle table must order members exactly as totals
    do, and members sharing a constrained optimum tie, so near ties are the
    rule; it runs simulated quantum maximum finding over the totals,
    charging every simulated oracle application of its 7 repetitions, and
    books the winner's witness as one more classical evaluation.

    Before the shared ``lattice_template`` is looked up or built, the caps
    raise ``InstanceTooLargeError``, in order: for grover-sim, more members
    than ``MAX_SIM_DOMAIN``; the byte cap, when ``lattice_build_bytes`` and
    the arrays of ``_scan_plan`` would exceed ``LATTICE_BYTES_CAP``; and
    the work cap, when members times downsets exceeds ``SCAN_WORK_CAP``.
    grover-cost-model's ``solve_dp`` check is bounded by ``DP_CAP``, not by
    the byte cap: it holds its plan's bytes (``dp_exact._dp_plan``), about
    1.2x its subset tables, which a byte cap would refuse at n = 20.
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
    plan = _scan_plan(n, k, len(table.scores))
    needed = plan[2]
    if needed > LATTICE_BYTES_CAP:
        raise InstanceTooLargeError(
            f"lattice of {downsets} downsets and {lattice_edge_count_formula(n, k)} edges "
            f"needs {needed} bytes, over the {LATTICE_BYTES_CAP} byte cap"
        )
    if members * downsets > SCAN_WORK_CAP:
        raise InstanceTooLargeError(
            f"cover of {members} members x {downsets} downsets is over the "
            f"{SCAN_WORK_CAP} work cap"
        )
    ledger = QueryLedger()
    optima, totals, parents = _scan(
        table, partition, lattice_template(n, k), plan, every=strategy == "grover-sim"
    )
    if strategy == "grover-sim":
        ledger.count_classical(members)
        oracle = MaxOracle(members, totals.__getitem__, ledger)
        best, _, _ = max_find(oracle, members, "sim", rng_seed=seed)
        ledger.count_classical()
        return float(totals[best]), Dag.from_masks(n, parents[best]), ledger

    top = float(optima.max())
    tol = _near_tol(top)
    near = np.flatnonzero(optima >= top - tol)
    unequal = near[totals[near] != optima[near]]  # -inf - -inf is nan
    off = unequal[np.abs(totals[unequal] - optima[unequal]) > tol / 2]
    if len(off):
        raise RuntimeError(
            f"member {off[0]}: witness rescores to {float(totals[off[0]])!r}, "
            f"DP gave {float(optima[off[0]])!r}"
        )
    best = near[np.argmax(totals[near])]
    score, dag = float(totals[best]), Dag.from_masks(n, parents[best])
    if strategy == "classical-scan":
        ledger.count_classical(members)
        return score, dag, ledger
    if n <= DP_CAP and abs(score - solve_dp(table)[0]) > 1e-9:
        raise RuntimeError("cover identity violated: member optimum != DP optimum")
    ledger.count_classical()
    ledger.charge_quantum(quantum_charge(members))
    return score, dag, ledger
