"""Order and downset queries that only the tests use, shared by several modules.

The solvers work on the lattice template's arrays and never ask these
questions one subset at a time.  The tests do, to check the solvers, the
cover property and the template against independent pure-Python answers.
The module also holds the readers that only tests need: every member's
optimum from the cover scan, one Grover trial's per-point law, and a
table's membership test.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from qbnsl import po_dp
from qbnsl.bucket_cover import (
    BlockPartition,
    CoverMember,
    DownsetIndex,
    IndexOutOfRangeError,
    LatticeTemplate,
    closure_digit,
    lattice_template,
)
from qbnsl.dp_exact import best_parents_all_subsets
from qbnsl.grover_sim import _PROB_TOL, QueryLedger, _hit_miss
from qbnsl.instance import (
    CyclicGraphError,
    Dag,
    LocalScoreTable,
    NodeSet,
    _sink_first_order,
    best_parents_in,
    total_score,
)
from qbnsl.scores_io import DatasetError, DiscreteDataset


class NotADownsetError(ValueError):
    """A subset is not downward closed for the given cover member."""


@dataclass(frozen=True, slots=True)
class LinearOrder:
    """A total order on 0..n-1, stored as the node sequence itself."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.perm)

    def __iter__(self) -> Iterator[int]:
        return iter(self.perm)

    def positions(self) -> tuple[int, ...]:
        """positions()[i] is the rank of node i in the order."""
        pos = [0] * len(self.perm)
        for rank, node in enumerate(self.perm):
            pos[node] = rank
        return tuple(pos)


def topological_order(dag: Dag) -> LinearOrder:
    """A topological order of the DAG; ties pick the smallest node index."""
    order = _sink_first_order(dag)
    if order is None:
        raise CyclicGraphError("graph contains a cycle")
    return LinearOrder(tuple(order))


def sorted_remaining_order(dag: Dag) -> list[int] | None:
    """The sink-first walk as a set of unplaced nodes, sorted at every step.

    Same rule as ``instance._sink_first_order``: the smallest ready index
    goes first, and a cycle gives None.
    """
    order: list[int] = []
    placed = 0
    remaining = set(range(dag.n))
    while remaining:
        ready = None
        for i in sorted(remaining):
            if dag.parents[i].bits & ~placed == 0:
                ready = i
                break
        if ready is None:
            return None
        order.append(ready)
        placed |= 1 << ready
        remaining.discard(ready)
    return order


def covering_member(partition: BlockPartition, order: LinearOrder) -> CoverMember:
    """The member whose constraints the given linear order extends.

    Per block, the first half collects the ceil-half of the block's
    elements that appear earliest in the order.
    """
    if order.n != partition.n:
        raise ValueError("order and partition sizes differ")
    pos = order.positions()
    splits = []
    for block in partition.blocks:
        ranked = sorted(block, key=lambda v: pos[v])
        splits.append(NodeSet.from_nodes(ranked[: (len(block) + 1) // 2]))
    return CoverMember(partition, tuple(splits))


def pairs(member: CoverMember) -> Iterator[tuple[int, int]]:
    """All of the member's ordered precedence pairs (earlier, later)."""
    for t in range(member.partition.block_count):
        for later in member.second_half(t):
            for earlier in member.splits[t]:
                yield earlier, later


def extended_by(member: CoverMember, order: LinearOrder) -> bool:
    """True iff the linear order respects every precedence pair of the member."""
    pos = order.positions()
    return all(pos[a] < pos[b] for a, b in pairs(member))


def is_downset(member: CoverMember, subset: "NodeSet | int") -> bool:
    """True iff taking any element forces no missing required predecessor.

    Blockwise: touching a second half requires containing that block's
    entire first half.
    """
    bits = int(subset)
    if bits >> member.partition.n:
        raise ValueError("subset references nodes outside the partition")
    for t, block in enumerate(member.partition.blocks):
        split_bits = member.splits[t].bits
        second_bits = block.bits & ~split_bits
        if bits & second_bits and split_bits & ~bits:
            return False
    return True


def downset_by_index(index: DownsetIndex, d: int) -> NodeSet:
    """The member's downset with index d, as a node set."""
    if not 0 <= d < index.size:
        raise IndexOutOfRangeError(f"downset index {d} not in [0, {index.size})")
    return NodeSet(int(index._masks()[d]))


def index_of_slots(template: LatticeTemplate, slot_mask: int) -> int | None:
    """Index of the template downset with this slot bitmask, or None if not closed."""
    d = 0
    for t, (offset, size, h) in enumerate(
        zip(template.offsets, template.block_sizes, template.halves)
    ):
        local = (slot_mask >> offset) & ((1 << size) - 1)
        if local >> h and local & ((1 << h) - 1) != (1 << h) - 1:
            return None
        d += int(closure_digit(local, h)) * template.weights[t]
    return d


def index_of_downset(index: DownsetIndex, subset: "NodeSet | int") -> int:
    """Inverse of :func:`downset_by_index`; raises if the subset is not a downset."""
    bits = int(subset)
    if bits >> index.member.partition.n:
        raise NotADownsetError("subset references nodes outside the partition")
    slot_mask = 0
    for slot, node in enumerate(index.nodes):
        slot_mask |= ((bits >> node) & 1) << slot
    d = index_of_slots(index.template, slot_mask)
    if d is None:
        raise NotADownsetError(
            f"subset {bits:#x} violates the member's precedence constraints"
        )
    return d


def prefixes(order: LinearOrder) -> Iterator[tuple[int, NodeSet]]:
    """Yield (node, strict predecessors) along the order."""
    bits = 0
    for v in order:
        yield v, NodeSet(bits)
        bits |= 1 << v


def ledger_counts(ledger: QueryLedger) -> dict[str, int]:
    """The ledger's two meters, for comparing whole ledgers."""
    return {
        "classical_evals": ledger.classical_evals,
        "charged_quantum_queries": ledger.charged_quantum_queries,
    }


def contains(table: LocalScoreTable, i: int, parents: "NodeSet | int") -> bool:
    """Whether node i lists the parent set, read from ``table.items(i)``."""
    mask = int(parents)
    return any(listed == mask for listed, _ in table.items(i))


def member_optima(table: LocalScoreTable, partition: BlockPartition) -> np.ndarray:
    """Every member's optimum, in ``member_by_index`` order, from the cover scan."""
    if table.n != partition.n:
        raise ValueError("table and partition sizes differ")
    n, k = partition.n, partition.k
    plan = po_dp._scan_plan(n, k, len(table.scores))
    return po_dp._scan(table, partition, lattice_template(n, k), plan)[0]


def trial_probabilities(marks: np.ndarray, iterations: int) -> np.ndarray:
    """Per-point measurement law after r Grover iterations from uniform."""
    hit, miss = _hit_miss(marks.size, int(np.count_nonzero(marks)), iterations)
    return np.where(marks, hit, miss)


def trial_cdf(marks: np.ndarray, iterations: int) -> np.ndarray:
    """Normalized running-sum law of one trial, checked to sum to 1.

    This is the sampler's law as a cumulative array over the whole register,
    before its cell boundaries took closed form.
    """
    cdf = np.cumsum(trial_probabilities(np.asarray(marks, dtype=bool), iterations))
    total = cdf[-1]
    if abs(total - 1.0) > _PROB_TOL:
        raise RuntimeError(f"trial probabilities drifted from 1 by {total - 1.0:.3e}")
    return cdf / total


def cdf_trial(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One trial by inverting ``cdf`` at one uniform variate, as ``Generator.choice`` does."""
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def from_csv_by_rows(text: str) -> DiscreteDataset:
    """``DiscreteDataset.from_csv`` as a per-row loop with ``int()`` per cell.

    The bulk parse replaced it; both must give the same dataset, or the
    same ``DatasetError`` message, for every input.  A ``csv.Error`` raises
    as a ``DatasetError`` naming the reader's line.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
        names = tuple(h.strip() for h in header)
        rows: list[list[int]] = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise DatasetError(f"row {row_no}: expected {len(names)} cells")
            try:
                rows.append([int(c) for c in row])
            except ValueError:
                raise DatasetError(f"row {row_no}: non-integer cell") from None
    except StopIteration:
        raise DatasetError("empty CSV") from None
    except csv.Error as exc:
        raise DatasetError(f"row {reader.line_num}: {exc}") from None
    if not rows:
        raise DatasetError("CSV has no data rows")
    try:
        data = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise DatasetError("cells must be state indices below 2**63") from None
    if data.min() < 0:
        raise DatasetError("cells must be non-negative state indices")
    return DiscreteDataset(names, data, tuple(int(v) + 1 for v in data.max(axis=0)))


def solve_dp_with_sink_table(table) -> tuple[float, Dag]:
    """``solve_dp`` with a second 2^n table of chosen sinks, as it once was.

    Each layer updates with a strict compare, sinks in ascending order, so
    ties keep the smallest sink, and the traceback reads the table.  A set
    whose optimum is -inf gets no sink, so on a table with a -inf optimum
    this fails its assertion.  The values-only ``solve_dp`` must give the
    same score and witness wherever this returns.
    """
    n = table.n
    size = 1 << n
    half = size >> 1
    best_parent_values = best_parents_all_subsets(table)
    by_layer = np.argsort(np.bitwise_count(np.arange(half)), kind="stable")
    layer_ends = np.cumsum([math.comb(n - 1, c) for c in range(n)]).tolist()
    nodes = np.arange(n)[:, None]
    low = (1 << nodes) - 1
    opt = np.full(size, -np.inf, dtype=np.float64)
    opt[0] = 0.0
    chosen_sink = np.full(size, -1, dtype=np.int8)
    start = 0
    for end in layer_ends:
        squeezed = by_layer[start:end]
        start = end
        without = (squeezed & low) | ((squeezed & ~low) << 1)
        candidates = opt[without] + np.take(best_parent_values, squeezed, axis=0).T
        with_sink = without | (1 << nodes)
        for i in range(n):
            update = candidates[i] > opt[with_sink[i]]
            targets = with_sink[i][update]
            opt[targets] = candidates[i][update]
            chosen_sink[targets] = i
    parents: list[NodeSet] = [NodeSet(0)] * n
    mask = size - 1
    while mask:
        i = int(chosen_sink[mask])
        assert i >= 0
        mask ^= 1 << i
        parents[i] = best_parents_in(table, i, mask)[1]
    dag = Dag(n, tuple(parents))
    return total_score(dag, table), dag
