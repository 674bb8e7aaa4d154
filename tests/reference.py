"""Order and downset queries that only the tests use, shared by several modules.

The solvers work on the lattice template's arrays and never ask these
questions one subset at a time.  The tests do, to check the solvers, the
cover property and the template against independent pure-Python answers.
"""

from __future__ import annotations

from typing import Iterator

from qbnsl.bucket_cover import (
    CoverMember,
    DownsetIndex,
    IndexOutOfRangeError,
    LatticeTemplate,
    closure_digit,
)
from qbnsl.grover_sim import QueryLedger
from qbnsl.instance import LinearOrder, NodeSet


class NotADownsetError(ValueError):
    """A subset is not downward closed for the given cover member."""


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
