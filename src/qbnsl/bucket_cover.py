"""Two-level bucket orders over a block partition, and their downsets.

A block partition splits the n nodes into blocks of a common even size k
(one smaller remainder block is allowed).  A cover member fixes, inside
each block, a first half that precedes the second half; sweeping the first
half over all balanced choices yields a family of partial orders whose
linear extensions jointly cover all n! orders.  Per member, the subsets
closed downward under the member's precedence constraints form a small
lattice, which is what the constrained dynamic program walks.

Members and downsets both get canonical dense indices so that search
routines can treat a member family as a plain integer domain.  Member
indexing uses colexicographic ranking of each block's first half, which
matches sorting by bitmask and needs no enumeration even for huge blocks.

Relabelled by slot (block, half, rank within the half), every member of
a partition has the same downset lattice.  :class:`LatticeTemplate`
builds it once per partition: the downsets as slot masks and the
covering edges as CSR arrays in cardinality layers.  A
:class:`DownsetIndex` is a thin view that adds one member's slot -> node
map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .instance import MAX_NODES, LinearOrder, NodeSet, _bits
from .seeding import rng_for


class InvalidKError(ValueError):
    """The block size k is unusable for the given n."""


class IndexOutOfRangeError(IndexError):
    """A canonical index fell outside its domain."""


class NotADownsetError(ValueError):
    """A subset is not downward closed for the given cover member."""


def _half(size: int) -> int:
    return (size + 1) // 2


def _block_sizes(n: int, k: int) -> list[int]:
    # Pure arithmetic: no MAX_NODES cap here, so count formulas stay usable
    # for report-only sizes far beyond what instances may construct.
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k % 2 != 0 or not 2 <= k <= n:
        raise InvalidKError(f"k must be even with 2 <= k <= n, got k={k} for n={n}")
    sizes = [k] * (n // k)
    if n % k:
        sizes.append(n % k)
    return sizes


def _unrank_combination(rank: int, size: int, count: int) -> int:
    """rank-th ``count``-subset of positions 0..size-1 in colex order, as a bitmask."""
    mask = 0
    remaining = rank
    for j in range(count, 0, -1):
        p = j - 1
        while math.comb(p + 1, j) <= remaining:
            p += 1
        mask |= 1 << p
        remaining -= math.comb(p, j)
    if remaining or mask >> size:
        raise IndexOutOfRangeError(f"combination rank {rank} out of range")
    return mask


def _rank_combination(position_mask: int) -> int:
    rank = 0
    for j, p in enumerate(NodeSet(position_mask), start=1):
        rank += math.comb(p, j)
    return rank


@dataclass(frozen=True)
class BlockPartition:
    """A partition of 0..n-1 into blocks, all of size k except a remainder."""

    n: int
    k: int
    blocks: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        if self.n > MAX_NODES:
            raise ValueError(f"n must be at most {MAX_NODES}, got {self.n}")
        sizes = _block_sizes(self.n, self.k)
        if len(self.blocks) != len(sizes):
            raise ValueError(f"expected {len(sizes)} blocks, got {len(self.blocks)}")
        union = 0
        for block, size in zip(self.blocks, sizes):
            if len(block) != size:
                raise ValueError(f"block {block} should have {size} elements")
            if union & block.bits:
                raise ValueError("blocks must be disjoint")
            union |= block.bits
        if union != (1 << self.n) - 1:
            raise ValueError("blocks must cover all nodes")

    @classmethod
    def contiguous(cls, n: int, k: int) -> "BlockPartition":
        sizes = _block_sizes(n, k)
        blocks = []
        start = 0
        for size in sizes:
            blocks.append(NodeSet.from_nodes(range(start, start + size)))
            start += size
        return cls(n, k, tuple(blocks))

    @classmethod
    def shuffled(cls, n: int, k: int, seed: int) -> "BlockPartition":
        sizes = _block_sizes(n, k)
        nodes = rng_for(seed, "block-partition").permutation(n)
        blocks = []
        start = 0
        for size in sizes:
            blocks.append(NodeSet.from_nodes(int(v) for v in nodes[start : start + size]))
            start += size
        return cls(n, k, tuple(blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, node: int) -> int:
        for t, block in enumerate(self.blocks):
            if node in block:
                return t
        raise ValueError(f"node {node} not in partition")


@dataclass(frozen=True)
class CoverMember:
    """One two-level bucket order: per block, a first half and a second half.

    Every first-half element precedes every second-half element of the same
    block; elements of different blocks are incomparable.  ``splits[t]`` is
    block t's first half and has ceil(size/2) elements.
    """

    partition: BlockPartition
    splits: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        if len(self.splits) != self.partition.block_count:
            raise ValueError("one split per block required")
        for block, split in zip(self.partition.blocks, self.splits):
            if not split.issubset(block):
                raise ValueError(f"split {split} is not inside block {block}")
            if len(split) != _half(len(block)):
                raise ValueError(
                    f"split {split} must take the ceil-half of block {block}"
                )

    def second_half(self, t: int) -> NodeSet:
        return self.partition.blocks[t] - self.splits[t]

    def predecessors(self, node: int) -> NodeSet:
        """Nodes required to precede ``node``; empty for first-half nodes."""
        t = self.partition.block_of(node)
        if node in self.splits[t]:
            return NodeSet(0)
        return self.splits[t]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered precedence pairs (earlier, later)."""
        for t in range(self.partition.block_count):
            for later in self.second_half(t):
                for earlier in self.splits[t]:
                    yield earlier, later

    def extended_by(self, order: LinearOrder) -> bool:
        """True iff the linear order respects every precedence pair."""
        pos = order.positions()
        return all(pos[a] < pos[b] for a, b in self.pairs())


def cover_size(n: int, k: int) -> int:
    """Number of members in the balanced-split cover for (n, k), exactly."""
    return math.prod(math.comb(size, _half(size)) for size in _block_sizes(n, k))


def _block_radices(partition: BlockPartition) -> list[int]:
    return [math.comb(len(b), _half(len(b))) for b in partition.blocks]


def split_slot_positions(size: int, digit: int) -> list[int]:
    """A block's positions in slot order under one split digit.

    Digits rank the first halves (ceil(size/2) positions) in colex order,
    that is by position bitmask.  The first half's positions come first,
    then the second half's, each ascending: the slot order of
    :class:`LatticeTemplate` and the split of :func:`member_by_index`.
    """
    first = list(NodeSet(_unrank_combination(digit, size, _half(size))))
    return first + [p for p in range(size) if p not in first]


def member_by_index(partition: BlockPartition, index: int) -> CoverMember:
    """Canonical member for a dense index in [0, cover_size).

    Mixed-radix decoding, block 0 most significant; within a block, first
    halves are ordered by bitmask (equivalently, colex on sorted elements).
    """
    radices = _block_radices(partition)
    total = math.prod(radices)
    if not 0 <= index < total:
        raise IndexOutOfRangeError(f"member index {index} not in [0, {total})")
    digits = []
    rest = index
    for radix in reversed(radices):
        digits.append(rest % radix)
        rest //= radix
    digits.reverse()
    splits = []
    for block, digit in zip(partition.blocks, digits):
        elems = list(block)
        first = split_slot_positions(len(elems), digit)[: _half(len(elems))]
        splits.append(NodeSet.from_nodes(elems[p] for p in first))
    return CoverMember(partition, tuple(splits))


def index_of_member(member: CoverMember) -> int:
    """Inverse of :func:`member_by_index`."""
    radices = _block_radices(member.partition)
    index = 0
    for t, (block, split) in enumerate(zip(member.partition.blocks, member.splits)):
        positions = {e: p for p, e in enumerate(block)}
        pos_mask = 0
        for e in split:
            pos_mask |= 1 << positions[e]
        index = index * radices[t] + _rank_combination(pos_mask)
    return index


def downset_count_formula(n: int, k: int) -> int:
    """Downsets of every (n, k) member: prod of 2^ceil(s/2) + 2^floor(s/2) - 1.

    The count is split-independent, so this is the one downset count for
    any member or partition.  Pure arithmetic over block sizes, usable for
    report-only n beyond the instance cap.
    """
    total = 1
    for size in _block_sizes(n, k):
        first = _half(size)
        total *= (1 << first) + (1 << (size - first)) - 1
    return total


def lattice_edge_count_formula(n: int, k: int) -> int:
    """Covering edges of every (n, k) member's downset lattice.

    A block of size s with first half h has h * 2^(h-1) + (s-h) * 2^(s-h-1)
    local edges, each repeated once per downset of the other blocks.
    """
    downsets = downset_count_formula(n, k)
    total = 0
    for size in _block_sizes(n, k):
        h = _half(size)
        local = (h << h) // 2 + ((size - h) << (size - h)) // 2
        total += local * downsets // ((1 << h) + (1 << (size - h)) - 1)
    return total


def is_downset(member: CoverMember, subset: "NodeSet | int") -> bool:
    """True iff taking any element forces no missing required predecessor.

    Blockwise: touching a second half requires containing that block's
    entire first half.
    """
    bits = _bits(subset)
    if bits >> member.partition.n:
        raise ValueError("subset references nodes outside the partition")
    for t, block in enumerate(member.partition.blocks):
        split_bits = member.splits[t].bits
        second_bits = block.bits & ~split_bits
        if bits & second_bits and split_bits & ~bits:
            return False
    return True


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
        splits.append(NodeSet.from_nodes(ranked[: _half(len(block))]))
    return CoverMember(partition, tuple(splits))




def closure_digit(local, h: int):
    """Local digit of the downward closure of a block's slot pattern(s).

    Touching the second half pulls in the whole first half, so a pattern
    with second-half part c > 0 closes to digit 2^h-1+c and any other
    pattern is its own first-half counter.  Works elementwise on arrays.
    """
    second = local >> h
    return np.where(second != 0, ((1 << h) - 1) + second, local)


class LatticeTemplate:
    """The downset lattice shared by every member of one partition.

    Nodes are relabelled by slot: block t owns the slots ``offsets[t]``
    onwards, first its member's first half, then its second half, each in
    ascending node order.  In slot space every member of the partition has
    the same downsets, so the lattice is built once and a member is just
    its slot -> node map (see :class:`DownsetIndex`).

    Per block of size s with first half h, the local traces are the
    subsets of the first-half slots in counter order (digits 0..2^h-1),
    followed by the full first half plus each nonempty subset of the
    second-half slots (digit 2^h-1+c for second-half counter c).  Global
    indices are mixed radix over the local digits with block 0 most
    significant, so the lattice is the product of the block lattices.
    ``masks[d]`` is downset d as a slot bitmask.
    """

    def __init__(self, partition: BlockPartition) -> None:
        self.partition = partition
        self.block_sizes = tuple(len(block) for block in partition.blocks)
        self.halves = tuple(_half(size) for size in self.block_sizes)
        offsets = [0]
        for size in self.block_sizes[:-1]:
            offsets.append(offsets[-1] + size)
        self.offsets = tuple(offsets)
        self.radices = tuple(
            (1 << h) + (1 << (size - h)) - 1
            for size, h in zip(self.block_sizes, self.halves)
        )
        weights = [1] * len(self.radices)
        for t in range(len(weights) - 2, -1, -1):
            weights[t] = weights[t + 1] * self.radices[t + 1]
        self.weights = tuple(weights)
        self.size = math.prod(self.radices)
        masks = np.zeros(1, dtype=np.int64)
        for t, offset in enumerate(self.offsets):
            local = self.local_traces(t) << offset
            masks = (masks[:, None] | local[None, :]).ravel()
        self.masks = masks
        self._layers: LatticeLayers | None = None

    def local_traces(self, t: int) -> np.ndarray:
        """Block t's local traces as slot patterns, in digit order."""
        h = self.halves[t]
        first = np.arange(1 << h, dtype=np.int64)
        second = np.arange(1, 1 << (self.block_sizes[t] - h), dtype=np.int64)
        return np.concatenate([first, ((1 << h) - 1) | (second << h)])

    def index_of_slots(self, slot_mask: int) -> int | None:
        """Index of the downset with this slot bitmask, or None if not closed."""
        index = 0
        for t, (offset, size, h) in enumerate(
            zip(self.offsets, self.block_sizes, self.halves)
        ):
            local = (slot_mask >> offset) & ((1 << size) - 1)
            second = local >> h
            if second and local & ((1 << h) - 1) != (1 << h) - 1:
                return None
            index += int(closure_digit(local, h)) * self.weights[t]
        return index

    @property
    def layers(self) -> "LatticeLayers":
        """The covering edges in cardinality layers, built on first use."""
        if self._layers is None:
            self._layers = LatticeLayers.build(self)
        return self._layers


@dataclass(frozen=True)
class LatticeLayers:
    """A template's covering edges as CSR arrays in cardinality layers.

    ``order`` lists downset indices by (cardinality, index) and
    ``position`` inverts it.  The downset at order position p has the
    edges ``edge_ptr[p]:edge_ptr[p + 1]``: ``edge_slot`` is the removed
    slot and ``edge_child`` the index of the downset left behind.  The
    removable slots of a block trace are its second-half part if nonempty,
    else all of it.  ``steps[c - 1]`` holds cardinality c's downsets, its
    edge slice, those edges' children and the per-downset segment offsets
    into that slice, ready for one ``reduceat`` per layer.
    """

    order: np.ndarray
    position: np.ndarray
    edge_ptr: np.ndarray
    edge_slot: np.ndarray
    edge_child: np.ndarray
    steps: tuple[tuple[np.ndarray, slice, np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, template: LatticeTemplate) -> "LatticeLayers":
        size = template.size
        index = np.arange(size, dtype=np.int64)
        cardinality = np.bitwise_count(template.masks)
        order = np.argsort(cardinality, kind="stable")
        position = np.empty(size, dtype=np.int64)
        position[order] = index
        parents, slots, children = [], [], []
        for t, (offset, size_t, h) in enumerate(
            zip(template.offsets, template.block_sizes, template.halves)
        ):
            weight = template.weights[t]
            digits = (index // weight) % template.radices[t]
            second_bits = ((1 << size_t) - 1) ^ ((1 << h) - 1)
            for digit, local in enumerate(template.local_traces(t).tolist()):
                movable = (local & second_bits) or local
                downsets = index[digits == digit]
                while movable:
                    low = movable & -movable
                    movable ^= low
                    child = int(closure_digit(local ^ low, h))
                    parents.append(downsets)
                    slots.append(np.full(len(downsets), offset + low.bit_length() - 1))
                    children.append(downsets + (child - digit) * weight)
        parent = np.concatenate(parents)
        slot = np.concatenate(slots)
        child = np.concatenate(children)
        by_position = np.lexsort((slot, position[parent]))
        edge_slot = slot[by_position]
        edge_child = child[by_position]
        edge_ptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(position[parent], minlength=size), out=edge_ptr[1:])
        layer_ptr = np.zeros(template.partition.n + 2, dtype=np.int64)
        np.cumsum(
            np.bincount(cardinality, minlength=template.partition.n + 1),
            out=layer_ptr[1:],
        )
        steps = []
        for c in range(1, template.partition.n + 1):
            lo, hi = int(layer_ptr[c]), int(layer_ptr[c + 1])
            first, last = int(edge_ptr[lo]), int(edge_ptr[hi])
            steps.append(
                (order[lo:hi], slice(first, last), edge_child[first:last],
                 edge_ptr[lo:hi] - first)
            )
        return cls(order, position, edge_ptr, edge_slot, edge_child, tuple(steps))


class DownsetIndex:
    """Dense canonical indexing of one member's downset lattice.

    A thin view over the partition's :class:`LatticeTemplate`:
    ``nodes[slot]`` is the member's node in each slot, and index d is the
    downset whose slots are ``template.masks[d]``.  Per block the traces
    are the subsets of the first half (bitmask-ascending) followed by the
    first half plus each nonempty subset of the second half
    (bitmask-ascending); indices are mixed radix with block 0 most
    significant.  Index 0 is the empty set and the last index is the full
    node set.

    The covering lattice is exposed as, per downset, the list of single
    elements whose removal yields again a downset: the removable elements
    of a block trace are its second-half part if nonempty, else all of it.
    """

    __slots__ = ("member", "template", "size", "nodes", "_node_masks")

    def __init__(
        self, member: CoverMember, template: LatticeTemplate | None = None
    ) -> None:
        if template is None:
            template = LatticeTemplate(member.partition)
        elif template.partition != member.partition:
            raise ValueError("template was built for another partition")
        self.member = member
        self.template = template
        self.size = template.size
        nodes: list[int] = []
        for t, split in enumerate(member.splits):
            nodes.extend(split)
            nodes.extend(member.second_half(t))
        self.nodes = tuple(nodes)
        self._node_masks: np.ndarray | None = None

    def __len__(self) -> int:
        return self.size

    def _masks(self) -> np.ndarray:
        if self._node_masks is None:
            slot_masks = self.template.masks
            out = np.zeros_like(slot_masks)
            for slot, node in enumerate(self.nodes):
                out |= ((slot_masks >> slot) & 1) << node
            self._node_masks = out
        return self._node_masks

    def downset_by_index(self, index: int) -> NodeSet:
        if not 0 <= index < self.size:
            raise IndexOutOfRangeError(f"downset index {index} not in [0, {self.size})")
        return NodeSet(int(self._masks()[index]))

    def index_of_downset(self, subset: "NodeSet | int") -> int:
        bits = _bits(subset)
        if bits >> self.member.partition.n:
            raise NotADownsetError("subset references nodes outside the partition")
        slot_mask = 0
        for slot, node in enumerate(self.nodes):
            slot_mask |= ((bits >> node) & 1) << slot
        index = self.template.index_of_slots(slot_mask)
        if index is None:
            raise NotADownsetError(
                f"subset {bits:#x} violates the member's precedence constraints"
            )
        return index

    def by_cardinality(self) -> list[tuple[int, int]]:
        """(index, bitmask) pairs sorted by (cardinality, index)."""
        order = self.template.layers.order
        return list(zip(order.tolist(), self._masks()[order].tolist()))

    def removable_elements(self, subset: "NodeSet | int") -> NodeSet:
        """Elements whose removal keeps the subset downward closed."""
        bits = _bits(subset)
        out = 0
        for block, split in zip(self.member.partition.blocks, self.member.splits):
            local = bits & block.bits
            in_second = local & ~split.bits
            out |= in_second if in_second else local
        return NodeSet(out)

    def edges(self) -> list[list[tuple[int, int]]]:
        """Per downset index, its (removed element, child index) pairs.

        Children are the downsets obtained by removing one removable
        element; pairs are listed with elements ascending.  Every nonempty
        downset has at least one removable element, so the lattice is
        connected from the empty set.
        """
        layers = self.template.layers
        ptr = layers.edge_ptr.tolist()
        slots = layers.edge_slot.tolist()
        children = layers.edge_child.tolist()
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.size)]
        for p, d in enumerate(layers.order.tolist()):
            out[d] = sorted(
                (self.nodes[slots[e]], children[e]) for e in range(ptr[p], ptr[p + 1])
            )
        return out
