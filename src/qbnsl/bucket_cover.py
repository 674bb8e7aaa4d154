"""Two-level bucket orders over a block partition, and their downsets.

A block partition splits the n nodes into blocks of a common even size k
(one smaller remainder block is allowed).  A cover member fixes, inside
each block, a first half that precedes the second half; sweeping the first
half over all balanced choices yields a family of partial orders whose
linear extensions jointly cover all n! orders.  Per member, the subsets
closed downward under the member's precedence constraints form a small
lattice, which is what the constrained dynamic program walks.

Members get canonical dense indices, so that search routines can treat a
member family as a plain integer domain: mixed radix over the blocks,
each block's first half ranked in colexicographic order, which matches
sorting by bitmask and needs no enumeration even for huge blocks.  A
block of size s has C(s, ceil(s/2)) splits (:func:`member_radix`) and
2^h + 2^(s-h) - 1 downsets for first half h (:func:`lattice_radix`).

Relabelled by slot (block, half, rank within the half), every member of
an (n, k) partition has the same downset lattice.  :class:`LatticeTemplate`
holds it, kept per shape when small: the downsets as slot masks and the
covering edges as CSR arrays, both indexed by downset.  A
:class:`DownsetIndex` is a thin view that adds one member's slot -> node
map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .instance import MAX_NODES, NodeSet
from .seeding import rng_for


class InvalidKError(ValueError):
    """The block size k is unusable for the given n."""


class IndexOutOfRangeError(IndexError):
    """A canonical index fell outside its domain."""


def _half(size: int) -> int:
    return (size + 1) // 2


def member_radix(size: int) -> int:
    """Splits of a block of this size: C(s, ceil(s/2)) balanced first halves."""
    return math.comb(size, _half(size))


def lattice_radix(size: int) -> int:
    """Downsets of a block of this size: 2^h + 2^(s-h) - 1 for first half h."""
    h = _half(size)
    return (1 << h) + (1 << (size - h)) - 1


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


def _partition_sizes(n: int, k: int) -> list[int]:
    """``_block_sizes`` of a partition an instance may hold: n <= ``MAX_NODES``."""
    if n > MAX_NODES:
        raise ValueError(f"n must be at most {MAX_NODES}, got {n}")
    return _block_sizes(n, k)


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


@dataclass(frozen=True)
class BlockPartition:
    """A partition of 0..n-1 into blocks, all of size k except a remainder."""

    n: int
    k: int
    blocks: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        sizes = _partition_sizes(self.n, self.k)
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
        return cls._cut(n, k, range(n))

    @classmethod
    def shuffled(cls, n: int, k: int, seed: int) -> "BlockPartition":
        _partition_sizes(n, k)  # before the permutation, which grows with n
        return cls._cut(n, k, rng_for(seed, "block-partition").permutation(n).tolist())

    @classmethod
    def _cut(cls, n: int, k: int, nodes) -> "BlockPartition":
        """The blocks of ``_block_sizes(n, k)``, cut from ``nodes`` in order.

        n and k are checked before any block is cut: a block of n-bit
        masks per k nodes would take memory growing as n^2.
        """
        blocks, start = [], 0
        for size in _partition_sizes(n, k):
            blocks.append(NodeSet.from_nodes(nodes[start : start + size]))
            start += size
        return cls(n, k, tuple(blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)


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


@functools.cache
def cover_size(n: int, k: int) -> int:
    """Number of members in the balanced-split cover for (n, k), exactly."""
    return math.prod(member_radix(size) for size in _block_sizes(n, k))


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
    radices = [member_radix(len(block)) for block in partition.blocks]
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


@functools.cache
def downset_count_formula(n: int, k: int) -> int:
    """Downsets of every (n, k) member: the product of the block lattice radices.

    The count is split-independent, so this is the one downset count for
    any member or partition.  Pure arithmetic over block sizes, usable for
    report-only n beyond the instance cap.
    """
    return math.prod(lattice_radix(size) for size in _block_sizes(n, k))


@functools.cache
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
        total += local * downsets // lattice_radix(size)
    return total


@functools.cache
def lattice_build_bytes(n: int, k: int) -> int:
    """Bytes that building an (n, k) :class:`LatticeTemplate` peaks at, bounded.

    With D downsets and E edges the template keeps three E-long and two
    D-long int64 arrays: edge slots, children and cells; masks and edge
    pointers.  While it places the edges, the build also holds the downset
    indices, each downset's next free edge place and per-block trace
    tables, and the edge count pass takes up to 3D of temporaries.  The
    rest of the 10D covers the layer order and cardinalities that
    ``padded_steps`` holds while it is built: 8 * (3E + 10D) bytes.  Its two
    int32 gather rows, kept with the template, take 8 bytes per padded edge,
    at most (n + 1) // 2 per downset.  Plus 64 KiB for a tiny lattice's
    small objects and 32 per entry of ``slot_of``'s split tables.
    """
    downsets = downset_count_formula(n, k)
    splits = sum(member_radix(s) * s for s in set(_block_sizes(n, k)))
    padded = (n + 1) // 2 * downsets
    return (8 * (3 * lattice_edge_count_formula(n, k) + 10 * downsets + padded) + (1 << 16)
            + 32 * splits)


def closure_digit(local, h: int):
    """Local digit of the downward closure of a block's slot pattern(s).

    Touching the second half pulls in the whole first half, so a pattern
    with second-half part c > 0 closes to digit 2^h-1+c and any other
    pattern is its own first-half counter.  Works elementwise on arrays.
    """
    second = local >> h
    return np.where(second != 0, ((1 << h) - 1) + second, local)


class LatticeTemplate:
    """The downset lattice shared by every member of every (n, k) partition.

    Nodes are relabelled by slot: block t owns the slots ``offsets[t]``
    onwards, first its member's first half, then its second half, each in
    ascending node order.  In slot space every member has the same
    downsets, so :func:`lattice_template` keeps one per small shape; its
    arrays are read-only.

    Per block of size s with first half h, the local traces are the
    subsets of the first-half slots in counter order (digits 0..2^h-1),
    followed by the full first half plus each nonempty subset of the
    second-half slots (digit 2^h-1+c for second-half counter c).  Global
    indices are mixed radix over the local digits with block 0 most
    significant, so the lattice is the product of the block lattices.
    ``masks[d]`` is downset d as a slot bitmask; ``axes`` describes each
    block axis for :func:`~qbnsl.dp_exact._fold_sub_downsets` as (radix,
    Boolean parts), a part being (first digit, bits).

    The covering edges are CSR arrays, indexed like every per-downset
    array by downset index: downset d's edges are
    ``edge_ptr[d]:edge_ptr[d + 1]``, in ascending slot order: ``edge_slot``
    is the removed slot and ``edge_child`` the index of the downset left
    behind.  The removable slots of a block trace are its second-half part
    if nonempty, else all of it.  ``padded_steps[c - 1]``, built on first
    use, holds cardinality c's downsets and, for the DP's two gathers, the
    child and the cell of each of their edges, padded to a table.

    The member DP reads node i's best parents in downset c only along the
    edge removing i's slot j from c + {j}; ``edge_cell`` maps each edge to
    its cell, indexed by slot.  Cells come in (block, half) groups, laid
    out as (slot place, own trace without it, other blocks' downset), an
    own trace taking ``cell_stride[t]`` rows.  ``own_cells[t][q, g]`` is
    the first row for place q under block-t closure digit g (``sink_row``
    if the trace holds q); ``other_weights[t]`` weighs the other blocks.
    ``cell_groups`` lists (first row, last row, fold axes) per (size,
    half).  The build peaks at :func:`lattice_build_bytes`.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n, self.k = n, k
        self.block_sizes = tuple(_block_sizes(n, k))
        self.halves = tuple(_half(size) for size in self.block_sizes)
        offsets = [0]
        for size in self.block_sizes[:-1]:
            offsets.append(offsets[-1] + size)
        self.offsets = tuple(offsets)
        self.radices = tuple(lattice_radix(size) for size in self.block_sizes)
        weights = [1] * len(self.radices)
        for t in range(len(weights) - 2, -1, -1):
            weights[t] = weights[t + 1] * self.radices[t + 1]
        self.weights = tuple(weights)
        self.size = size = math.prod(self.radices)
        self.axes = tuple((r, ((0, h), ((1 << h) - 1, s - h)))
                          for r, s, h in zip(self.radices, self.block_sizes, self.halves))
        traces = [self.local_traces(t) for t in range(len(self.radices))]
        self._cell_layout(traces)
        masks = np.zeros(1, dtype=np.int64)
        for local, offset in zip(traces, self.offsets):
            masks = (masks[:, None] | (local << offset)[None, :]).ravel()
        self.masks = masks

        index = np.arange(size, dtype=np.int64)
        # Per block, each trace's removable slots: the second-half part if
        # nonempty, else all of it.  Temporaries are dropped as soon as they
        # are used up, as lattice_build_bytes counts on.
        movable = [
            np.where(local >> h != 0, local & ~((1 << h) - 1), local)
            for local, h in zip(traces, self.halves)
        ]
        counts = np.zeros(size, dtype=np.int64)
        for t, (weight, radix) in enumerate(zip(self.weights, self.radices)):
            counts += np.bitwise_count(movable[t])[(index // weight) % radix]
        self.edge_ptr = edge_ptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=edge_ptr[1:])
        del counts
        self.edge_slot, self.edge_child, self.edge_cell = np.empty((3, edge_ptr[-1]), np.int64)
        # Slots ascend block by block, so each edge goes to the next free
        # place of its downset's list.  Block t's digit g downsets are
        # ``base + g * weight``, where base holds its digit 0 downsets, in
        # the order of their other-block downsets.
        cursor = edge_ptr[:-1].copy()
        for t, (offset, h, weight) in enumerate(zip(self.offsets, self.halves, self.weights)):
            stride = self.radices[t] * weight
            base = (np.arange(0, size, stride)[:, None] + np.arange(weight)).ravel()
            others = np.arange(len(base))
            for digit in range(self.radices[t]):
                local, moves = int(traces[t][digit]), int(movable[t][digit])
                parents = base + digit * weight
                while moves:
                    low = moves & -moves
                    moves ^= low
                    at = cursor[parents]
                    q = low.bit_length() - 1
                    child = int(closure_digit(local ^ low, h))
                    self.edge_slot[at] = offset + q
                    self.edge_child[at] = base + child * weight
                    self.edge_cell[at] = self.own_cells[t][q, child] + others
                    cursor[parents] = at + 1
        del cursor, traces, movable
        for array in (masks, edge_ptr, self.edge_slot, self.edge_child, self.edge_cell,
                      *self.own_cells):
            array.flags.writeable = False

    @functools.cached_property
    def padded_steps(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per cardinality layer 1..n: its downsets by index, and two (w,
        downsets) int32 gather rows, ``edge_child`` and ``edge_cell`` at each
        padded edge.

        Place j holds each downset's j-th edge, the last one repeated once
        its edges run out, so a max down the rows is the max over its edges.
        w is the layer's most edges of one downset, at most the block
        halves' sum.
        """
        cardinality = np.bitwise_count(self.masks)
        order = np.argsort(cardinality, kind="stable")  # downsets by (cardinality, index)
        order.flags.writeable = False
        layers = np.searchsorted(cardinality[order], range(1, self.n + 2))
        ptr, counts = self.edge_ptr[:-1], np.diff(self.edge_ptr)
        steps = []
        for lo, hi in zip(layers[:-1], layers[1:]):
            downsets = order[lo:hi]
            edges = np.minimum(np.arange(counts[downsets].max())[:, None], counts[downsets] - 1)
            edges += ptr[downsets]
            rows = [row.take(edges).astype(np.int32) for row in (self.edge_child, self.edge_cell)]
            for row in rows:
                row.flags.writeable = False
            steps.append((downsets, *rows))
        return tuple(steps)

    @functools.cached_property
    def slot_of(self) -> tuple[np.ndarray, ...]:
        """``slot_of[t][digit, p]``: block t position p's slot place under a split."""
        tables = {s: np.argsort([split_slot_positions(s, d) for d in range(member_radix(s))],
                                axis=1) for s in set(self.block_sizes)}  # rows' inverses
        for table in tables.values():
            table.flags.writeable = False
        return tuple(tables[s] for s in self.block_sizes)

    def _cell_layout(self, traces: list[np.ndarray]) -> None:
        """Place the (block, half) cell groups, stacked by block size."""
        self.cell_stride = tuple(self.size // radix for radix in self.radices)
        self.other_weights = tuple(
            tuple(w // (r if u < t else 1) * (u != t) for u, w in enumerate(self.weights))
            for t, r in enumerate(self.radices))
        own_cells = [np.empty((s, r), np.int64) for s, r in zip(self.block_sizes, self.radices)]
        groups, row = [], 0
        for s in sorted(set(self.block_sizes)):
            blocks = [t for t, size in enumerate(self.block_sizes) if size == s]
            h = self.halves[blocks[0]]
            for start, places in ((0, h), (h, s - h)):
                if not places:
                    continue
                first = row
                for t in blocks:
                    for q in range(start, start + places):
                        # The trace with bit q dropped, then its own half.
                        own = ((traces[t] & ((1 << q) - 1)) | (traces[t] >> (q + 1) << q)) >> start
                        own_cells[t][q] = row + own * self.cell_stride[t]
                        row += (1 << (places - 1)) * self.cell_stride[t]
                other = tuple(axis for u, axis in enumerate(self.axes) if u != blocks[0])
                own = (1 << (places - 1), ((0, places - 1),))
                groups.append((first, row, ((len(blocks) * places, ()), own, *other)))
        self.sink_row = row
        for table, local in zip(own_cells, traces):
            table[(local >> np.arange(len(table))[:, None]) & 1 == 1] = row
        self.own_cells = tuple(own_cells)
        self.cell_groups = tuple(groups)

    def local_traces(self, t: int) -> np.ndarray:
        """Block t's local traces as slot patterns, in digit order."""
        h = self.halves[t]
        first = np.arange(1 << h, dtype=np.int64)
        second = np.arange(1, 1 << (self.block_sizes[t] - h), dtype=np.int64)
        return np.concatenate([first, ((1 << h) - 1) | (second << h)])


def lattice_template(n: int, k: int) -> LatticeTemplate:
    """The (n, k) template; one whose build takes at most 256 KiB is kept,
    and a larger one is built per call.  Only 43 shapes, all with n <= 15,
    are that small, 5.0 MiB of build bytes and gather rows in all."""
    small = lattice_build_bytes(n, k) <= 1 << 18
    return (_kept_templates if small else LatticeTemplate)(n, k)


_kept_templates = functools.cache(LatticeTemplate)


class DownsetIndex:
    """Dense canonical indexing of one member's downset lattice.

    A thin view over the partition's :class:`LatticeTemplate`:
    ``nodes[slot]`` is the member's node in each slot, and index d is the
    downset whose slots are ``template.masks[d]``.  Per block the traces
    are the subsets of the first half (bitmask-ascending) followed by the
    first half plus each nonempty subset of the second half
    (bitmask-ascending); indices are mixed radix with block 0 most
    significant.  Index 0 is the empty set and the last index is the full
    node set; ``size`` is the downset count.
    """

    __slots__ = ("member", "template", "size", "nodes", "_node_masks")

    def __init__(self, member: CoverMember) -> None:
        self.member = member
        self.template = template = lattice_template(member.partition.n, member.partition.k)
        self.size = template.size
        nodes: list[int] = []
        for t, split in enumerate(member.splits):
            nodes.extend(split)
            nodes.extend(member.second_half(t))
        self.nodes = tuple(nodes)
        self._node_masks: np.ndarray | None = None

    def _masks(self) -> np.ndarray:
        """Every downset as a node bitmask, by index."""
        if self._node_masks is None:
            slot_masks = self.template.masks
            out = np.zeros_like(slot_masks)
            for slot, node in enumerate(self.nodes):
                out |= ((slot_masks >> slot) & 1) << node
            self._node_masks = out
        return self._node_masks

    def by_cardinality(self) -> list[tuple[int, int]]:
        """(index, bitmask) pairs sorted by (cardinality, index)."""
        order = np.argsort(np.bitwise_count(self.template.masks), kind="stable")
        return list(zip(order.tolist(), self._masks()[order].tolist()))

    def edges(self) -> list[list[tuple[int, int]]]:
        """Per downset index, its (removed element, child index) pairs.

        Children are the downsets obtained by removing one removable
        element; pairs are listed with elements ascending.  Every nonempty
        downset has at least one removable element, so the lattice is
        connected from the empty set.
        """
        template = self.template
        ptr = template.edge_ptr.tolist()
        slots = template.edge_slot.tolist()
        children = template.edge_child.tolist()
        return [sorted((self.nodes[slots[e]], children[e]) for e in range(lo, hi))
                for lo, hi in zip(ptr, ptr[1:])]
