"""Cover construction, member/downset indexing, and the cover property."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl.bucket_cover import (
    BlockPartition,
    CoverMember,
    DownsetIndex,
    IndexOutOfRangeError,
    InvalidKError,
    LatticeTemplate,
    closure_digit,
    cover_size,
    downset_count_formula,
    lattice_build_bytes,
    lattice_edge_count_formula,
    lattice_template,
    member_by_index,
    member_radix,
    split_slot_positions,
)
from qbnsl.instance import NodeSet
from qbnsl.seeding import rng_for
from reference import (
    LinearOrder,
    NotADownsetError,
    covering_member,
    downset_by_index,
    extended_by,
    index_of_downset,
    is_downset,
    pairs,
)

# Member and downset queries that only these tests ask.


def block_of(partition: BlockPartition, node: int) -> int:
    for t, block in enumerate(partition.blocks):
        if node in block:
            return t
    raise ValueError(f"node {node} not in partition")


def predecessors(member: CoverMember, node: int) -> NodeSet:
    """Nodes required to precede ``node``; empty for first-half nodes."""
    t = block_of(member.partition, node)
    if node in member.splits[t]:
        return NodeSet(0)
    return member.splits[t]


def index_of_member(member: CoverMember) -> int:
    """Inverse of :func:`member_by_index`: mixed radix over colex split ranks."""
    index = 0
    for block, split in zip(member.partition.blocks, member.splits):
        positions = {e: p for p, e in enumerate(block)}
        rank = sum(math.comb(positions[e], j) for j, e in enumerate(split, 1))
        index = index * member_radix(len(block)) + rank
    return index


def removable_elements(member: CoverMember, subset: "NodeSet | int") -> NodeSet:
    """Elements whose removal keeps the subset downward closed."""
    bits = int(subset)
    out = 0
    for block, split in zip(member.partition.blocks, member.splits):
        local = bits & block.bits
        in_second = local & ~split.bits
        out |= in_second if in_second else local
    return NodeSet(out)


def brute_is_downset(member: CoverMember, bits: int) -> bool:
    for smaller, larger in pairs(member):
        if (bits >> larger) & 1 and not (bits >> smaller) & 1:
            return False
    return True


def test_partition_validation():
    with pytest.raises(InvalidKError):
        BlockPartition.contiguous(4, 3)
    with pytest.raises(InvalidKError):
        BlockPartition.contiguous(4, 0)
    with pytest.raises(InvalidKError):
        BlockPartition.contiguous(4, 6)
    with pytest.raises(ValueError):
        BlockPartition.contiguous(0, 2)


def test_contiguous_blocks_and_remainder():
    p = BlockPartition.contiguous(10, 4)
    assert [sorted(b) for b in p.blocks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert block_of(p, 5) == 1 and block_of(p, 9) == 2
    q = BlockPartition.contiguous(9, 4)
    assert [len(b) for b in q.blocks] == [4, 4, 1]


def test_shuffled_partition_is_seeded_and_covers():
    a = BlockPartition.shuffled(8, 4, seed=3)
    b = BlockPartition.shuffled(8, 4, seed=3)
    c = BlockPartition.shuffled(8, 4, seed=4)
    assert a == b
    assert a != c
    union = NodeSet(0)
    for block in a.blocks:
        assert union.isdisjoint(block)
        union = union | block
    assert union == NodeSet.full(8)


def test_cover_size_values():
    assert cover_size(26, 26) == math.comb(26, 13) == 10400600
    assert cover_size(8, 4) == 36
    assert cover_size(2, 2) == 2
    assert cover_size(12, 4) == 216
    assert cover_size(12, 6) == 400
    assert cover_size(4, 2) == 4
    assert cover_size(6, 2) == 8
    assert cover_size(10, 4) == 6 * 6 * 2


def test_downset_count_values():
    assert downset_count_formula(26, 26) == (1 << 14) - 1 == 16383
    assert downset_count_formula(8, 4) == 49
    assert downset_count_formula(2, 2) == 3
    assert downset_count_formula(12, 6) == 225
    assert downset_count_formula(12, 4) == 343
    p = BlockPartition.contiguous(8, 4)
    assert downset_count_formula(p.n, p.k) == 49
    member = member_by_index(p, 0)
    assert downset_count_formula(member.partition.n, member.partition.k) == 49


def test_member_by_index_two_node_canonical_order():
    p = BlockPartition.contiguous(2, 2)
    assert member_by_index(p, 0).splits == (NodeSet.of(0),)
    assert member_by_index(p, 1).splits == (NodeSet.of(1),)
    with pytest.raises(IndexOutOfRangeError):
        member_by_index(p, 2)
    with pytest.raises(IndexOutOfRangeError):
        member_by_index(p, -1)


def test_member_indexing_block_zero_most_significant():
    p = BlockPartition.contiguous(4, 2)
    splits = [member_by_index(p, i).splits for i in range(4)]
    assert splits == [
        (NodeSet.of(0), NodeSet.of(2)),
        (NodeSet.of(0), NodeSet.of(3)),
        (NodeSet.of(1), NodeSet.of(2)),
        (NodeSet.of(1), NodeSet.of(3)),
    ]


def test_split_slot_positions_colex_then_second_half():
    assert [split_slot_positions(4, d) for d in range(6)] == [
        [0, 1, 2, 3],
        [0, 2, 1, 3],
        [1, 2, 0, 3],
        [0, 3, 1, 2],
        [1, 3, 0, 2],
        [2, 3, 0, 1],
    ]
    assert [split_slot_positions(3, d) for d in range(3)] == [
        [0, 1, 2],
        [0, 2, 1],
        [1, 2, 0],
    ]
    with pytest.raises(IndexOutOfRangeError):
        split_slot_positions(4, 6)


@pytest.mark.parametrize("n,k", [(5, 2), (10, 4), (12, 6)])
def test_split_slot_positions_give_downset_index_slots(n, k):
    p = BlockPartition.shuffled(n, k, 3)
    for idx in range(cover_size(n, k)):
        member = member_by_index(p, idx)
        rest = idx
        digits = []
        for block in reversed(p.blocks):
            radix = math.comb(len(block), (len(block) + 1) // 2)
            digits.append(rest % radix)
            rest //= radix
        slots = []
        for block, digit in zip(p.blocks, reversed(digits)):
            elems = list(block)
            slots.extend(elems[q] for q in split_slot_positions(len(elems), digit))
        assert tuple(slots) == DownsetIndex(member).nodes


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (8, 4), (12, 4), (12, 6)])
def test_member_roundtrip_and_distinctness(n, k):
    p = BlockPartition.contiguous(n, k)
    seen = set()
    for idx in range(cover_size(n, k)):
        member = member_by_index(p, idx)
        assert index_of_member(member) == idx
        key = tuple(s.bits for s in member.splits)
        assert key not in seen
        seen.add(key)
    assert len(seen) == cover_size(n, k)


def test_member_predecessors_and_pairs(demo_member):
    # Second-half nodes are preceded by their block's whole first half.
    assert predecessors(demo_member, 0) == NodeSet.of(2, 3)
    assert predecessors(demo_member, 4) == NodeSet.of(6, 7)
    assert predecessors(demo_member, 2) == NodeSet(0)
    assert set(pairs(demo_member)) == {(2, 0), (2, 1), (3, 0), (3, 1), (6, 4), (6, 5), (7, 4), (7, 5)}


def test_member_relation_irreflexive_and_transitive():
    for n, k in ((6, 2), (8, 4), (6, 6)):
        p = BlockPartition.contiguous(n, k)
        for idx in range(cover_size(n, k)):
            member = member_by_index(p, idx)
            relation = set(pairs(member))
            assert all(a != b for a, b in relation)
            for (a, b), (c, d) in itertools.product(relation, repeat=2):
                if b == c:
                    assert (a, d) in relation


def test_is_downset_examples(demo_member):
    assert is_downset(demo_member, NodeSet.of(2, 3, 6, 7))
    assert not is_downset(demo_member, NodeSet.of(0))
    assert is_downset(demo_member, NodeSet(0))
    assert is_downset(demo_member, NodeSet.full(8))


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (8, 4), (10, 4)])
def test_is_downset_matches_brute_closure(n, k):
    p = BlockPartition.contiguous(n, k)
    rng = rng_for(0, "downset-brute", n, k)
    for idx in rng.choice(cover_size(n, k), size=min(6, cover_size(n, k)), replace=False):
        member = member_by_index(p, int(idx))
        for bits in range(1 << n):
            assert is_downset(member, bits) == brute_is_downset(member, bits)


def test_downset_index_single_pair_block():
    p = BlockPartition.contiguous(2, 2)
    member = member_by_index(p, 0)  # split {0}
    idx = DownsetIndex(member)
    assert idx.size == 3
    decoded = [downset_by_index(idx, i) for i in range(3)]
    assert decoded == [NodeSet(0), NodeSet.of(0), NodeSet.of(0, 1)]
    for i in range(3):
        assert index_of_downset(idx, decoded[i]) == i
    with pytest.raises(NotADownsetError):
        index_of_downset(idx, NodeSet.of(1))
    with pytest.raises(IndexOutOfRangeError):
        downset_by_index(idx, 3)


def test_downset_index_exhaustive_on_demo_member(demo_member):
    idx = DownsetIndex(demo_member)
    assert idx.size == 49
    seen = set()
    for i in range(49):
        s = downset_by_index(idx, i)
        assert is_downset(demo_member, s)
        assert index_of_downset(idx, s) == i
        seen.add(s.bits)
    brute = {b for b in range(1 << 8) if brute_is_downset(demo_member, b)}
    assert seen == brute


def test_downset_index_removable_elements(demo_member):
    # Full block: only the second half is removable...
    assert removable_elements(demo_member, NodeSet.of(2, 3, 0)) == NodeSet.of(0)
    # ...until the second half is gone, then the first half opens up.
    assert removable_elements(demo_member, NodeSet.of(2, 3)) == NodeSet.of(2, 3)
    assert removable_elements(demo_member, NodeSet(0)) == NodeSet(0)
    full = NodeSet.full(8)
    assert removable_elements(demo_member, full) == NodeSet.of(0, 1, 4, 5)


def test_downset_index_edges_connect_the_lattice(demo_member):
    idx = DownsetIndex(demo_member)
    edges = idx.edges()
    assert len(edges) == 49
    for i, links in enumerate(edges):
        s = downset_by_index(idx, i)
        removable = removable_elements(demo_member, s)
        assert [e for e, _ in links] == sorted(removable)
        for elem, child in links:
            assert downset_by_index(idx, child) == s.remove(elem)
    # Every nonempty downset has at least one removable element.
    assert all(links for i, links in enumerate(edges) if i != index_of_downset(idx, 0))


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_downset_removal_keeps_downsets(seed):
    rng = rng_for(seed, "removal")
    n = int(rng.integers(2, 11))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    p = BlockPartition.contiguous(n, k)
    member = member_by_index(p, int(rng.integers(cover_size(n, k))))
    idx = DownsetIndex(member)
    i = int(rng.integers(idx.size))
    s = downset_by_index(idx, i)
    for elem in removable_elements(member, s):
        assert is_downset(member, s.remove(elem))
    for elem in s:
        if elem not in removable_elements(member, s):
            assert not is_downset(member, s.remove(elem))


def brute_downsets_in_index_order(member: CoverMember) -> list[int]:
    """Every downset, enumerated per block and combined block 0 first.

    Per block: the downward-closed subsets that miss the second half,
    then those that touch it, each group bitmask-ascending.
    """
    per_block = []
    for block, split in zip(member.partition.blocks, member.splits):
        subsets = [
            sum(1 << e for e in combo)
            for r in range(len(block) + 1)
            for combo in itertools.combinations(list(block), r)
        ]
        closed = [b for b in subsets if brute_is_downset(member, b)]
        second = block.bits & ~split.bits
        per_block.append(
            sorted(b for b in closed if not b & second)
            + sorted(b for b in closed if b & second)
        )
    return [sum(parts) for parts in itertools.product(*per_block)]


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("n,k", [(2, 2), (8, 4), (9, 4), (10, 6), (12, 4)])
def test_template_slot_masks_match_brute_downsets(n, k, shuffled):
    if shuffled:
        partition = BlockPartition.shuffled(n, k, seed=n * 10 + k)
    else:
        partition = BlockPartition.contiguous(n, k)
    template = LatticeTemplate(n, k)
    assert template.size == downset_count_formula(n, k)
    for m in range(cover_size(n, k)):
        member = member_by_index(partition, m)
        nodes = DownsetIndex(member).nodes
        mapped = np.zeros(template.size, dtype=np.int64)
        for slot, node in enumerate(nodes):
            mapped |= ((template.masks >> slot) & 1) << node
        assert mapped.tolist() == brute_downsets_in_index_order(member)


@pytest.mark.parametrize(
    "n,k", [(2, 2), (5, 2), (7, 2), (8, 4), (9, 4), (11, 6), (13, 4), (15, 8), (16, 16)]
)
def test_edge_count_formula_matches_template(n, k):
    template = LatticeTemplate(n, k)
    assert len(template.edge_slot) == lattice_edge_count_formula(n, k)
    # Each edge has its own cell, and the cells fill rows 0..E-1.
    assert sorted(template.edge_cell.tolist()) == list(range(len(template.edge_slot)))
    assert template.sink_row == len(template.edge_slot)


@pytest.mark.parametrize("n,k", [(2, 2), (5, 2), (9, 4), (11, 6), (13, 4)])
def test_edge_cells_follow_the_slot_groups(n, k):
    # The cell of an edge removing slot j from c + {j} is, within j's
    # (block, half) group, at (place of j, c's own trace without j, c's
    # other-block downset), other blocks in block order.  Groups are stacked
    # by block size, then half, then block.
    template = LatticeTemplate(n, k)
    starts, row = {}, 0
    for size in sorted(set(template.block_sizes)):
        for half in (0, 1):
            for t, (s, h) in enumerate(zip(template.block_sizes, template.halves)):
                places = s - h if half else h
                if s == size and places:
                    starts[t, half] = row
                    row += (places << (places - 1)) * template.cell_stride[t]
    assert row == len(template.edge_slot)
    edges = np.arange(len(template.edge_slot))
    for e in edges[:: max(1, len(edges) // 200)]:
        j, child = int(template.edge_slot[e]), int(template.edge_child[e])
        t = max(u for u, offset in enumerate(template.offsets) if offset <= j)
        q, h, s = j - template.offsets[t], template.halves[t], template.block_sizes[t]
        digits = [(child // w) % r for w, r in zip(template.weights, template.radices)]
        trace = int(template.local_traces(t)[digits[t]])
        half = int(q >= h)
        part, bits, place = (trace >> h, s - h, q - h) if half else (trace, h, q)
        own = [b for b in range(bits) if b != place]
        rank = sum(((part >> b) & 1) << i for i, b in enumerate(own))
        other = 0
        for u, r in enumerate(template.radices):
            if u != t:
                other = other * r + digits[u]
        row = (place << len(own)) + rank
        assert template.edge_cell[e] == starts[t, half] + row * template.cell_stride[t] + other


def test_lattice_template_is_cached_per_shape_and_read_only():
    lattice_template.cache_clear()
    template = lattice_template(9, 4)
    assert lattice_template(9, 4) is template
    assert lattice_template(9, 2) is not template
    arrays = [template.masks, template.order, template.position, template.edge_ptr,
              template.edge_slot, template.edge_child, template.edge_cell,
              *template.slot_of, *template.own_cells]
    arrays += [array for step in template.padded_steps for array in step]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # Members of every partition of the shape share it.
    member = member_by_index(BlockPartition.shuffled(9, 4, seed=1), 5)
    assert DownsetIndex(member).template is template


def test_kept_templates_are_bounded_by_their_build_bytes():
    # lattice_template keeps every shape whose build takes at most 256 KiB,
    # with no count; build bytes grow with n, so no shape past n = 16 is
    # kept, and these 45 bound what the cache can ever hold.
    kept = [
        (n, k)
        for n in range(1, 65)
        for k in range(2, n + 1, 2)
        if lattice_build_bytes(n, k) <= 1 << 18
    ]
    assert len(kept) == 45
    assert max(n for n, _ in kept) == 16
    assert sum(lattice_build_bytes(n, k) for n, k in kept) == 5_321_736  # 5.1 MiB
    lattice_template.cache_clear()
    assert lattice_template(16, 8) is lattice_template(16, 8)


def reference_layers(template: LatticeTemplate):
    """The covering edges as the sort-based build made them before the
    template placed each edge directly: every (parent, slot, child) triple,
    then one lexsort by (parent position, slot).  Per cardinality layer,
    each downset's edge list is padded with its last edge to the layer's
    longest list, one row per list place."""
    size = template.size
    n = template.n
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
    parent, slot, child = map(np.concatenate, (parents, slots, children))
    by_position = np.lexsort((slot, position[parent]))
    edge_slot, edge_child = slot[by_position], child[by_position]
    edge_ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(position[parent], minlength=size), out=edge_ptr[1:])
    layer_ptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(cardinality, minlength=n + 1), out=layer_ptr[1:])
    steps = []
    for c in range(1, n + 1):
        lo, hi = int(layer_ptr[c]), int(layer_ptr[c + 1])
        lists = [range(edge_ptr[p], edge_ptr[p + 1]) for p in range(lo, hi)]
        rows = [[e[min(j, len(e) - 1)] for e in lists] for j in range(max(map(len, lists)))]
        steps.append((order[lo:hi], np.array(rows, dtype=np.int32)))
    return order, position, edge_ptr, edge_slot, edge_child, steps


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "n,k,seed",
    [(2, 2, None), (5, 2, 1), (8, 4, None), (9, 4, 2), (10, 6, 3), (12, 4, 4),
     (13, 4, None), (15, 8, 5), (16, 16, None), (11, 2, 6)],
)
def test_template_edges_match_sort_based_reference(n, k, seed):
    if seed is None:
        partition = BlockPartition.contiguous(n, k)
    else:
        partition = BlockPartition.shuffled(n, k, seed)
    template = LatticeTemplate(n, k)
    order, position, edge_ptr, edge_slot, edge_child, steps = reference_layers(template)
    for name, want in [("order", order), ("position", position), ("edge_ptr", edge_ptr),
                       ("edge_slot", edge_slot), ("edge_child", edge_child)]:
        assert same_array(getattr(template, name), want), name
    assert len(template.padded_steps) == len(steps)
    for got, want in zip(template.padded_steps, steps):
        assert all(same_array(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n,k", [(20, 2), (16, 4)])
def test_template_build_peak_within_counted_bytes(n, k):
    tracemalloc.start()
    try:
        LatticeTemplate(n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= lattice_build_bytes(n, k)


def test_covering_member_demo_order(demo_partition, demo_order, demo_member):
    assert covering_member(demo_partition, demo_order) == demo_member
    assert extended_by(demo_member, demo_order)


def test_covering_member_identity_order_takes_low_indices():
    p = BlockPartition.contiguous(6, 2)
    member = covering_member(p, LinearOrder((0, 1, 2, 3, 4, 5)))
    assert member.splits == (NodeSet.of(0), NodeSet.of(2), NodeSet.of(4))


@given(st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_cover_property_sampled(seed):
    rng = rng_for(seed, "cover-property")
    n = int(rng.integers(2, 13))
    choices = [e for e in (2, 4, 6) if e <= n]
    k = int(rng.choice(choices))
    p = BlockPartition.contiguous(n, k)
    order = LinearOrder(tuple(int(v) for v in rng.permutation(n)))
    member = covering_member(p, order)
    assert extended_by(member, order)
    assert index_of_member(member) < cover_size(n, k)


def test_extended_by_detects_violations(demo_member):
    bad = LinearOrder((0, 1, 2, 3, 4, 5, 6, 7))  # 0 before its required {2,3}
    assert not extended_by(demo_member, bad)


def test_huge_report_sizes_do_not_build_partitions():
    # Formula-only paths must work far beyond the instance-size cap.
    assert downset_count_formula(48, 4) == 7**12
    assert cover_size(48, 4) == 6**12
    assert downset_count_formula(52, 26) == 16383**2
    assert cover_size(52, 26) == 10400600**2
    assert lattice_edge_count_formula(12, 4) == 1176
    assert lattice_edge_count_formula(28, 2) == 44_641_044
