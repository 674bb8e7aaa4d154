"""Node sets, score tables, DAG plumbing, and the best-parents scan."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl.instance import (
    MAX_NODES,
    _sink_first_order,
    CyclicGraphError,
    Dag,
    LocalScoreTable,
    MissingParentSetError,
    NodeSet,
    best_parents_in,
    choose_parents,
    is_acyclic,
    total_score,
)
from qbnsl.tables import random_table
from reference import (
    LinearOrder,
    contains,
    prefixes,
    scan_best_parents,
    sorted_remaining_order,
    topological_order,
)

EMPTY_SET = NodeSet(0)

node_sets = st.integers(min_value=0, max_value=(1 << 12) - 1).map(NodeSet)


def test_nodeset_constructors_agree():
    assert NodeSet.of(0, 3) == NodeSet.from_nodes([3, 0]) == NodeSet(0b1001)
    assert NodeSet((1 << 4) - 1) == NodeSet.of(0, 1, 2, 3)
    assert NodeSet.of() == EMPTY_SET
    assert list(NodeSet.of(2, 5, 9)) == [2, 5, 9]


def test_nodeset_rejects_negative_nodes():
    with pytest.raises(ValueError):
        NodeSet.of(-1)
    with pytest.raises(ValueError):
        NodeSet(-3)


@given(node_sets, node_sets, st.integers(min_value=-1, max_value=12))
def test_nodeset_algebra_matches_frozenset(a: NodeSet, b: NodeSet, v: int):
    fa, fb = (frozenset(j for j in range(12) if s.bits >> j & 1) for s in (a, b))
    assert frozenset(a - b) == fa - fb
    assert a.issubset(b) == (fa <= fb)
    assert len(a) == len(fa)
    assert list(a) == sorted(fa)
    assert (v in a) == (v in fa)
    assert bool(a) == bool(fa)


def test_nodeset_repr_is_evaluable():
    s = NodeSet.of(1, 4)
    assert repr(s) == "NodeSet.of(1, 4)"
    assert repr(EMPTY_SET) == "NodeSet()"


def test_table_requires_empty_parent_set():
    with pytest.raises(ValueError, match="empty parent set"):
        LocalScoreTable(2, [{1 << 1: 0.5}, {0: 0.0}])


def test_table_rejects_self_parent():
    with pytest.raises(ValueError, match="own parent"):
        LocalScoreTable(2, [{0: 0.0, 1 << 0: 1.0}, {0: 0.0}])


def test_table_rejects_out_of_range_mask():
    with pytest.raises(ValueError, match="out of range"):
        LocalScoreTable(2, [{0: 0.0, 1 << 5: 1.0}, {0: 0.0}])


def test_table_rejects_bad_size():
    with pytest.raises(ValueError):
        LocalScoreTable(0, [])
    with pytest.raises(ValueError):
        LocalScoreTable(MAX_NODES + 1, [{0: 0.0}] * (MAX_NODES + 1))


def test_table_items_sorted_by_cardinality_then_mask():
    t = LocalScoreTable(
        3, [{0: 0.0, 0b110: 1.0, 0b010: 2.0, 0b100: 3.0}, {0: 0.0}, {0: 0.0}]
    )
    assert [m for m, _ in t.items(0)] == [0, 0b010, 0b100, 0b110]


def test_table_equality_ignores_names():
    entries = [{0: 0.1}, {0: 0.2, 1: 0.3}]
    a = LocalScoreTable(2, entries, names=("A", "B"))
    b = LocalScoreTable(2, entries, names=("X", "Y"))
    c = LocalScoreTable(2, [{0: 0.1}, {0: 0.9, 1: 0.3}])
    assert a == b
    assert a != c


def test_table_is_immutable():
    t = LocalScoreTable(1, [{0: 0.0}])
    with pytest.raises(AttributeError):
        t.n = 2


def test_table_score_and_missing_entry():
    t = LocalScoreTable(2, [{0: -1.5, 0b10: -1.0}, {0: -2.0}])
    assert t.score(0, NodeSet.of(1)) == -1.0
    with pytest.raises(MissingParentSetError) as err:
        t.score(1, NodeSet.of(0))
    assert err.value.node == 1
    assert err.value.parents == NodeSet.of(0)
    # A mask is a NodeSet or an integer; a float, even a whole one, is not
    # truncated to one (int(2.7) would read the entry of {1}).
    for mask in (NodeSet.of(1), 2, np.int64(2), np.uint8(2)):
        assert t.score(0, mask) == -1.0
        assert best_parents_in(t, 0, mask) == (-1.0, NodeSet.of(1))
    for mask in (2.0, 2.7, np.float64(2.0)):
        with pytest.raises(TypeError):
            t.score(0, mask)
        with pytest.raises(TypeError):
            best_parents_in(t, 0, mask)


@pytest.mark.parametrize("bad", [-1, -2, 2, 3])
def test_table_reads_reject_nodes_outside_the_table(bad):
    t = LocalScoreTable(2, [{0: -1.5, 0b10: -1.0}, {0: -2.0, 0b01: -0.5}])
    reads = [t.items, t.set_count, lambda i: t.score(i, 0), lambda i: best_parents_in(t, i, 0)]
    for read in reads:
        with pytest.raises(ValueError, match=f"node index {bad} out of range"):
            read(bad)
    # A rejected read changes nothing: both nodes still read their own entries.
    assert t.items(1) == ((0, -2.0), (1, -0.5)) and t.set_count(1) == 2
    assert t.score(1, 0b01) == -0.5 and contains(t, 0, 0b10)
    assert total_score(Dag.from_masks(2, [0, 0b01]), t) == -2.0


def relabel(table, perm):
    """Rename node i to perm[i] everywhere; scores are carried along."""
    entries = [{} for _ in range(table.n)]
    for i in range(table.n):
        for mask, score in table.items(i):
            entries[perm[i]][sum(1 << perm[j] for j in NodeSet(mask))] = score
    return LocalScoreTable(table.n, entries)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_table_relabel_roundtrips(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 6))
    t = random_table(rng, n)
    perm = data.draw(st.permutations(range(n)))
    back = [0] * n
    for i, p in enumerate(perm):
        back[p] = i
    assert relabel(relabel(t, perm), back) == t


def test_dag_arcs_and_count(demo_dag: Dag):
    assert len(list(demo_dag.arcs())) == 10
    assert (3, 2) in list(demo_dag.arcs())
    assert all(0 <= p < 8 and 0 <= c < 8 for p, c in demo_dag.arcs())


def test_linear_order_validation_and_queries():
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))
    order = LinearOrder((2, 0, 1))
    assert order.positions() == (1, 2, 0)
    assert dict(prefixes(order))[1] == NodeSet.of(0, 2)
    assert list(prefixes(order))[0] == (2, EMPTY_SET)


def test_is_acyclic_basics(demo_dag: Dag):
    assert is_acyclic(demo_dag)
    two_cycle = Dag.from_masks(2, [0b10, 0b01])
    assert not is_acyclic(two_cycle)
    self_loop = Dag.from_masks(1, [0b1])
    assert not is_acyclic(self_loop)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sink_first_walk_matches_sorted_remaining_walk(data):
    # Sparse random parent masks, self-loops allowed: acyclic and cyclic
    # graphs both come up often.
    n = data.draw(st.integers(1, 9))
    nodes = st.lists(st.integers(0, n - 1), max_size=2, unique=True)
    bits = nodes.map(lambda v: sum(1 << i for i in v))
    dag = Dag.from_masks(n, data.draw(st.lists(bits, min_size=n, max_size=n)))
    assert _sink_first_order(dag) == sorted_remaining_order(dag)


def test_topological_order_chain_and_tiebreak():
    chain = Dag.from_masks(3, [0, 0b001, 0b010])
    assert topological_order(chain).perm == (0, 1, 2)
    empty = Dag.from_masks(3, [0, 0, 0])
    assert topological_order(empty).perm == (0, 1, 2)
    with pytest.raises(CyclicGraphError):
        topological_order(Dag.from_masks(2, [0b10, 0b01]))


def test_topological_order_respects_parents(demo_dag: Dag):
    before = dict(prefixes(topological_order(demo_dag)))
    for i in range(demo_dag.n):
        assert demo_dag.parents[i].issubset(before[i])


def test_total_score_two_term_sum():
    t = LocalScoreTable(2, [{0: 0.0, 0b10: 5.0}, {0: 1.0}])
    dag = Dag.from_masks(2, [0b10, 0])
    assert total_score(dag, t) == 6.0


def test_total_score_empty_dag_is_zero():
    t = LocalScoreTable(3, [{0: 0.0}] * 3)
    assert total_score(Dag.from_masks(3, [0, 0, 0]), t) == 0.0


def test_total_score_single_contributing_node(demo_dag: Dag):
    entries = [{0: 0.0, demo_dag.parents[i].bits: 0.0} for i in range(8)]
    entries[5][demo_dag.parents[5].bits] = 1.0
    t = LocalScoreTable(8, entries)
    assert total_score(demo_dag, t) == 1.0


def test_total_score_rejects_cycles_and_missing_sets():
    t = LocalScoreTable(2, [{0: 0.0}, {0: 0.0}])
    with pytest.raises(CyclicGraphError):
        total_score(Dag.from_masks(2, [0b10, 0b01]), t)
    with pytest.raises(MissingParentSetError):
        total_score(Dag.from_masks(2, [0b10, 0]), t)


def test_best_parents_ties_prefer_small_cardinality_then_mask():
    t = LocalScoreTable(
        3, [{0: 1.0, 0b010: 1.0, 0b100: 1.0, 0b110: 1.0}, {0: 0.0}, {0: 0.0}]
    )
    score, parents = best_parents_in(t, 0, NodeSet.of(1, 2))
    assert score == 1.0 and parents == EMPTY_SET
    t2 = LocalScoreTable(3, [{0: 0.0, 0b010: 1.0, 0b100: 1.0}, {0: 0.0}, {0: 0.0}])
    _, parents2 = best_parents_in(t2, 0, NodeSet.of(1, 2))
    assert parents2 == NodeSet.of(1)


def test_best_parents_requires_exclusion_of_self():
    t = LocalScoreTable(2, [{0: 0.0}, {0: 0.0}])
    with pytest.raises(ValueError):
        best_parents_in(t, 0, NodeSet.of(0, 1))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_best_parents_monotone_in_allowed(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 6))
    t = random_table(rng, n)
    i = data.draw(st.integers(0, n - 1))
    full = ((1 << n) - 1) ^ (1 << i)
    small = data.draw(st.integers(0, full)) & full
    big = (data.draw(st.integers(0, full)) & full) | small
    assert best_parents_in(t, i, small)[0] <= best_parents_in(t, i, big)[0]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_order_relaxation_dominates_any_consistent_dag(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 5))
    t = random_table(rng, n, max_sets=4)
    # Any DAG is dominated, order by order: summing per-prefix best scores
    # along one of its topological orders can only increase the total.
    from qbnsl.dp_exact import enumerate_dags

    for dag in itertools.islice(enumerate_dags(t), 50):
        order = topological_order(dag)
        relaxed = sum(
            best_parents_in(t, node, preds)[0] for node, preds in prefixes(order)
        )
        assert relaxed >= total_score(dag, t) - 1e-12


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_total_score_invariant_under_relabeling(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 6))
    t = random_table(rng, n, max_sets=5)
    perm = data.draw(st.permutations(range(n)))
    order = LinearOrder(tuple(perm))
    parents = [best_parents_in(t, node, preds)[1] for node, preds in prefixes(order)]
    by_node = [EMPTY_SET] * n
    for (node, _), p in zip(prefixes(order), parents):
        by_node[node] = p
    dag = Dag(n, tuple(by_node))
    relabeling = data.draw(st.permutations(range(n)))
    relabeled_dag = Dag(
        n,
        tuple(
            NodeSet.from_nodes(relabeling[p] for p in by_node[i])
            for i in range(n)
        ),
    )
    # Reorder parent assignments to the new labels.
    arranged = [EMPTY_SET] * n
    for i in range(n):
        arranged[relabeling[i]] = relabeled_dag.parents[i]
    assert total_score(Dag(n, tuple(arranged)), relabel(t, relabeling)) == pytest.approx(
        total_score(dag, t), abs=1e-12
    )


# Reference: the dict/tuple table that the flat sorted arrays replaced.  Its
# reads, order, equality and every constructor error must match the array
# table's.


class DictScoreTable:
    def __init__(self, n, entries, names=None):
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"n must be in 1..{MAX_NODES}, got {n}")
        if len(entries) != n:
            raise ValueError(f"expected {n} per-node entries, got {len(entries)}")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("names length must equal n")
            if len(set(names)) != n:
                raise ValueError("variable names must be unique")
        self.n, self.names, self.maps = n, names, []
        for i, node_entries in enumerate(entries):
            cleaned = {}
            for key, score in node_entries.items():
                mask = key.bits if isinstance(key, NodeSet) else int(key)
                if not 0 <= mask < 1 << n:
                    raise ValueError(f"parent set {mask:#x} out of range for n={n}")
                if (mask >> i) & 1:
                    raise ValueError(f"node {i} cannot be its own parent")
                cleaned[mask] = float(score)
            if 0 not in cleaned:
                raise ValueError(f"node {i} is missing the empty parent set")
            self.maps.append(cleaned)
        self.sorted = [
            tuple(sorted(m.items(), key=lambda kv: (kv[0].bit_count(), kv[0])))
            for m in self.maps
        ]

    @property
    def total_entries(self):
        return sum(len(m) for m in self.maps)

    def set_count(self, i):
        return len(self.maps[i])

    def items(self, i):
        return self.sorted[i]

    def contains(self, i, parents):
        return int(parents) in self.maps[i]

    def score(self, i, parents):
        try:
            return self.maps[i][int(parents)]
        except KeyError:
            raise MissingParentSetError(i, NodeSet(int(parents))) from None

    def __eq__(self, other):
        return self.n == other.n and self.maps == other.maps


def _draw_entries(data, n, tie_heavy):
    """Per-node mappings with int and NodeSet keys (one set may appear as
    both, the later key winning), tie-heavy integer or -inf scores."""
    scores = (
        st.sampled_from([-1.0, 0.0, 1.0, float("-inf")])
        if tie_heavy
        else st.floats(-1e6, 1e6, allow_nan=False) | st.just(float("-inf"))
    )
    entries = []
    for i in range(n):
        others = ((1 << n) - 1) ^ (1 << i)
        node = {0: data.draw(scores)}
        for mask in data.draw(st.lists(st.integers(0, others), max_size=12)):
            mask &= others
            key = NodeSet(mask) if data.draw(st.booleans()) else mask
            node[key] = data.draw(scores)
        entries.append(node)
    return entries


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_array_table_matches_dict_reference(data):
    n = data.draw(st.integers(1, 7))
    tie_heavy = data.draw(st.booleans())
    entries = _draw_entries(data, n, tie_heavy)
    names = tuple(f"V{i}" for i in range(n)) if data.draw(st.booleans()) else None
    got, want = LocalScoreTable(n, entries, names), DictScoreTable(n, entries, names)
    assert got.names == want.names
    assert got.total_entries == want.total_entries
    assert type(got.total_entries) is int
    for i in range(n):
        assert got.items(i) == want.items(i)
        assert got.set_count(i) == want.set_count(i)
        for mask in range(1 << n):
            assert contains(got, i, mask) == want.contains(i, mask)
            if want.contains(i, mask):
                assert got.score(i, NodeSet(mask)) == want.score(i, mask)
            else:
                with pytest.raises(MissingParentSetError):
                    got.score(i, mask)
            if not mask >> i & 1:
                assert best_parents_in(got, i, mask) == scan_best_parents(want, i, mask)
    other = _draw_entries(data, n, tie_heavy)
    assert (LocalScoreTable(n, other) == got) == (DictScoreTable(n, other) == want)
    assert LocalScoreTable(n, entries, None) == got
    dag = Dag.from_masks(n, [0] * n)
    assert total_score(dag, got) == total_score(dag, want)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_choose_parents_matches_the_per_entry_scan(data):
    # Random or tie-heavy scores, -inf among them, and allowed masks with
    # bits at and above n, which no entry holds.
    n = data.draw(st.integers(1, 8))
    t = LocalScoreTable(n, _draw_entries(data, n, data.draw(st.booleans())))
    masks = st.lists(st.integers(0, (1 << 62) - 1), min_size=n, max_size=n)
    rows = [
        [mask & ~(1 << i) for i, mask in enumerate(row)]
        for row in data.draw(st.lists(masks, min_size=1, max_size=4))
    ]
    totals, entry = choose_parents(t, np.array(rows, dtype=np.int64))
    assert totals.shape == (len(rows),) and entry.shape == (len(rows), n)
    for b, row in enumerate(rows):
        want = [scan_best_parents(t, i, row[i]) for i in range(n)]
        assert [(t.scores[e], NodeSet(int(t.masks[e]))) for e in entry[b]] == want
        assert repr(totals[b]) == repr(np.float64(sum(score for score, _ in want)))
        for i in range(n):
            assert best_parents_in(t, i, row[i]) == want[i]
            assert best_parents_in(t, i, row[i] | 1 << 70) == want[i]
    i = data.draw(st.integers(0, n - 1))
    for node, mask in ((data.draw(st.sampled_from([-2, -1, n, n + 1])), 0), (i, 1 << i)):
        with pytest.raises(ValueError) as want_error:
            scan_best_parents(t, node, mask)
        with pytest.raises(ValueError) as got_error:
            best_parents_in(t, node, mask)
        assert str(got_error.value) == str(want_error.value)


# (n, entries, names): each row breaks one rule, or two where the first
# broken one in constructor order must win.
BAD_TABLES = [
    (0, [], None),
    (MAX_NODES + 1, [{0: 0.0}] * 2, None),
    (0, [{0: 0.0}], None),
    (2, [{0: 0.0}], None),
    (2, [{0: 0.0}, {0: 0.0}], ("A",)),
    (2, [{0: 0.0}, {0: 0.0}], ("A", "A")),
    (2, [{0: 0.0}, {0: 0.0, 1 << 5: 1.0}], ("A", "A")),
    (2, [{0: 0.0, 1 << 5: 1.0}, {0: 0.0}], None),
    (2, [{0: 0.0, 1 << 70: 1.0}, {0: 0.0}], None),
    (2, [{0: 0.0, -1: 1.0}, {0: 0.0}], None),
    (2, [{0: 0.0, NodeSet(1): 1.0}, {0: 0.0}], None),
    (2, [{0: 0.0, 1: 1.0, 1 << 5: 1.0}, {0: 0.0}], None),
    (2, [{0: 0.0, 1 << 5: 1.0, 1: 1.0}, {0: 0.0}], None),
    (2, [{2: 0.0}, {0: 0.0}], None),
    (2, [{2: 0.0}, {0: 0.0, 2: 1.0}], None),
    (2, [{0: 0.0}, {1: 0.0, 2: 1.0}], None),
    (3, [{0: 0.0}, {4: 0.0}, {0: 0.0, 1 << 40: 1.0}], None),
    (3, [{0: 0.0}, {0: 0.0, 1 << 40: 1.0}, {4: 0.0}], None),
]


@pytest.mark.parametrize("n, entries, names", BAD_TABLES)
def test_constructor_errors_match_dict_reference(n, entries, names):
    with pytest.raises(ValueError) as want:
        DictScoreTable(n, entries, names)
    with pytest.raises(ValueError) as got:
        LocalScoreTable(n, entries, names)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    if 1 <= n <= MAX_NODES and len(entries) == n and all(
        int(key) < 1 << 62 for node in entries for key in node
    ):
        nodes = [i for i, node in enumerate(entries) for _ in node]
        masks = [int(key) for node in entries for key in node]
        scores = [score for node in entries for score in node.values()]
        with pytest.raises(ValueError) as flat:
            LocalScoreTable.from_arrays(n, nodes, masks, scores, names)
        assert str(flat.value) == str(want.value)


# (nodes, masks, scores, message): flat arrays that no dict table can spell.
BAD_FLAT_TABLES = [
    ([0, 1, 2], [0, 0, 0], [0.0, 0.0, 5.0], "entry 2 has node 2, outside 0..1"),
    ([-1, 0, 1], [0, 0, 0], [0.0, 0.0, 0.0], "entry 0 has node -1, outside 0..1"),
    ([0, 1], [0, 0, 0], [0.0, 0.0], "entry 2 lacks a node, mask or score"),
    ([0, 1], [0, 0], [0.0], "entry 1 lacks a node, mask or score"),
    # Not truncated, and not numpy's "ufunc 'right_shift' not supported".
    ([0, 1], [0.0, 0.0], [1.0, 2.0], "entry 0's parent set is 0.0, not an integer"),
    ([0, 1.5], [0, 0], [1.0, 2.0], "entry 1's node is 1.5, not an integer"),
]


@pytest.mark.parametrize("nodes, masks, scores, message", BAD_FLAT_TABLES)
def test_from_arrays_rejects_bad_node_ids_and_lengths(nodes, masks, scores, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LocalScoreTable.from_arrays(2, nodes, masks, scores)


NAN, INF = float("nan"), float("inf")


# (entries, message): the first bad entry in input order names itself, and a
# node's missing empty set counts after its own entries.
NON_FINITE_TABLES = [
    ([{0: 0.0}, {0: 0.0, 1: NAN}], "node 1 parent set 0x1 has score nan"),
    ([{0: 0.0}, {0: 0.0, 1: INF}], "node 1 parent set 0x1 has score inf"),
    ([{0: INF}, {0: NAN}], "node 0 parent set 0x0 has score inf"),
    ([{0: 0.0, 2: NAN, 1: 0.0}, {0: 0.0}], "node 0 parent set 0x2 has score nan"),
    ([{0: 0.0, 1: 0.0, 2: NAN}, {0: 0.0}], "node 0 cannot be its own parent"),
    ([{2: 0.0}, {0: NAN}], "node 0 is missing the empty parent set"),
    ([{0: NAN}, {1: 0.0}], "node 0 parent set 0x0 has score nan"),
]


@pytest.mark.parametrize("entries, message", NON_FINITE_TABLES)
def test_tables_reject_nan_and_positive_infinity(entries, message):
    n = len(entries)
    with pytest.raises(ValueError) as got:
        LocalScoreTable(n, entries)
    assert str(got.value).startswith(message)
    nodes = [i for i, node in enumerate(entries) for _ in node]
    masks = [int(key) for node in entries for key in node]
    scores = [score for node in entries for score in node.values()]
    with pytest.raises(ValueError) as flat:
        LocalScoreTable.from_arrays(n, nodes, masks, scores)
    assert str(flat.value) == str(got.value)


def test_table_rejects_a_fractional_parent_set_key():
    # int() would truncate 2.7 to the mask 2.
    with pytest.raises(ValueError, match=re.escape("entry 1's parent set is 2.7, not an integer")):
        LocalScoreTable(2, [{0: 1.0, 2.7: 3.0}, {0: 0.0}])


@pytest.mark.parametrize("masks", [[2.7, 0, 0], [0, 0, 1.0], [np.float64(2.0), 0, 0], ["2", 0, 0]])
def test_dag_from_masks_rejects_non_integer_masks(masks):
    # int() would truncate 2.7 to {1}, a parent set the caller never gave.
    with pytest.raises(TypeError):
        Dag.from_masks(3, masks)
    assert Dag.from_masks(3, [np.int64(2), NodeSet(1), 0]).parents == (
        NodeSet(2), NodeSet(1), NodeSet(0))


def test_from_arrays_takes_integer_and_bool_arrays():
    want = LocalScoreTable(2, [{0: 1.0}, {0: 2.0, 1: 0.5}])
    for kind in (np.uint8, np.uint64, np.int32, object):
        nodes, masks = np.array([0, 1, 1], dtype=kind), np.array([0, 0, 1], dtype=kind)
        assert LocalScoreTable.from_arrays(2, nodes, masks, [1.0, 2.0, 0.5]) == want
    masks = np.array([False, False, True])
    assert LocalScoreTable.from_arrays(2, [0, 1, 1], masks, [1.0, 2.0, 0.5]) == want


def test_from_arrays_without_entries_misses_the_empty_set():
    with pytest.raises(ValueError) as flat:
        LocalScoreTable.from_arrays(1, [], [], [])
    with pytest.raises(ValueError) as nested:
        LocalScoreTable(1, [{}])
    assert str(flat.value) == str(nested.value) == "node 0 is missing the empty parent set"


def test_tables_allow_negative_infinity():
    entries = [{0: 0.0, 2: -INF}, {0: -1.0, 1: -INF}]
    table = LocalScoreTable(2, entries)
    assert table.scores.tolist() == [0.0, -INF, -1.0, -INF]
    assert table == LocalScoreTable.from_arrays(2, [0, 0, 1, 1], [0, 2, 0, 1], [0.0, -INF, -1.0, -INF])


def test_table_arrays_are_sorted_and_read_only():
    t = LocalScoreTable(
        3, [{0: 0.0, 0b110: 1.0, 0b010: 2.0}, {0b100: 3.0, 0: 0.5}, {0: 0.0}]
    )
    assert t.nodes.tolist() == [0, 0, 0, 1, 1, 2]
    assert t.masks.tolist() == [0, 0b010, 0b110, 0, 0b100, 0]
    assert t.scores.tolist() == [0.0, 2.0, 1.0, 0.5, 3.0, 0.0]
    assert t.offsets.tolist() == [0, 3, 5, 6]
    for array in (t.nodes, t.masks, t.scores, t.offsets):
        with pytest.raises(ValueError):
            array[0] = 1
