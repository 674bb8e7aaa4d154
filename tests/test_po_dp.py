"""Downset-constrained DP: closures, per-downset best parents, member DP."""

from __future__ import annotations

import contextlib
import itertools
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl import po_dp
from qbnsl.bucket_cover import (
    BlockPartition,
    DownsetIndex,
    _kept_templates,
    cover_size,
    lattice_edge_count_formula,
    lattice_template,
    member_by_index,
)
from qbnsl.dp_exact import _dp_plan, _plan_bytes, solve_dp
from qbnsl.grover_sim import MaxOracle, QueryLedger, max_find, quantum_charge
from qbnsl.instance import (
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    NodeSet,
    best_parents_in,
    is_acyclic,
    total_score,
)
from qbnsl.po_dp import (
    COVER_STRATEGIES,
    StrategyUnavailableError,
    downset_best_parents,
    solve_cover,
    solve_member,
)
from qbnsl.seeding import rng_for
from qbnsl.tables import random_table
from reference import (
    LinearOrder,
    downset_by_index,
    extended_by,
    index_of_downset,
    is_downset,
    ledger_counts,
    member_optima,
    prefixes,
    scan_best_parents,
)


def random_member(rng, n, k):
    partition = BlockPartition.contiguous(n, k)
    return member_by_index(partition, int(rng.integers(cover_size(n, k))))


# Pure-Python references: the downward closure of a parent set, the
# per-edge sweep with (cardinality, bitmask) argmax bookkeeping and the
# per-member DP that the numpy template path replaced.  The library must
# reproduce their values and witnesses exactly.


def downward_closure(member, parents):
    """Smallest downset of the member's order containing ``parents``.

    Blockwise: whenever the set touches a block's second half, the block's
    entire first half is pulled in; nothing else is added.
    """
    bits = int(parents)
    if bits >> member.partition.n:
        raise ValueError("parents reference nodes outside the partition")
    for t, block in enumerate(member.partition.blocks):
        split = member.splits[t].bits
        if bits & (block.bits & ~split):
            bits |= split
    return NodeSet(bits)


def _tighter(mask_a, mask_b):
    return (mask_a.bit_count(), mask_a) < (mask_b.bit_count(), mask_b)


def reference_best_parents(table, member, index):
    """(values, argmax) per node and downset, by one cardinality sweep."""
    order = index.by_cardinality()
    edges = index.edges()
    values, argmax = [], []
    for i in range(table.n):
        vals = [float("-inf")] * index.size
        args = [0] * index.size
        for mask, score in table.items(i):
            d = index_of_downset(index, downward_closure(member, mask))
            if score > vals[d] or (score == vals[d] and _tighter(mask, args[d])):
                vals[d] = score
                args[d] = mask
        for d, _mask in order:
            best_v, best_a = vals[d], args[d]
            for _elem, child in edges[d]:
                cv = vals[child]
                if cv > best_v or (
                    cv == best_v and cv != float("-inf") and _tighter(args[child], best_a)
                ):
                    best_v, best_a = cv, args[child]
            vals[d], args[d] = best_v, best_a
        values.append(vals)
        argmax.append(args)
    return values, argmax


def reference_solve_member(table, member):
    """Downset DP with first-strict-max sinks over ascending elements."""
    index = DownsetIndex(member)
    values, argmax = reference_best_parents(table, member, index)
    edges = index.edges()
    value = [float("-inf")] * index.size
    value[0] = 0.0
    sink = [-1] * index.size
    for d, _mask in index.by_cardinality():
        if d == 0:
            continue
        for elem, child in edges[d]:
            cand = value[child] + values[elem][child]
            if cand > value[d]:
                value[d], sink[d] = cand, elem
    parents = [NodeSet(0)] * table.n
    mask = (1 << table.n) - 1
    d = index_of_downset(index, mask)
    while mask:
        i = sink[d]
        mask ^= 1 << i
        d = index_of_downset(index, mask)
        parents[i] = NodeSet(argmax[i][d])
    dag = Dag(table.n, tuple(parents))
    return total_score(dag, table), dag


def reference_solve_cover(results, strategy, seed):
    """classical-scan or grover-sim over per-member reference results."""
    members = len(results)
    ledger = QueryLedger()
    for _ in results:
        ledger.count_classical()
    if strategy == "classical-scan":
        best = results[0]
        for result in results[1:]:
            if result[0] > best[0]:
                best = result
        return best[0], best[1], ledger
    oracle = MaxOracle(members, [r[0] for r in results].__getitem__, ledger)
    best_idx, _, _ = max_find(oracle, members, "sim", rng_seed=seed, repetitions=7)
    ledger.count_classical()
    return results[best_idx][0], results[best_idx][1], ledger


def tie_heavy_table(rng, n):
    """random_table's parent sets with small integer scores, so ties abound."""
    base = random_table(rng, n)
    return LocalScoreTable(
        n,
        [
            {mask: float(rng.integers(-2, 3)) for mask, _ in base.items(i)}
            for i in range(n)
        ],
    )


def with_minus_inf(rng, table):
    """The table with about a fifth of its nonempty parent sets scored -inf."""
    return LocalScoreTable(
        table.n,
        [
            {mask: float("-inf") if mask and rng.random() < 0.2 else score
             for mask, score in table.items(i)}
            for i in range(table.n)
        ],
    )


def test_downward_closure_minimal_rule(demo_member):
    # Only second-half membership pulls in a first half; first-half
    # elements close to themselves.
    assert downward_closure(demo_member, NodeSet.of(7)) == NodeSet.of(7)
    assert downward_closure(demo_member, NodeSet.of(3, 6)) == NodeSet.of(3, 6)
    assert downward_closure(demo_member, NodeSet.of(0)) == NodeSet.of(0, 2, 3)
    assert downward_closure(demo_member, NodeSet.of(4, 5)) == NodeSet.of(4, 5, 6, 7)
    assert downward_closure(demo_member, NodeSet(0)) == NodeSet(0)
    with pytest.raises(ValueError):
        downward_closure(demo_member, NodeSet.of(11))


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_downward_closure_is_minimal_and_idempotent(seed):
    rng = rng_for(seed, "closure")
    n = int(rng.integers(2, 11))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    member = random_member(rng, n, k)
    bits = int(rng.integers(1 << n))
    closed = downward_closure(member, bits)
    assert is_downset(member, closed)
    assert int(closed) & bits == bits
    assert downward_closure(member, closed) == closed
    # Membership transfer: J inside a downset iff its closure is.
    idx = DownsetIndex(member)
    for i in range(idx.size):
        s = int(downset_by_index(idx, i))
        assert (bits & ~s == 0) == (int(closed) & ~s == 0)


def test_downset_best_parents_demo_values(demo_member):
    entries = [{0: 0.0} for _ in range(8)]
    entries[5] = {0: 0.0, 1 << 7: 2.0, (1 << 3) | (1 << 6): 3.0}
    table = LocalScoreTable(8, entries)
    idx = DownsetIndex(demo_member)
    best = downset_best_parents(table, idx)
    def at(subset):
        return index_of_downset(idx, subset)

    assert best.values[5][at(NodeSet.of(6, 7))] == 2.0
    assert best.values[5][at(NodeSet.of(2, 3, 6, 7))] == 3.0
    _, reference_argmax = reference_best_parents(table, demo_member, idx)
    assert reference_argmax[5][at(NodeSet.of(2, 3, 6, 7))] == (1 << 3) | (1 << 6)
    assert best_parents_in(table, 5, NodeSet.of(2, 3, 6, 7))[1] == NodeSet.of(3, 6)
    assert best.values[5][at(NodeSet(0))] == 0.0


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_downset_best_parents_equals_scan_oracle(seed):
    rng = rng_for(seed, "hat-oracle")
    n = int(rng.integers(3, 9))
    k = int(rng.choice([e for e in (2, 4) if e <= n]))
    table = random_table(rng, n)
    member = random_member(rng, n, k)
    idx = DownsetIndex(member)
    best = downset_best_parents(table, idx)
    _, reference_argmax = reference_best_parents(table, member, idx)
    for d in range(idx.size):
        s = int(downset_by_index(idx, d))
        for i in range(n):
            score, parents = scan_best_parents(table, i, s & ~(1 << i))
            assert best.values[i][d] == pytest.approx(score, abs=0)
            assert reference_argmax[i][d] == int(parents)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_downset_best_parents_monotone_along_edges(seed):
    rng = rng_for(seed, "hat-monotone")
    n = int(rng.integers(3, 10))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    table = random_table(rng, n)
    member = random_member(rng, n, k)
    idx = DownsetIndex(member)
    best = downset_best_parents(table, idx)
    for d, links in enumerate(idx.edges()):
        for _, child in links:
            for i in range(n):
                assert best.values[i][child] <= best.values[i][d] + 1e-12


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_downset_best_parents_edge_budget(seed):
    rng = rng_for(seed, "hat-budget")
    n = int(rng.integers(3, 10))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    table = random_table(rng, n)
    member = random_member(rng, n, k)
    idx = DownsetIndex(member)
    best = downset_best_parents(table, idx)
    assert best.edge_visits == n * len(idx.template.edge_child) <= n * n * idx.size


@given(st.integers(0, 2**31), st.booleans(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_template_path_matches_python_reference(seed, tie_heavy, shuffled):
    rng = rng_for(seed, "template-reference")
    n = int(rng.integers(2, 11))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    table = tie_heavy_table(rng, n) if tie_heavy else random_table(rng, n)
    if shuffled:
        partition = BlockPartition.shuffled(n, k, seed)
    else:
        partition = BlockPartition.contiguous(n, k)
    member = member_by_index(partition, int(rng.integers(cover_size(n, k))))
    idx = DownsetIndex(member)
    best = downset_best_parents(table, idx)
    reference_values, _ = reference_best_parents(table, member, idx)
    assert best.values.tolist() == reference_values
    assert solve_member(table, member) == reference_solve_member(table, member)


@given(st.integers(0, 2**31), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=8, deadline=None)
def test_solve_cover_matches_python_reference(seed, tie_heavy, shuffled, minus_inf):
    rng = rng_for(seed, "cover-reference")
    n = int(rng.integers(2, 13))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    table = tie_heavy_table(rng, n) if tie_heavy else random_table(rng, n)
    if minus_inf:
        table = with_minus_inf(rng, table)
    if shuffled:
        partition = BlockPartition.shuffled(n, k, seed)
    else:
        partition = BlockPartition.contiguous(n, k)
    results = [
        reference_solve_member(table, member_by_index(partition, idx))
        for idx in range(cover_size(n, k))
    ]
    # Chunks of one member and of three flush the trace buffer mid-scan.
    row = max(lattice_edge_count_formula(n, k), len(table.scores))
    for chunk in (po_dp._CHUNK_ELEMENTS, 1, 3 * row):
        for strategy in ("classical-scan", "grover-sim"):
            with mock.patch.object(po_dp, "_CHUNK_ELEMENTS", chunk):
                score, dag, ledger = solve_cover(table, partition, strategy, seed=seed)
            ref_score, ref_dag, ref_ledger = reference_solve_cover(results, strategy, seed)
            assert (score, dag) == (ref_score, ref_dag), (chunk, strategy)
            assert ledger_counts(ledger) == ledger_counts(ref_ledger)


def random_cover_case(seed, tie_heavy, shuffled, label):
    """(table, partition) with n in 2..12 and k in {2, 4, 6}."""
    rng = rng_for(seed, label)
    n = int(rng.integers(2, 13))
    k = int(rng.choice([e for e in (2, 4, 6) if e <= n]))
    table = tie_heavy_table(rng, n) if tie_heavy else random_table(rng, n)
    if shuffled:
        return table, BlockPartition.shuffled(n, k, seed)
    return table, BlockPartition.contiguous(n, k)


def tie_tolerance(optima):
    return 1e-9 * (1.0 + abs(float(optima.max())))


@given(st.integers(0, 2**31), st.booleans(), st.booleans())
@settings(max_examples=12, deadline=None)
def test_member_optima_match_python_reference(seed, tie_heavy, shuffled):
    table, partition = random_cover_case(seed, tie_heavy, shuffled, "optima-reference")
    members = cover_size(partition.n, partition.k)
    reference = np.array(
        [
            reference_solve_member(table, member_by_index(partition, idx))[0]
            for idx in range(members)
        ]
    )
    # One member's share of the chunk budget: its E cells or its F entries.
    row = max(lattice_edge_count_formula(partition.n, partition.k), len(table.scores))
    # The default chunk budget, one member per chunk, and three members per
    # chunk (a ragged last chunk unless members divide by 3).
    for chunk in (po_dp._CHUNK_ELEMENTS, 1, 3 * row):
        with mock.patch.object(po_dp, "_CHUNK_ELEMENTS", chunk):
            optima = member_optima(table, partition)
        assert optima.shape == (members,)
        assert np.abs(optima - reference).max() <= 1e-9


@contextlib.contextmanager
def counted_calls(*functions):
    """Calls of each function's code while the block runs, however reached."""
    codes = {getattr(fn, "__code__", None) or fn.__init__.__code__: fn.__name__
             for fn in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


@given(st.integers(0, 2**31), st.booleans(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_classical_scan_traces_only_candidates(seed, tie_heavy, shuffled):
    table, partition = random_cover_case(seed, tie_heavy, shuffled, "scan-candidates")
    optima = member_optima(table, partition)
    candidates = set(np.flatnonzero(optima >= optima.max() - tie_tolerance(optima)).tolist())
    row = max(lattice_edge_count_formula(partition.n, partition.k), len(table.scores))
    # A member's slot -> node map names it among the columns a trace receives.
    member_of = {DownsetIndex(member_by_index(partition, i)).nodes: i for i in range(len(optima))}
    trace = po_dp._trace
    # The default chunk budget, and one that holds the whole cover in one chunk.
    for chunk in (po_dp._CHUNK_ELEMENTS, len(optima) * row):
        traced = []

        def recording(table, template, nodes, *arrays):
            traced.extend(member_of[tuple(column)] for column in nodes.T.tolist())
            return trace(table, template, nodes, *arrays)

        with mock.patch.object(po_dp, "_trace", recording), mock.patch.object(
            po_dp, "_CHUNK_ELEMENTS", chunk
        ), counted_calls(best_parents_in, total_score, member_by_index, DownsetIndex) as calls:
            score, _, ledger = solve_cover(table, partition, "classical-scan")
        assert len(traced) == len(set(traced))
        assert candidates <= set(traced)
        if len(optima) * row <= chunk:
            assert set(traced) == candidates
        assert set(calls.values()) == {0}, calls
        assert score == pytest.approx(float(optima.max()), abs=1e-9)
        assert ledger.classical_evals == len(optima)


@pytest.mark.parametrize("batch", [2, 3])
def test_no_trace_is_wider_than_a_chunk(batch):
    # Tie-heavy scores leave members of a chunk buffered, and the next
    # chunk's candidates can take the buffer past B: it is traced first.
    table, partition = random_cover_case(3, True, False, "trace-width")
    optima = member_optima(table, partition)
    candidates = set(np.flatnonzero(optima >= optima.max() - tie_tolerance(optima)).tolist())
    member_of = {DownsetIndex(member_by_index(partition, i)).nodes: i for i in range(len(optima))}
    row = max(lattice_edge_count_formula(partition.n, partition.k), len(table.scores))
    widths, traced, trace = [], [], po_dp._trace

    def recording(table, template, nodes, *arrays):
        widths.append(nodes.shape[1])
        traced.extend(member_of[tuple(column)] for column in nodes.T.tolist())
        return trace(table, template, nodes, *arrays)

    with mock.patch.object(po_dp, "_trace", recording), mock.patch.object(
        po_dp, "_CHUNK_ELEMENTS", batch * row
    ):
        score, dag, _ = solve_cover(table, partition, "classical-scan")
    assert max(widths) <= batch and min(widths[:-1]) < batch
    assert len(traced) == len(set(traced)) and candidates <= set(traced)
    want_score, want_dag, _ = solve_cover(table, partition, "classical-scan")
    assert (repr(score), dag) == (repr(want_score), want_dag)


def assert_grover_table_orders_like_rescored(table, partition, seed):
    members = cover_size(partition.n, partition.k)
    rescored = np.array(
        [
            solve_member(table, member_by_index(partition, idx))[0]
            for idx in range(members)
        ]
    )
    oracles = []

    def capture(oracle, *args, **kwargs):
        oracles.append(oracle)
        return max_find(oracle, *args, **kwargs)

    with mock.patch.object(po_dp, "max_find", capture):
        solve_cover(table, partition, "grover-sim", seed=seed)
    values = oracles[0].table()
    assert np.array_equal(
        np.sign(values[:, None] - values[None, :]),
        np.sign(rescored[:, None] - rescored[None, :]),
    )


@given(st.integers(0, 2**31), st.booleans(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_grover_table_orders_members_like_rescored_totals(seed, tie_heavy, shuffled):
    table, partition = random_cover_case(seed, tie_heavy, shuffled, "grover-table")
    assert_grover_table_orders_like_rescored(table, partition, seed)


@pytest.mark.parametrize("k", [2, 4])
def test_grover_table_evens_out_summation_order(k):
    # Every member's witness is the empty DAG, so all rescored totals are
    # equal, but the member DPs add the same scores in different orders
    # and land on two different floats.
    scores = [0.1, 0.2, 0.3, 0.7, 1e-3, 0.11, 1 / 3, 2 / 7]
    table = LocalScoreTable(8, [{0: score} for score in scores])
    partition = BlockPartition.contiguous(8, k)
    assert len(set(member_optima(table, partition).tolist())) > 1
    assert_grover_table_orders_like_rescored(table, partition, seed=3)


def test_solve_member_all_empty_tables(demo_member):
    table = LocalScoreTable(8, [{0: 0.0}] * 8)
    score, dag = solve_member(table, demo_member)
    assert score == 0.0
    assert dag.parents == tuple([NodeSet(0)] * 8)


def test_solve_member_two_node_both_orientations():
    table = LocalScoreTable(2, [{0: 0.0}, {0: 0.0, 0b01: 5.0}])
    partition = BlockPartition.contiguous(2, 2)
    forward = member_by_index(partition, 0)  # 0 precedes 1
    backward = member_by_index(partition, 1)  # 1 precedes 0
    score_f, dag_f = solve_member(table, forward)
    assert score_f == 5.0 and dag_f.parents[1] == NodeSet.of(0)
    score_b, dag_b = solve_member(table, backward)
    assert score_b == 0.0 and dag_b.parents[1] == NodeSet(0)


def brute_best_over_extensions(table, member):
    best = float("-inf")
    for perm in itertools.permutations(range(table.n)):
        order = LinearOrder(perm)
        if not extended_by(member, order):
            continue
        total = sum(scan_best_parents(table, node, preds)[0] for node, preds in prefixes(order))
        best = max(best, total)
    return best


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_solve_member_equals_extension_enumeration(seed):
    rng = rng_for(seed, "ext-oracle")
    n = 8
    table = random_table(rng, n)
    member = random_member(rng, n, 4)
    expect = brute_best_over_extensions(table, member)
    got, dag = solve_member(table, member)
    assert got == pytest.approx(expect, abs=1e-9)
    assert is_acyclic(dag)
    assert total_score(dag, table) == pytest.approx(got, abs=1e-12)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_solve_member_bounded_by_unconstrained_optimum(seed):
    rng = rng_for(seed, "member-bound")
    n = int(rng.integers(2, 9))
    k = int(rng.choice([e for e in (2, 4) if e <= n]))
    table = random_table(rng, n)
    member = random_member(rng, n, k)
    assert solve_member(table, member)[0] <= solve_dp(table)[0] + 1e-9


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_cover_maximum_equals_unconstrained_optimum(seed):
    rng = rng_for(seed, "cover-identity")
    n = int(rng.integers(2, 11))
    k = int(rng.choice([e for e in (2, 4) if e <= n]))
    table = random_table(rng, n)
    partition = BlockPartition.contiguous(n, k)
    score, dag, ledger = solve_cover(table, partition, "classical-scan")
    reference = solve_dp(table)[0]
    assert score == pytest.approx(reference, abs=1e-9)
    assert is_acyclic(dag)
    assert total_score(dag, table) == pytest.approx(score, abs=1e-12)
    assert ledger.classical_evals == cover_size(n, k)
    assert ledger.charged_quantum_queries == 0


def test_cover_two_members_is_max_of_both():
    table = LocalScoreTable(2, [{0: 0.0, 0b10: -3.0}, {0: 0.0, 0b01: 5.0}])
    partition = BlockPartition.contiguous(2, 2)
    g0 = solve_member(table, member_by_index(partition, 0))[0]
    g1 = solve_member(table, member_by_index(partition, 1))[0]
    score, _, _ = solve_cover(table, partition, "classical-scan")
    assert score == max(g0, g1) == 5.0


def test_cover_grover_sim_is_deterministic_given_seed():
    rng = rng_for(77, "det")
    table = random_table(rng, 6)
    partition = BlockPartition.contiguous(6, 2)
    runs = [
        solve_cover(table, partition, "grover-sim", seed=123) for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert ledger_counts(runs[0][2]) == ledger_counts(runs[1][2])


def test_cover_grover_sim_ledger_separates_units():
    rng = rng_for(78, "ledger")
    table = random_table(rng, 6)
    partition = BlockPartition.contiguous(6, 2)
    score, dag, ledger = solve_cover(table, partition, "grover-sim", seed=5)
    assert score == pytest.approx(solve_dp(table)[0], abs=1e-9)
    assert ledger.charged_quantum_queries > 0
    # 8 member solves + verifications + the final witness re-solve.
    assert ledger.classical_evals > cover_size(6, 2)


def test_cover_cost_model_charges_analytic_formula():
    rng = rng_for(79, "cost")
    table = random_table(rng, 8)
    partition = BlockPartition.contiguous(8, 4)
    score, dag, ledger = solve_cover(table, partition, "grover-cost-model")
    assert score == pytest.approx(solve_dp(table)[0], abs=1e-9)
    assert ledger.charged_quantum_queries == 36  # ceil(sqrt(36)) * ceil(log2(36))
    assert is_acyclic(dag) and total_score(dag, table) == pytest.approx(score)


def test_cover_strategy_validation_and_caps():
    rng = rng_for(80, "caps")
    table = random_table(rng, 8)
    partition = BlockPartition.contiguous(8, 4)
    with pytest.raises(StrategyUnavailableError):
        solve_cover(table, partition, "annealing")
    with mock.patch.object(po_dp, "SCAN_WORK_CAP", 10):
        with pytest.raises(InstanceTooLargeError):
            solve_cover(table, partition, "classical-scan")
    with mock.patch.object(po_dp, "MAX_SIM_DOMAIN", 10):
        with pytest.raises(InstanceTooLargeError):
            solve_cover(table, partition, "grover-sim")
    with pytest.raises(ValueError):
        solve_cover(table, BlockPartition.contiguous(6, 2), "classical-scan")


def reference_score_entries(table):
    """The per-call flat copy (``ScoreEntries.of``) that the table's own
    arrays replaced: owning node, a (F, n) parent-bit matrix and scores."""
    nodes, masks, scores = [], [], []
    for i in range(table.n):
        for mask, score in table.items(i):
            nodes.append(i)
            masks.append(mask)
            scores.append(score)
    bits = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(table.n)) & 1
    return np.array(nodes, dtype=np.int64), bits, np.array(scores)


@given(st.integers(0, 2**31), st.integers(2, 10), st.booleans())
@settings(max_examples=40, deadline=None)
def test_table_arrays_match_score_entries_reference(seed, n, shuffled):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n)
    nodes, bits, scores = reference_score_entries(table)
    assert table.nodes.tolist() == nodes.tolist()
    assert table.scores.tobytes() == scores.tobytes()
    k = 2 if n < 4 else 4
    partition = (
        BlockPartition.shuffled(n, k, seed) if shuffled else BlockPartition.contiguous(n, k)
    )
    for block in partition.blocks:
        elems = np.array(list(block))
        want = bits[:, elems] @ (1 << np.arange(len(elems)))
        assert po_dp._block_patterns(table.masks, elems).tolist() == want.tolist()


def test_lattice_beyond_the_byte_cap_is_refused_before_allocation():
    # n = 28 in pairs: 3^14 downsets and 44,641,044 edges, GiBs of arrays;
    # grover-sim's member cap (16,384 > 4,096) is checked first.  n = k = 26:
    # 10,400,600 members of 16,383 downsets, a small lattice, but the split
    # tables take GiBs.  n = 22 in fours: 15,552 members of 50,421 downsets,
    # 12 MB of lattice but over the work cap.
    rows = [
        (28, 2, strategy, "grover-sim cap" if strategy == "grover-sim" else "lattice")
        for strategy in po_dp.COVER_STRATEGIES
    ]
    rows += [(26, 26, "grover-cost-model", "lattice"), (22, 4, "grover-cost-model", "work cap")]
    for n, k, strategy, message in rows:
        table = LocalScoreTable(n, [{0: 0.0}] * n)
        with mock.patch.object(po_dp, "lattice_template") as template:
            with pytest.raises(InstanceTooLargeError) as err:
                solve_cover(table, BlockPartition.contiguous(n, k), strategy)
        template.assert_not_called()
        assert message in str(err.value)


@pytest.mark.parametrize(
    "n,k,admitted",
    [(20, 4, True), (21, 4, True), (22, 4, False), (20, 20, False), (24, 4, False)],
)
def test_work_cap_counts_members_times_downsets(n, k, admitted):
    # (21, 4): 7,776 x 33,614 = 2.6e8 <= 2^28; (22, 4): 15,552 x 50,421.
    class Admitted(Exception):
        pass

    table = LocalScoreTable(n, [{0: 0.0}] * n)
    with mock.patch.object(po_dp, "lattice_template", side_effect=Admitted):
        # grover-sim's member cap refuses all five covers first.
        for strategy in ("classical-scan", "grover-cost-model"):
            with pytest.raises(Admitted if admitted else InstanceTooLargeError):
                solve_cover(table, BlockPartition.contiguous(n, k), strategy)


# Per even k, one letter per n = k..30: the cover is admitted (a), refused
# by the byte cap (b) or refused by the work cap (w).  k = 2 is first
# refused at n = 22, for its bytes.  (24, 4), over both caps, meets the
# byte cap first since the template's gather rows count as 8 bytes per
# padded edge.
CAP_VERDICTS = {
    2: "aaaaaaaaaaaaaaaaaaaabbbbbbbbb",
    4: "aaaaaaaaaaaaaaaaaawwbbbbbbb",
    6: "aaaaaaaaaaaaaaawwwwbbbbbb",
    8: "aaaaaaaaaaaaawwwbbbbbbb",
    10: "aaaaaaaaaaawwwbbbbbbb",
    12: "aaaaaaaaawwbbbbbbbb",
    14: "aaaaaaawwbbbbbbbb",
    16: "aaaawwwbbbbbbbb",
    18: "aawwbbbbbbbbb",
    20: "bbbbbbbbbbb",
    22: "bbbbbbbbb",
    24: "bbbbbbb",
    26: "bbbbb",
    28: "bbb",
    30: "b",
}


@pytest.mark.parametrize("most_parents", [0, 2])
def test_caps_refuse_covers_by_shape(most_parents):
    # Every node lists the empty set, or every set of at most two others.
    class Admitted(Exception):
        pass

    verdicts = dict.fromkeys(CAP_VERDICTS, "")
    for n in range(2, 31):
        masks = [sum(1 << j for j in nodes) for size in range(most_parents + 1)
                 for nodes in itertools.combinations(range(n), size)]
        table = LocalScoreTable(n, [{m: -float(m.bit_count()) for m in masks if not m >> i & 1}
                                    for i in range(n)])
        for k in range(2, n + 1, 2):
            with mock.patch.object(po_dp, "lattice_template", side_effect=Admitted):
                try:
                    solve_cover(table, BlockPartition.contiguous(n, k), "classical-scan")
                except Admitted:
                    verdicts[k] += "a"
                except InstanceTooLargeError as err:
                    verdicts[k] += "b" if "byte cap" in str(err) else "w"
    assert verdicts == CAP_VERDICTS


def dense_table(n):
    """Every parent set of every node, with random scores."""
    rng = rng_for(n, "dense-table")
    return LocalScoreTable(n, [
        {(m & ((1 << i) - 1)) | ((m >> i) << (i + 1)): float(rng.uniform(-10.0, 10.0))
         for m in range(1 << (n - 1))}
        for i in range(n)
    ])


def test_scan_plan_holds_the_template_cell_table():
    # The plan counts E + D // (smallest block's radix) rows before the
    # template exists; the template's table ends one own trace past sink_row.
    for n, k in [(n, k) for n in range(2, 15) for k in range(2, n + 1, 2)] + [(17, 6)]:
        batch, held, _ = po_dp._scan_plan(n, k, 1)
        template = lattice_template(n, k)
        assert held[1][0] == ((template.sink_row + max(template.cell_stride)) * batch,), (n, k)


def test_cached_plan_follows_the_chunk_budget():
    # The plan is cached per key, and the chunk budget in force is part of
    # the key: patching it still sets the scan's B, one DP call per chunk.
    n, k = 6, 2  # 8 members
    table = random_table(rng_for(6, "plan-cache"), n)
    partition = BlockPartition.contiguous(n, k)
    row = max(lattice_edge_count_formula(n, k), len(table.scores))
    member_dp = po_dp._member_dp

    def chunk_widths(chunk):
        widths = []

        def recording(cells, template, value=None):
            widths.append(cells.shape[1])
            return member_dp(cells, template, value)

        with mock.patch.object(po_dp, "_member_dp", recording), mock.patch.object(
            po_dp, "_CHUNK_ELEMENTS", chunk
        ):
            score, dag, _ = solve_cover(table, partition, "classical-scan")
        return widths, (repr(score), dag)

    widths, want = chunk_widths(po_dp._CHUNK_ELEMENTS)
    assert widths == [8]
    hits = po_dp._sized_plan.cache_info().hits
    for chunk, want_widths in ((row, [1] * 8), (3 * row, [3, 3, 2]),
                               (po_dp._CHUNK_ELEMENTS, [8]), (row, [1] * 8)):
        assert chunk_widths(chunk) == (want_widths, want), chunk
    assert po_dp._sized_plan.cache_info().hits >= hits + 2  # the repeated budgets


def traced_peak(run):
    """tracemalloc's peak while ``run()`` runs, the template build included."""
    _kept_templates.cache_clear()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PEAK_CASES = [
    # Empty-set tables: every member ties at 0, so every member is traced.
    ("14", 14, 2, "empty"),
    ("16", 16, 2, "empty"),
    # All 4,096 patterns in its one block.
    ("12-12-dense", 12, 12, "dense"),
    # 2,400 members, and a block of 4 after two of 6.
    ("16-6", 16, 6, "empty"),
    # Few members are traced.
    ("12-4-random", 12, 4, "random"),
]


@pytest.mark.parametrize(
    "n,k,kind,strategy",
    [pytest.param(n, k, kind, strategy,
                  id=case if strategy == "classical-scan" else f"{case}-{strategy}")
     for case, n, k, kind in PEAK_CASES for strategy in COVER_STRATEGIES],
)
def test_scan_peak_within_counted_bytes(n, k, kind, strategy):
    table = {
        "empty": lambda: LocalScoreTable(n, [{0: 0.0}] * n),
        "dense": lambda: dense_table(n),
        "random": lambda: random_table(rng_for(n, "scan-peak"), n),
    }[kind]()
    partition = BlockPartition.contiguous(n, k)
    peak = traced_peak(lambda: solve_cover(table, partition, strategy))
    # The cost model's solve_dp check is bounded by DP_CAP, not by the byte
    # cap; it is allowed the bytes of its own plan.
    allowance = 0
    if strategy == "grover-cost-model":
        allowance = _plan_bytes(*_dp_plan(n, len(table.scores))[1:])
    # The byte check counts at least the peak: a cap one byte below refuses.
    with mock.patch.object(po_dp, "LATTICE_BYTES_CAP", peak - allowance - 1):
        with pytest.raises(InstanceTooLargeError, match="byte cap"):
            solve_cover(table, partition, strategy)
    if kind == "random" or peak <= 1 << 20:
        return

    # Where every member is traced, or every pattern is in play, the count
    # stays within 1.5x the peak.
    class Admitted(Exception):
        pass

    with mock.patch.object(po_dp, "LATTICE_BYTES_CAP", 3 * peak // 2), mock.patch.object(
        po_dp, "lattice_template", side_effect=Admitted
    ):
        with pytest.raises(Admitted):
            solve_cover(table, partition, strategy)


def test_large_templates_are_not_kept_between_solves():
    # The (15, 2) and (14, 2) templates take 0.96 MB and 0.49 MB to build,
    # over the 256 KiB up to which templates are kept.
    def solve(n, k):
        table = random_table(rng_for(n, "kept-templates"), n)
        solve_cover(table, BlockPartition.contiguous(n, k), "classical-scan")

    solve(6, 2)  # warm-up
    _kept_templates.cache_clear()
    tracemalloc.start()
    try:
        solve(15, 2)
        solve(14, 2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A kept (14, 2) template alone would hold 8 * (3E + 5D) = 332,424 bytes.
    assert retained < 8 * (3 * 10_206 + 5 * 2_187) // 4


@given(st.integers(0, 2**31), st.booleans(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_cost_model_returns_the_classical_scan_answer(seed, tie_heavy, shuffled):
    table, partition = random_cover_case(seed, tie_heavy, shuffled, "cost-model-scan")
    members = cover_size(partition.n, partition.k)
    score, dag, ledger = solve_cover(table, partition, "grover-cost-model")
    assert (score, dag) == solve_cover(table, partition, "classical-scan")[:2]
    assert ledger_counts(ledger) == {
        "classical_evals": 1,
        "charged_quantum_queries": quantum_charge(members),
    }


def test_cost_model_checks_solve_dp_only_up_to_the_dp_cap():
    rng = rng_for(81, "cost-dp-cap")
    table = random_table(rng, 8)
    partition = BlockPartition.contiguous(8, 4)
    score, dag, _ = solve_cover(table, partition, "classical-scan")
    with mock.patch.object(po_dp, "DP_CAP", 7), mock.patch.object(po_dp, "solve_dp") as dp:
        assert solve_cover(table, partition, "grover-cost-model")[:2] == (score, dag)
    dp.assert_not_called()
    with mock.patch.object(po_dp, "solve_dp", return_value=(score + 1e-6, dag)):
        with pytest.raises(RuntimeError, match="cover identity"):
            solve_cover(table, partition, "grover-cost-model")


@pytest.mark.parametrize("k", [2, 4])
def test_minus_inf_optimum_is_returned_without_warning(k):
    # Node 0 lists only the empty set, scored -inf: every network scores -inf.
    minus_inf = float("-inf")
    table = LocalScoreTable(4, [{0: minus_inf}, {0: 0.0, 0b1: 2.0}, {0: 1.0}, {0: 0.0, 0b110: 3.0}])
    partition = BlockPartition.contiguous(4, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [solve_dp(table)] + [
            solve_cover(table, partition, strategy)[:2] for strategy in COVER_STRATEGIES
        ]
    for score, dag in results:
        assert score == minus_inf
        assert total_score(dag, table) == minus_inf
