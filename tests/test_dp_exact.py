"""Subset DP against scan/enumeration oracles and the brute forcers."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl import dp_exact
from qbnsl.bucket_cover import lattice_template
from qbnsl.dp_exact import (
    DAG_BRUTE_CAP,
    DP_CAP,
    ORDER_BRUTE_CAP,
    _dp_plan,
    _fold_sub_downsets,
    _plan_bytes,
    best_parents_all_subsets,
    brute_force_dags,
    brute_force_orders,
    enumerate_dags,
    solve_dp,
)
from qbnsl.instance import (
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    NodeSet,
    best_parents_in,
    is_acyclic,
    total_score,
)
from qbnsl.tables import random_table
from reference import scan_best_parents, solve_dp_with_sink_table


# Reference: the subset-max transform with an argmax table, which the
# values-only library transform replaced.  Ties prefer the smaller
# (cardinality, bitmask), packed into one int64 key.  The library must
# reproduce its values exactly, and the per-entry scan its argmax.

_KEY_SHIFT = 30
_UNSET_KEY = np.int64(1) << 62


def reference_subset_max(table, i):
    """(values, argmax) over all 2^n masks for node i, with tie keys."""
    n = table.n
    values = np.full(1 << n, -np.inf, dtype=np.float64)
    keys = np.full(1 << n, _UNSET_KEY, dtype=np.int64)
    for mask, score in table.items(i):
        values[mask] = score
        keys[mask] = (mask.bit_count() << _KEY_SHIFT) | mask
    for j in range(n):
        v = values.reshape(-1, 2, 1 << j)
        k = keys.reshape(-1, 2, 1 << j)
        lo_v, hi_v = v[:, 0, :], v[:, 1, :]
        lo_k, hi_k = k[:, 0, :], k[:, 1, :]
        update = (lo_v > hi_v) | ((lo_v == hi_v) & (lo_k < hi_k))
        hi_v[update] = lo_v[update]
        hi_k[update] = lo_k[update]
    return values, keys & ((np.int64(1) << _KEY_SHIFT) - 1)


def other_masks(n, i):
    """Masks over n nodes with bit i clear, ascending: squeezed index k is entry k."""
    return np.array([m for m in range(1 << n) if not (m >> i) & 1], dtype=np.int64)


def squeeze(mask, i):
    """A mask's index in node i's table: bit i squeezed out."""
    low = (1 << i) - 1
    return (mask & low) | ((mask >> 1) & ~low)


def reference_solve_dp(table):
    """The subset DP over full-mask tables, the form ``solve_dp`` replaced."""
    n = table.n
    size = 1 << n
    values = [reference_subset_max(table, i)[0] for i in range(n)]
    layer_of = np.array([m.bit_count() for m in range(size)])
    opt = np.full(size, -np.inf, dtype=np.float64)
    opt[0] = 0.0
    chosen_sink = np.full(size, -1, dtype=np.int8)
    all_masks = np.arange(size, dtype=np.int64)
    for layer in range(1, n + 1):
        layer_masks = all_masks[layer_of == layer]
        for i in range(n):
            with_i = layer_masks[((layer_masks >> i) & 1) == 1]
            without_i = with_i ^ (1 << i)
            candidate = opt[without_i] + values[i][without_i]
            update = candidate > opt[with_i]
            targets = with_i[update]
            opt[targets] = candidate[update]
            chosen_sink[targets] = i
    parents = [NodeSet(0)] * n
    mask = size - 1
    while mask:
        i = int(chosen_sink[mask])
        mask ^= 1 << i
        parents[i] = scan_best_parents(table, i, mask)[1]
    dag = Dag(n, tuple(parents))
    return total_score(dag, table), dag


def tie_heavy_table(rng, n):
    """random_table's parent sets with small integer scores, so ties abound."""
    base = random_table(rng, n, max_sets=24)
    return LocalScoreTable(
        n,
        [
            {mask: float(rng.integers(-2, 3)) for mask, _ in base.items(i)}
            for i in range(n)
        ],
    )


def full_table(rng: np.random.Generator, n: int) -> LocalScoreTable:
    entries = []
    for i in range(n):
        all_masks = [m for m in range(1 << n) if not (m >> i) & 1]
        entries.append({m: float(rng.uniform(-10, 10)) for m in all_masks})
    return LocalScoreTable(n, entries)


def test_subset_max_four_subset_example():
    t = LocalScoreTable(
        4, [{0: 0.0}, {0: 0.0, 0b0100: 3.0, 0b1100: 5.0}, {0: 0.0}, {0: 0.0}]
    )
    values = best_parents_all_subsets(t)[:, 1]
    assert values[squeeze(0b1100, 1)] == 5.0
    assert values[squeeze(0b0100, 1)] == 3.0
    assert values[squeeze(0b1000, 1)] == 0.0
    assert values[squeeze(0, 1)] == 0.0
    assert best_parents_in(t, 1, 0b1100)[1] == NodeSet(0b1100)
    assert best_parents_in(t, 1, 0b0100)[1] == NodeSet(0b0100)


def test_subset_max_empty_only_is_zero_everywhere():
    t = LocalScoreTable(3, [{0: 0.0}, {0: 0.0}, {0: 0.0}])
    table = best_parents_all_subsets(t)
    assert table.dtype == np.float64 and table.shape == (4, 3)
    values = table[:, 0]
    assert np.all(values == 0.0)
    _, argmax = reference_subset_max(t, 0)
    assert np.all(argmax == 0)


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_subset_max_equals_scan_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    t = random_table(rng, n)
    i = int(rng.integers(n))
    values = best_parents_all_subsets(t)[:, i]
    _, argmax = reference_subset_max(t, i)
    # The table covers the other n-1 nodes only.
    assert values.shape == (1 << (n - 1),)
    for mask in range(1 << n):
        allowed = mask & ~(1 << i)
        score, parents = scan_best_parents(t, i, allowed)
        assert values[squeeze(allowed, i)] == pytest.approx(score, abs=0)
        assert int(argmax[allowed]) == int(parents)


@given(st.integers(0, 2**31), st.booleans())
@settings(max_examples=60, deadline=None)
def test_values_only_tables_match_tie_key_reference(seed, tie_heavy):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    t = tie_heavy_table(rng, n) if tie_heavy else random_table(rng, n)
    reference = [reference_subset_max(t, i)[0][other_masks(n, i)] for i in range(n)]
    values = best_parents_all_subsets(t)
    assert values.dtype == np.float64 and values.shape == (1 << (n - 1), n)
    for i in range(n):
        assert np.array_equal(values[:, i], reference[i])
    # solve_dp fed the reference tables gives the same score and witness.
    got = solve_dp(t)
    with mock.patch.object(
        dp_exact, "best_parents_all_subsets", lambda table: np.stack(reference, axis=1)
    ):
        assert solve_dp(t) == got


def sub_row_max(values, masks):
    """Each row's max over the rows whose mask lies inside its own, row by row."""
    return np.array([values[(masks & ~mask) == 0].max(axis=0) for mask in masks.tolist()])


def fold_input(rng, rows):
    """(rows, width) small integers, with ties and some -inf cells."""
    values = rng.integers(-3, 4, size=(rows, int(rng.integers(1, 4)))).astype(np.float64)
    values[rng.random(values.shape) < 0.2] = -np.inf
    return values


@pytest.mark.parametrize("bits", range(11))
def test_fold_one_boolean_axis_matches_sub_row_max(bits):
    values = fold_input(np.random.default_rng(bits), 1 << bits)
    want = sub_row_max(values, np.arange(1 << bits))
    _fold_sub_downsets(values, ((1 << bits, ((0, bits),)),))
    assert np.array_equal(values, want)


@pytest.mark.parametrize("n, k", [(2, 2), (5, 2), (6, 4), (7, 4), (8, 6), (9, 4)])
def test_fold_template_block_axes_matches_sub_row_max(n, k):
    template = lattice_template(n, k)
    values = fold_input(np.random.default_rng(n * 10 + k), template.size)
    want = sub_row_max(values, template.masks)
    _fold_sub_downsets(values, template.axes)
    assert np.array_equal(values, want)


@given(st.integers(0, 2**31), st.booleans(), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_solve_dp_matches_full_mask_reference(seed, tie_heavy, n):
    rng = np.random.default_rng(seed)
    t = tie_heavy_table(rng, n) if tie_heavy else random_table(rng, n)
    score, dag = solve_dp(t)
    want_score, want_dag = reference_solve_dp(t)
    assert repr(score) == repr(want_score)
    assert dag == want_dag


def with_minus_inf_sets(rng, table):
    """The table with about a fifth of its parent sets, the empty set too, scored -inf."""
    return LocalScoreTable(
        table.n,
        [
            {mask: -np.inf if rng.random() < 0.2 else score for mask, score in table.items(i)}
            for i in range(table.n)
        ],
    )


def sink_reference_input(seed, tie_heavy, minus_inf, n):
    """A random or tie-heavy table, with some sets at -inf if ``minus_inf``."""
    rng = np.random.default_rng(seed)
    t = tie_heavy_table(rng, n) if tie_heavy else random_table(rng, n)
    return with_minus_inf_sets(rng, t) if minus_inf else t


@given(st.integers(0, 2**31), st.booleans(), st.booleans(), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_solve_dp_matches_sink_table_reference(seed, tie_heavy, minus_inf, n):
    t = sink_reference_input(seed, tie_heavy, minus_inf, n)
    score, dag = solve_dp(t)
    assert is_acyclic(dag) and total_score(dag, t) == score
    try:
        want_score, want_dag = solve_dp_with_sink_table(t)
    except AssertionError:  # no sink recorded for a -inf optimum
        assert score == -np.inf
        return
    assert (repr(score), dag) == (repr(want_score), want_dag)


@given(st.integers(0, 2**31), st.booleans(), st.booleans(), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_solve_dp_slices_match_whole_layers(seed, tie_heavy, minus_inf, n):
    # At n <= 12 one slice holds a whole layer; slices of 1 and 3 sets split
    # every layer of 2 or more, and slices of 3 leave ragged last slices.
    t = sink_reference_input(seed, tie_heavy, minus_inf, n)
    score, dag = solve_dp(t)
    for sets in (1, 3):
        with mock.patch.object(dp_exact, "_SLICE_SETS", sets):
            sliced_score, sliced_dag = solve_dp(t)
        assert (repr(sliced_score), sliced_dag) == (repr(score), dag), sets


def solve_dp_peak(table) -> int:
    """tracemalloc's peak while ``solve_dp`` solves the table."""
    tracemalloc.start()
    try:
        solve_dp(table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,most", [(16, 1.4), (17, 1.3), (18, 1.3)])
def test_solve_dp_peak_within_its_plan(n, most):
    table = random_table(np.random.default_rng(5), n)
    peak = solve_dp_peak(table)
    assert peak <= _plan_bytes(*_dp_plan(n, len(table.scores))[1:])
    # Over the n * 2^(n-1) float64 subset tables: opt, the layer order and one slice.
    assert peak <= most * n * (1 << (n - 1)) * 8


@pytest.mark.parametrize("n", [12, 13])
def test_dense_solve_dp_peak_within_its_plan(n):
    # Every parent set of every node: the seeding phase's (5, F) arrays,
    # about 5x the subset tables, set the peak, and the traceback's (1, F)
    # arrays are counted beside them.
    table = full_table(np.random.default_rng(n), n)
    assert solve_dp_peak(table) <= _plan_bytes(*_dp_plan(n, len(table.scores))[1:])


def test_solve_dp_single_node():
    score, dag = solve_dp(LocalScoreTable(1, [{0: 7.0}]))
    assert score == 7.0
    assert dag.parents == (NodeSet(0),)


def test_solve_dp_two_node_worked_example():
    t = LocalScoreTable(2, [{0: 0.0, 0b10: 5.0}, {0: 1.0, 0b01: 5.0}])
    score, dag = solve_dp(t)
    assert score == 6.0
    assert dag.parents == (NodeSet.of(1), NodeSet(0))
    assert total_score(dag, t) == 6.0


def test_solve_dp_witness_always_rescans_exactly():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        t = random_table(rng, n)
        score, dag = solve_dp(t)
        assert is_acyclic(dag)
        assert total_score(dag, t) == score


def test_brute_orders_trivial_and_worked():
    t0 = LocalScoreTable(3, [{0: 0.0}, {0: 0.0}, {0: 0.0}])
    assert brute_force_orders(t0) == 0.0
    t = LocalScoreTable(2, [{0: 0.0, 0b10: 5.0}, {0: 1.0, 0b01: 5.0}])
    assert brute_force_orders(t) == 6.0


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_solve_dp_equals_brute_orders(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    t = random_table(rng, n)
    assert solve_dp(t)[0] == pytest.approx(brute_force_orders(t), abs=1e-9)


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_solve_dp_equals_brute_dags(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    t = random_table(rng, n)
    assert solve_dp(t)[0] == pytest.approx(brute_force_dags(t), abs=1e-9)


def test_enumerate_dags_counts_full_tables():
    rng = np.random.default_rng(0)
    for n, count in ((2, 3), (3, 25), (4, 543)):
        t = full_table(rng, n)
        assert sum(1 for _ in enumerate_dags(t)) == count


def test_brute_dags_sees_all_three_two_node_dags():
    rng = np.random.default_rng(1)
    t = full_table(rng, 2)
    candidates = [
        t.score(0, 0) + t.score(1, 0),
        t.score(0, 0b10) + t.score(1, 0),
        t.score(0, 0) + t.score(1, 0b01),
    ]
    assert brute_force_dags(t) == max(candidates)


def test_caps_raise_instance_too_large():
    big = LocalScoreTable(9, [{0: 0.0}] * 9)
    with pytest.raises(InstanceTooLargeError):
        brute_force_orders(big)
    with pytest.raises(InstanceTooLargeError):
        brute_force_dags(LocalScoreTable(5, [{0: 0.0}] * 5))
    solve_dp(big)
    with mock.patch.object(dp_exact, "DP_CAP", 8):
        with pytest.raises(InstanceTooLargeError):
            solve_dp(big)
    assert ORDER_BRUTE_CAP == 8 and DAG_BRUTE_CAP == 4 and DP_CAP == 20


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_opt_monotone_on_nonnegative_scores(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    t = random_table(rng, n, lo=0.0, hi=10.0)
    # Restricting the node set can only lower the optimum when scores are
    # nonnegative; check via solving induced subinstances.
    full_score = solve_dp(t)[0]
    for drop in range(n):
        keep = [i for i in range(n) if i != drop]
        sub_entries = []
        for i in keep:
            allowed = 0
            for j in keep:
                if j != i:
                    allowed |= 1 << j
            sub = {}
            for mask, score in t.items(i):
                if mask & ~allowed == 0:
                    sub[mask] = score
            sub_entries.append(sub)
        # Compress node labels to 0..n-2.
        remap = {node: pos for pos, node in enumerate(keep)}
        compressed = []
        for sub in sub_entries:
            out = {}
            for mask, score in sub.items():
                new_mask = 0
                for b in NodeSet(mask):
                    new_mask |= 1 << remap[b]
                out[new_mask] = score
            compressed.append(out)
        sub_score = solve_dp(LocalScoreTable(n - 1, compressed))[0]
        assert sub_score <= full_score + 1e-12


def test_solve_dp_sink_tie_prefers_smaller_index():
    # Symmetric instance: both nodes score 1 with the other as parent, 0 alone.
    t = LocalScoreTable(2, [{0: 0.0, 0b10: 1.0}, {0: 0.0, 0b01: 1.0}])
    score, dag = solve_dp(t)
    assert score == 1.0
    # Sink 0 chosen first implies node 0 keeps the parent arc.
    assert dag.parents == (NodeSet.of(1), NodeSet(0))
