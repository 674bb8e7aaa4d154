"""Score-file parsing/serialization, BIC scoring, and dominance pruning."""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl import scores_io
from qbnsl.instance import LocalScoreTable, NodeSet, best_parents_in
from qbnsl.scores_io import (
    DatasetError,
    DiscreteDataset,
    DuplicateParentSetError,
    MissingEmptySetError,
    ScoreSyntaxError,
    SelfParentError,
    TooManyEntriesError,
    UnknownVariableError,
    bic_scores,
    is_closed_under_inclusion,
    parse_scores,
    prune_dominated,
    write_scores,
)
from qbnsl.tables import random_table

FIXTURE = "2\nA 2\n-1.5 0\n-1.0 1 B\nB 1\n-2.0 0\n"


def test_parse_fixture_exactly():
    t = parse_scores(FIXTURE)
    assert t.n == 2
    assert t.names == ("A", "B")
    assert t.score(0, 0) == -1.5
    assert t.score(0, NodeSet.of(1)) == -1.0
    assert t.score(1, 0) == -2.0
    assert t.total_entries == 3


def test_write_fixture_byte_identical():
    assert write_scores(parse_scores(FIXTURE)) == FIXTURE


def test_parse_accepts_bytes_comments_and_blanks():
    noisy = "# header\n\n2\nA 2\n# entry\n-1.5 0\n\n-1.0 1 B\nB 1\n-2.0 0\n"
    assert parse_scores(noisy.encode()) == parse_scores(FIXTURE)


def test_parse_accepts_forward_references():
    text = "2\nA 2\n0.0 0\n-1.0 1 B\nB 1\n0.0 0\n"
    t = parse_scores(text)
    assert t.contains(0, NodeSet.of(1))


def test_parse_self_parent_rejected():
    with pytest.raises(SelfParentError):
        parse_scores("2\nA 1\n0.0 0\nB 2\n0.0 0\n1.0 1 B\n")


def test_parse_unknown_variable_rejected():
    with pytest.raises(UnknownVariableError):
        parse_scores("2\nA 2\n0.0 0\n1.0 1 Z\nB 1\n0.0 0\n")


def test_parse_duplicate_parent_set_rejected():
    with pytest.raises(DuplicateParentSetError):
        parse_scores("2\nA 2\n0.0 0\n1.0 0\nB 1\n0.0 0\n")


def test_parse_missing_empty_set_rejected():
    with pytest.raises(MissingEmptySetError):
        parse_scores("2\nA 1\n1.0 1 B\nB 1\n0.0 0\n")


def test_parse_syntax_errors_carry_line_numbers():
    with pytest.raises(ScoreSyntaxError) as err:
        parse_scores("junk\n")
    assert err.value.line_no == 1
    with pytest.raises(ScoreSyntaxError):
        parse_scores("1\nA 1\n0.0 2 B\n")
    with pytest.raises(ScoreSyntaxError):
        parse_scores("1\nA 1\nnan 0\n")
    with pytest.raises(ScoreSyntaxError):
        parse_scores("1\nA 2\n0.0 0\n")


def test_write_single_variable_table():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(1, [{0: -0.25}], names=("ONLY",))
    assert write_scores(t) == "1\nONLY 1\n-0.25 0\n"


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_identity(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 7))
    t = random_table(rng, n)
    assert parse_scores(write_scores(t)) == t


def test_bic_single_binary_variable_hand_value():
    data = DiscreteDataset(("X",), np.array([[0], [0], [1], [1]]), (2,))
    t = bic_scores(data, 0)
    expect = 4 * math.log(0.5) - math.log(4) / 2
    assert t.score(0, 0) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(-3.4657359027997265, abs=1e-12)


def test_bic_correlated_columns_prefer_the_arc():
    rows = np.array([[v, v] for v in (0, 1, 0, 1, 0, 1, 0, 1)])
    data = DiscreteDataset(("A", "B"), rows, (2, 2))
    t = bic_scores(data, 1)
    assert t.score(1, NodeSet.of(0)) > t.score(1, 0)


def test_bic_max_indegree_zero_only_empty_sets():
    rows = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 1], [1, 1, 0]])
    data = DiscreteDataset(("A", "B", "C"), rows, (2, 2, 2))
    t = bic_scores(data, 0)
    assert all(t.set_count(i) == 1 and t.contains(i, 0) for i in range(3))


def test_bic_zero_count_cells_contribute_nothing():
    # Column B never takes value 1 when A=1; the LL must stay finite.
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 0]])
    data = DiscreteDataset(("A", "B"), rows, (2, 2))
    t = bic_scores(data, 1)
    assert math.isfinite(t.score(1, NodeSet.of(0)))


def test_bic_respects_candidate_parents_and_entry_cap():
    rows = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 0], [0, 0, 1]])
    data = DiscreteDataset(("A", "B", "C"), rows, (2, 2, 2))
    t = bic_scores(data, 2, candidate_parents=[NodeSet.of(1), NodeSet.of(), NodeSet.of()])
    assert t.set_count(0) == 2 and t.set_count(1) == 1 and t.set_count(2) == 1
    with pytest.raises(TooManyEntriesError):
        bic_scores(data, 2, max_entries=3)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_bic_is_closed_under_inclusion(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    m = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, 4))
    arities = tuple(data.draw(st.integers(2, 3)) for _ in range(n))
    rows = np.stack(
        [rng.integers(arities[j], size=m) for j in range(n)], axis=1
    )
    names = tuple(f"V{j}" for j in range(n))
    t = bic_scores(DiscreteDataset(names, rows, arities), data.draw(st.integers(0, n - 1)))
    assert is_closed_under_inclusion(t)


def _reference_log_likelihood(
    data: DiscreteDataset, child: int, parents: tuple[int, ...]
) -> float:
    """Multinomial maximum log-likelihood of one family, from its own count."""
    child_col = data.rows[:, child]
    r_child = data.arities[child]
    if not parents:
        counts = np.bincount(child_col, minlength=r_child).astype(np.float64)
        counts = counts.reshape(1, r_child)
    else:
        config = np.zeros(data.m, dtype=np.int64)
        stride = 1
        for j in parents:
            config += data.rows[:, j] * stride
            stride *= data.arities[j]
        joint = config * r_child + child_col
        counts = (
            np.bincount(joint, minlength=stride * r_child)
            .astype(np.float64)
            .reshape(stride, r_child)
        )
    row_totals = counts.sum(axis=1, keepdims=True)
    nz = counts > 0
    ratios = np.zeros_like(counts)
    np.divide(counts, row_totals, out=ratios, where=nz)
    return float((counts[nz] * np.log(ratios[nz])).sum())


def reference_bic_scores(data, max_indegree, candidate_parents=None):
    """One dense count per family: the per-family form ``bic_scores`` replaced."""
    n = data.n
    full = (1 << n) - 1
    half_log_m = 0.5 * math.log(data.m)
    entries = []
    for i in range(n):
        cand = full & ~(1 << i) if candidate_parents is None else candidate_parents[i]
        elems = list(NodeSet(cand))
        node_entries = {}
        for size in range(min(max_indegree, len(elems)) + 1):
            for combo in combinations(elems, size):
                params = data.arities[i] - 1
                for j in combo:
                    params *= data.arities[j]
                ll = _reference_log_likelihood(data, i, combo)
                node_entries[sum(1 << j for j in combo)] = ll - half_log_m * params
        entries.append(node_entries)
    return LocalScoreTable(n, entries, data.names)


def _assert_bit_identical(got, want):
    assert got.n == want.n
    for i in range(want.n):
        got_i, want_i = dict(got.items(i)), dict(want.items(i))
        assert got_i.keys() == want_i.keys()
        assert all(got_i[mask] == want_i[mask] for mask in want_i), i


def _random_dataset(rng, n, m, copies):
    arities = [int(rng.integers(1, 7)) for _ in range(n)]
    rows = np.stack([rng.integers(arities[j], size=m) for j in range(n)], axis=1)
    for i in range(1, n):
        if copies and rng.random() < 0.3:
            src = int(rng.integers(i))
            rows[:, i] = rows[:, src]
            arities[i] = arities[src]
    names = tuple(f"V{j}" for j in range(n))
    return DiscreteDataset(names, rows, tuple(arities))


# The default path, then one set per chunk, then every set counted sparsely.
BIC_PATHS = [{}, {"_CHUNK_CODES": 1}, {"_SPARSE_CELLS_PER_ROW": 0}]


@pytest.mark.parametrize("patch", BIC_PATHS)
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bic_scores_bit_identical_to_per_family_counts(patch, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.one_of(st.integers(1, 60), st.integers(1000, 3000)))
    dataset = _random_dataset(rng, n, m, copies=data.draw(st.booleans()))
    max_indegree = data.draw(st.integers(0, n - 1))
    candidates = None
    if data.draw(st.booleans()):
        full = (1 << n) - 1
        candidates = [
            data.draw(st.integers(0, full)) & ~(1 << i) for i in range(n)
        ]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(scores_io, name, value)
        got = bic_scores(dataset, max_indegree, candidate_parents=candidates)
    _assert_bit_identical(got, reference_bic_scores(dataset, max_indegree, candidates))


@pytest.mark.parametrize("patch", BIC_PATHS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bic_scores_bit_identical_beyond_128_terms(patch, seed):
    # Three arity-6 columns over thousands of rows fill more than 128 cells,
    # where ndarray.sum switches from 8 accumulators to pairwise halving.
    rng = np.random.default_rng(seed)
    rows = rng.integers(6, size=(4000, 4))
    rows[:, 3] = rows[:, 0]
    dataset = DiscreteDataset(("A", "B", "C", "D"), rows, (6, 6, 6, 6))
    assert len(np.unique(rows[:, :3], axis=0)) > 128
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(scores_io, name, value)
        got = bic_scores(dataset, 3)
    _assert_bit_identical(got, reference_bic_scores(dataset, 3))


def test_bic_wide_columns_count_only_occurring_cells():
    # 100^4 dense cells would be a 763 MiB count vector for 300 rows.
    rng = np.random.default_rng(0)
    rows = rng.integers(100, size=(300, 4))
    dataset = DiscreteDataset(("A", "B", "C", "D"), rows, (100,) * 4)
    tracemalloc.start()
    try:
        table = bic_scores(dataset, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total_entries == 4 * 8
    assert peak < 64 * 2**20


def test_from_csv_infers_arity_and_checks_cells():
    d = DiscreteDataset.from_csv("A,B\n0,2\n1,0\n0,1\n")
    assert d.arities == (2, 3)
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,B\n0\n")
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,B\n0,x\n")
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,A\n0,1\n")


def test_prune_drops_dominated_singleton():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(3, [{0: 0.0, 0b100: -1.0}, {0: 0.0}, {0: 0.0}])
    p = prune_dominated(t)
    assert p.set_count(0) == 1 and p.contains(0, 0)


def test_prune_keeps_strictly_increasing_chain():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(
        4, [{0: 0.0, 0b0100: 3.0, 0b1100: 5.0}, {0: 0.0}, {0: 0.0}, {0: 0.0}]
    )
    assert prune_dominated(t) == t


def test_prune_can_break_closure():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(
        4,
        [
            {0: 0.0, 0b0100: -1.0, 0b1000: -2.0, 0b1100: 0.5},
            {0: 0.0},
            {0: 0.0},
            {0: 0.0},
        ],
    )
    p = prune_dominated(t)
    assert p.set_count(0) == 2
    assert p.contains(0, 0b1100) and not p.contains(0, 0b0100)
    assert is_closed_under_inclusion(t)
    assert not is_closed_under_inclusion(p)


def test_prune_ties_keep_the_subset():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(2, [{0: 1.0, 0b10: 1.0}, {0: 0.0}], names=("A", "B"))
    p = prune_dominated(t)
    assert p.set_count(0) == 1 and p.contains(0, 0)
    assert p.names == ("A", "B")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_prune_preserves_best_and_is_idempotent(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(2, 6))
    t = random_table(rng, n)
    p = prune_dominated(t)
    assert p.total_entries <= t.total_entries
    assert prune_dominated(p) == p
    for i in range(n):
        full = ((1 << n) - 1) ^ (1 << i)
        for allowed in range(1 << n):
            allowed &= full
            assert best_parents_in(p, i, allowed)[0] == pytest.approx(
                best_parents_in(t, i, allowed)[0], abs=0
            )


def test_closure_detects_missing_middle_layer():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(3, [{0: 0.0, 0b110: 1.0}, {0: 0.0}, {0: 0.0}])
    assert not is_closed_under_inclusion(t)
    t2 = LocalScoreTable(
        3, [{0: 0.0, 0b010: 0.5, 0b100: 0.5, 0b110: 1.0}, {0: 0.0}, {0: 0.0}]
    )
    assert is_closed_under_inclusion(t2)
