"""Score-file parsing/serialization, BIC scoring, and dominance pruning."""

from __future__ import annotations

import csv
import math
import re
import tracemalloc
import warnings
from bisect import bisect_left
from itertools import chain, combinations, combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl import scores_io
from qbnsl.instance import MAX_NODES, LocalScoreTable, NodeSet
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
    parse_scores,
    prune_dominated,
    write_scores,
)
from qbnsl.tables import random_table
from reference import best_scores_in_every_set, contains, from_csv_by_rows

FIXTURE = "2\nA 2\n-1.5 0\n-1.0 1 B\nB 1\n-2.0 0\n"


def is_closed_under_inclusion(table: LocalScoreTable) -> bool:
    """True iff every subset of every listed parent set is also listed."""
    # Removing single elements suffices: closure follows by induction.
    keys = table.nodes << MAX_NODES | table.masks
    for j in range(table.n):
        has_j = (table.masks >> j) & 1 == 1
        if not np.isin(keys[has_j] ^ (1 << j), keys).all():
            return False
    return True


# Reference: the record-by-record score-file round trip that the library's
# once-per-distinct-parent-set form replaced.  Texts, tables, names, error
# classes and line numbers must all match it.


def reference_write_scores(table, names=None):
    names = tuple(names or table.names or (f"X{i}" for i in range(table.n)))
    out = [str(table.n)]
    for i in range(table.n):
        out.append(f"{names[i]} {table.set_count(i)}")
        for mask, score in table.items(i):
            parts = [repr(score), str(mask.bit_count())]
            parts.extend(names[j] for j in NodeSet(mask))
            out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def reference_parse_scores(data):
    lines = []
    for line_no, raw in enumerate(data.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((line_no, stripped.split()))
    if not lines:
        raise ScoreSyntaxError(1, "empty score file")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ScoreSyntaxError(lines[-1][0], "unexpected end of file")
        pos += 1
        return lines[pos - 1]

    line_no, tokens = take()
    if len(tokens) != 1:
        raise ScoreSyntaxError(line_no, "expected the variable count alone")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ScoreSyntaxError(line_no, f"invalid variable count {tokens[0]!r}") from None
    if not 1 <= n <= MAX_NODES:
        raise ScoreSyntaxError(line_no, f"variable count must be in 1..{MAX_NODES}")
    names, records = [], []
    for _ in range(n):
        line_no, tokens = take()
        if len(tokens) != 2:
            raise ScoreSyntaxError(line_no, "expected 'NAME COUNT'")
        name, count_tok = tokens
        try:
            count = int(count_tok)
        except ValueError:
            raise ScoreSyntaxError(line_no, f"invalid record count {count_tok!r}") from None
        if count < 0:
            raise ScoreSyntaxError(line_no, "record count must be non-negative")
        if name in names:
            raise ScoreSyntaxError(line_no, f"duplicate variable {name!r}")
        names.append(name)
        var_records = []
        for _ in range(count):
            line_no, tokens = take()
            if len(tokens) < 2:
                raise ScoreSyntaxError(line_no, "expected 'SCORE COUNT [PARENTS...]'")
            try:
                score = float(tokens[0])
            except ValueError:
                raise ScoreSyntaxError(line_no, f"invalid score {tokens[0]!r}") from None
            if math.isnan(score) or score == math.inf:
                raise ScoreSyntaxError(line_no, "score must be finite or -inf")
            try:
                p_count = int(tokens[1])
            except ValueError:
                raise ScoreSyntaxError(line_no, f"invalid parent count {tokens[1]!r}") from None
            parents = tokens[2:]
            if p_count != len(parents):
                raise ScoreSyntaxError(
                    line_no,
                    f"parent count {p_count} does not match {len(parents)} listed parents",
                )
            var_records.append((line_no, score, parents))
        records.append(var_records)
    if pos != len(lines):
        raise ScoreSyntaxError(lines[pos][0], "trailing content after the last record")
    index = {name: i for i, name in enumerate(names)}
    entries = []
    for i, var_records in enumerate(records):
        node_entries = {}
        for line_no, score, parents in var_records:
            mask = 0
            for p_name in parents:
                if p_name == names[i]:
                    raise SelfParentError(line_no, p_name)
                j = index.get(p_name)
                if j is None:
                    raise UnknownVariableError(line_no, p_name)
                if mask & (1 << j):
                    raise ScoreSyntaxError(line_no, f"parent {p_name!r} repeated")
                mask |= 1 << j
            if mask in node_entries:
                raise DuplicateParentSetError(line_no, names[i])
            node_entries[mask] = score
        if 0 not in node_entries:
            raise MissingEmptySetError(names[i])
        entries.append(node_entries)
    return LocalScoreTable(n, entries, names)


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
    assert contains(t, 0, NodeSet.of(1))


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


def test_minus_inf_scores_round_trip():
    t = LocalScoreTable(2, [{0: 0.0, 2: -math.inf}, {0: -1.0, 1: -math.inf}])
    text = write_scores(t)
    assert "-inf 1 X1" in text
    assert parse_scores(text) == reference_parse_scores(text) == t


@pytest.mark.parametrize("bad", ["a b", "", "x\ny", "#x"])
def test_write_rejects_names_the_parser_cannot_read(bad):
    t = LocalScoreTable(2, [{0: -1.0}, {0: -2.0}], names=("ok", bad))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        write_scores(t)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_identity(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 7))
    t = random_table(rng, n)
    assert parse_scores(write_scores(t)) == t


NAME_POOL = ["A", "B", "x1", "Gene_7", "node-9", "Z", "q", "LONGER_NAME_42"]


# Line breaks that str.splitlines honours and split("\n") does not, and
# separators that str.split() honours and split(" ") does not.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
GAPS = [" ", "  ", "\t", " \t ", "\xa0", "\u3000"]


def _noisy(rng, text):
    """The same score file with comments, blank lines, irregular whitespace
    and assorted line breaks."""
    out = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# a comment", "\t# another one"]))
        gaps = [rng.choice(GAPS) for _ in range(line.count(" "))]
        parts = line.split(" ")
        joined = parts[0] + "".join(g + p for g, p in zip(gaps, parts[1:]))
        out.append(rng.choice(["", " ", "\t"]) + joined + rng.choice(["", " ", "\t "]))
    breaks = rng.choice(LINE_BREAKS, size=len(out))
    return "".join(chain.from_iterable(zip(out, breaks))) + rng.choice(["", "\n", "\n\n# end\n"])


def _bulk_agrees(text, want):
    """The bulk pass either declines the text or gives the reference table."""
    try:
        got = scores_io._parse_well_formed(text)
    except (ValueError, LookupError):
        return True
    return got == want and got.names == want.names


@given(st.integers(0, 2**31), st.integers(1, 8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_round_trip_matches_record_by_record_reference(seed, n, noisy):
    rng = np.random.default_rng(seed)
    names = tuple(rng.permutation(NAME_POOL)[:n].tolist())
    t = random_table(rng, n, max_sets=int(rng.integers(1, 40)))
    t = LocalScoreTable(n, [dict(t.items(i)) for i in range(n)], names)
    text = write_scores(t)
    assert text == reference_write_scores(t)
    if noisy:
        text = _noisy(rng, text)
    got, want = parse_scores(text), reference_parse_scores(text)
    assert got == want == t
    assert got.names == want.names == names
    assert _bulk_agrees(text, want)


def test_benchmark_scale_round_trip_matches_reference():
    # The csv-to-dag shape: n = 17, every parent set up to size 3, F = 11,849.
    rng = np.random.default_rng(27)
    n = 17
    families = [
        (i, sum(1 << j for j in parents))
        for i in range(n)
        for size in range(4)
        for parents in combinations([j for j in range(n) if j != i], size)
    ]
    scores = -rng.exponential(500.0, len(families))
    scores[rng.choice(np.flatnonzero([mask for _, mask in families]), 5)] = -math.inf
    # Unsorted names, and records that name variables declared after their own.
    names = tuple(f"V{k}" for k in rng.permutation(n))
    nodes, masks = zip(*families)
    t = LocalScoreTable.from_arrays(n, nodes, masks, scores, names)
    assert t.total_entries == 11_849
    text = write_scores(t)
    assert text == reference_write_scores(t)
    assert scores_io._parse_well_formed(text) == t  # the writer's output takes the bulk pass
    noisy = _noisy(rng, text)
    got, want = parse_scores(noisy), reference_parse_scores(noisy)
    assert got == want == t
    assert got.names == want.names == names


# Each text fails; the library must raise what the reference raises, on the
# same line.  Records of B reuse parent lists that A resolved, so the
# self-parent and duplicate checks are also made on resolved-list hits.
PARSE_ERROR_CASES = {
    "empty": "# only a comment\n\n",
    "count-not-alone": "2 3\n",
    "bad-count": "two\n",
    "count-range": "31\n",
    "bad-header": "1\nA\n",
    "bad-record-count": "1\nA x\n",
    "negative-record-count": "1\nA -1\n",
    "duplicate-variable": "2\nA 1\n0.0 0\nA 1\n0.0 0\n",
    "short-record": "1\nA 1\n0.0\n",
    "bad-score": "1\nA 1\nzero 0\n",
    "infinite-score": "1\nA 1\ninf 0\n",
    "nan-score": "1\nA 1\nnan 0\n",
    "bad-parent-count": "2\nA 1\n0.0 one B\nB 1\n0.0 0\n",
    "count-mismatch": "2\nA 2\n0.0 0\n1.0 2 B\nB 1\n0.0 0\n",
    "count-mismatch-after-hit": "2\nA 2\n0.0 0\n1.0 1 B\nB 2\n0.0 0\n1.0 1  B A\n",
    "eof-in-records": "2\nA 2\n0.0 0\n",
    "eof-before-variable": "2\nA 1\n0.0 0\n",
    "trailing": "1\nA 1\n0.0 0\n0.0 0\n",
    "unknown-name": "2\nA 2\n0.0 0\n1.0 1 Z\nB 1\n0.0 0\n",
    "unknown-before-self": "2\nA 1\n0.0 0\nB 2\n0.0 0\n1.0 2 Z B\n",
    "self-before-unknown": "2\nA 1\n0.0 0\nB 2\n0.0 0\n1.0 2 B Z\n",
    "repeated-parent": "3\nA 2\n0.0 0\n1.0 2 B B\nB 1\n0.0 0\nC 1\n0.0 0\n",
    "self-parent": "2\nA 1\n0.0 0\nB 2\n0.0 0\n1.0 1 B\n",
    "self-parent-on-hit": "2\nA 2\n0.0 0\n1.0 1 B\nB 2\n0.0 0\n1.0 1 B\n",
    "self-parent-on-hit-later": (
        "3\nA 2\n0.0 0\n1.0 2 B C\nB 1\n0.0 0\nC 2\n0.0 0\n2.0 2 B C\n"
    ),
    "duplicate-set": "2\nA 2\n0.0 0\n1.0 0\nB 1\n0.0 0\n",
    "duplicate-set-on-hit": "2\nA 1\n0.0 0\nB 3\n0.0 0\n1.0 1 A\n2.0 1\tA\n",
    "duplicate-set-same-text": "3\nA 1\n0.0 0\nB 3\n0.0 0\n1.0 1 A\n2.0 1 A\nC 1\n0.0 0\n",
    "missing-empty-set": "2\nA 1\n1.0 1 B\nB 1\n0.0 0\n",
    "record-over-two-lines": "2\nA 2\n0.0 0\n1.0\n1 B\nB 1\n0.0 0\n",
    "two-records-on-one-line": "2\nA 2\n0.0 0 1.0 1 B\nB 1\n0.0 0\n",
    "two-records-on-one-line-count-ok": "2\nA 2\n0.0 2 1.0 1\nB 1\n0.0 0\n",
    "count-line-over-two-lines": "2\nA\n1\n0.0 0\nB 1\n0.0 0\n",
    "crlf-unknown-name": "2\r\nA 2\r\n0.0 0\r\n1.0 1 Z\r\nB 1\r\n0.0 0\r\n",
    "cr-self-parent": "2\rA 1\r0.0 0\rB 2\r0.0 0\r1.0 1 B\r",
    "vt-ff-duplicate-set": "2\x0bA 1\x0c0.0 0\x0bB 3\x0c0.0 0\n1.0 1 A\x0b2.0 1 A\n",
    "fs-nel-trailing": "1\x1cA 1\x850.0 0\u20280.0 0\n",
    "ls-missing-empty-set": "2\u2028A 1\u20281.0 1 B\u2028B 1\u20280.0 0\u2028",
    "tab-nbsp-repeated-parent": "3\nA 2\n0.0\t0\n1.0\xa02\u3000B\tB\nB 1\n0.0 0\nC 1\n0.0 0\n",
    "nbsp-count-mismatch": "2\nA 2\n0.0 0\n1.0\xa02\xa0B\nB 1\n0.0 0\n",
    "ideographic-space-eof": "2\nA\u30002\n0.0\u30000\n",
}


@pytest.mark.parametrize("text", PARSE_ERROR_CASES.values(), ids=PARSE_ERROR_CASES.keys())
def test_parse_errors_match_reference(text):
    with pytest.raises(ValueError) as want:
        reference_parse_scores(text)
    with pytest.raises(type(want.value)) as got:
        parse_scores(text)
    assert type(got.value) is type(want.value)
    assert getattr(got.value, "line_no", None) == getattr(want.value, "line_no", None)
    assert str(got.value) == str(want.value)
    with pytest.raises((ValueError, LookupError)):
        scores_io._parse_well_formed(text)


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
    assert all(t.set_count(i) == 1 and contains(t, i, 0) for i in range(3))


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


@pytest.mark.parametrize("count", [0, 2, 4])
def test_bic_rejects_candidate_parents_of_the_wrong_length(count):
    data = DiscreteDataset(("A", "B", "C"), np.array([[0, 1, 1], [1, 0, 0]]), (2, 2, 2))
    with pytest.raises(ValueError, match=f"must list 3 sets, got {count}"):
        bic_scores(data, 1, candidate_parents=[0] * count)


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


# The default path; one set per count chunk and per likelihood pass; passes
# that span several small count chunks; every set counted sparsely; half
# tables of one set at a time over blocks of 512 rows.
BIC_PATHS = [
    {},
    {"_CHUNK_CODES": 1},
    {"_CHUNK_CODES": 256},
    {"_SPARSE_CELLS_PER_ROW": 0},
    {"_HALF_CODES": 1024},
]


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


def reference_families_bic_scores(data, max_indegree, candidate_parents=None):
    """The families-dict bookkeeping that the bulk family arrays replaced:
    one (child, parents) family at a time, filed under its sorted variable
    set and grouped by arity signature, on the library's count and
    likelihood kernels."""
    n = data.n
    full = (1 << n) - 1
    families = {}
    for i in range(n):
        cand = full & ~(1 << i) if candidate_parents is None else candidate_parents[i]
        elems = list(NodeSet(cand))
        for size in range(min(max_indegree, len(elems)) + 1):
            for combo in combinations(elems, size):
                u = bisect_left(combo, i)
                families.setdefault(combo[:u] + (i,) + combo[u:], []).append(u)
    by_shape = {}
    for var_set in families:
        by_shape.setdefault(tuple(data.arities[j] for j in var_set), []).append(var_set)
    m = data.m
    cols = np.ascontiguousarray(data.rows.T)
    half_log_m = 0.5 * math.log(m)
    chunk = max(1, scores_io._CHUNK_CODES // m)
    ranked = [np.unique(col, return_inverse=True) for col in cols]
    entries = [{} for _ in range(n)]
    for arities, var_sets in by_shape.items():
        cells = math.prod(arities)
        if cells > scores_io._SPARSE_CELLS_PER_ROW * m:
            lls = [
                {u: scores_io._sparse_log_likelihood(ranked, v, u) for u in families[v]}
                for v in var_sets
            ]
        else:
            step = max(1, scores_io._CHUNK_CODES // cells)
            lls = chain.from_iterable(
                scores_io._log_likelihoods(
                    scores_io._count_tables(cols, arities, var_sets[lo : lo + step], chunk),
                    arities,
                ).tolist()
                for lo in range(0, len(var_sets), step)
            )
        penalty = [half_log_m * ((r - 1) * (cells // r)) for r in arities]
        for var_set, row in zip(var_sets, lls):
            set_mask = sum(1 << j for j in var_set)
            for u in families[var_set]:
                child = var_set[u]
                entries[child][set_mask ^ (1 << child)] = row[u] - penalty[u]
    return LocalScoreTable(n, entries, data.names)


@pytest.mark.parametrize("patch", BIC_PATHS)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_bulk_families_match_families_dict_reference(patch, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 7))
    m = data.draw(st.integers(1, 200))
    dataset = _random_dataset(rng, n, m, copies=data.draw(st.booleans()))
    max_indegree = data.draw(st.integers(0, n))
    candidates = None
    if data.draw(st.booleans()):
        candidates = [data.draw(st.integers(0, (1 << n) - 1)) & ~(1 << i) for i in range(n)]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(scores_io, name, value)
        got = bic_scores(dataset, max_indegree, candidate_parents=candidates)
        want = reference_families_bic_scores(dataset, max_indegree, candidates)
    assert got == want and got.names == want.names


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


def reference_chunk_log_likelihoods(cols, arities, var_sets):
    """One count chunk's (g, s) log-likelihoods: the per-chunk likelihood
    pass that the grouped pass replaced."""
    g, s = var_sets.shape
    cells = math.prod(arities)
    codes = cols[var_sets[:, 0]] + np.arange(0, g * cells, cells)[:, None]
    weight = 1
    for t in range(1, s):
        weight *= arities[t - 1]
        codes += cols[var_sets[:, t]] * weight
    table = np.bincount(codes.ravel(), minlength=g * cells).reshape(g, *arities[::-1])
    nonzero = np.count_nonzero(table.reshape(g, cells), axis=1)
    order = np.argsort(nonzero, kind="stable")
    table = table[order].astype(np.float64)
    terms = np.empty((s, int(nonzero.sum())))
    for u in range(s):
        counts = np.moveaxis(table, s - u, -1).reshape(g, -1, arities[u])
        totals = counts.sum(axis=2, keepdims=True)
        nz = counts > 0
        hits = counts[nz]
        terms[u] = hits * np.log(hits / np.broadcast_to(totals, counts.shape)[nz])
    lls = np.empty((g, s))
    lengths, sizes = np.unique(nonzero, return_counts=True)
    row = col = 0
    for length, size in zip(lengths.tolist(), sizes.tolist()):
        block = terms[:, col : col + size * length].reshape(s, size, length)
        lls[order[row : row + size]] = block.sum(axis=2).T
        row += size
        col += size * length
    return lls


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_grouped_likelihood_pass_matches_per_chunk_reference(data):
    # One pass over many count chunks gives each set the bits that a pass
    # over its own chunk, or over the set alone, gives it.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 7))
    m = data.draw(st.integers(1, 400))
    dataset = _random_dataset(rng, n, m, copies=data.draw(st.booleans()))
    size = data.draw(st.integers(1, n))
    var_sets = [
        combo
        for combo in combinations(range(n), size)
        if tuple(dataset.arities[j] for j in combo)
        == tuple(dataset.arities[j] for j in range(size))
    ] or [tuple(range(size))]
    arities = tuple(dataset.arities[j] for j in var_sets[0])
    cols = np.ascontiguousarray(dataset.rows.T)
    chunk = data.draw(st.integers(1, len(var_sets)))
    got = scores_io._log_likelihoods(
        scores_io._count_tables(cols, arities, var_sets, chunk), arities
    )
    want = np.concatenate(
        [
            reference_chunk_log_likelihoods(cols, arities, np.array(var_sets[lo : lo + chunk]))
            for lo in range(0, len(var_sets), chunk)
        ]
    )
    alone = np.concatenate(
        [reference_chunk_log_likelihoods(cols, arities, np.array([v])) for v in var_sets]
    )
    assert got.tobytes() == want.tobytes() == alone.tobytes()


# (arities, chunk): chunk * cells one below and at 2**16, where the codes
# widen from uint16 to uint32; s = 1, 3 and 5, so the halves are uneven.
NARROW_CODE_CASES = [
    ((15,), 4369),
    ((16,), 4096),
    ((17, 3, 5), 257),
    ((4, 4, 4), 1024),
    ((3, 1, 5, 17, 1), 257),
    ((2, 4, 2, 4, 2), 512),
]


@pytest.mark.parametrize("arities, chunk", NARROW_CODE_CASES)
def test_narrow_codes_match_per_chunk_reference(arities, chunk):
    # Three columns per position; a set takes position t from block b_t,
    # with b nondecreasing, so its variables ascend and its halves recur.
    s, cells = len(arities), math.prod(arities)
    rng = np.random.default_rng(cells)
    cols = np.array([rng.integers(arities[j % s], size=60) for j in range(3 * s)])
    var_sets = np.array(
        [
            [t + s * b for t, b in enumerate(blocks)]
            for blocks in combinations_with_replacement(range(3), s)
        ]
    )
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
        table = scores_io._count_tables(cols, arities, var_sets, chunk)
    wide = chunk * cells == 2**16
    assert {c.args[0].dtype for c in bincount.call_args_list} == {
        np.dtype(np.uint32 if wide else np.uint16)
    }
    if s > 1:
        # Some parent configuration never occurs: its ratio is 0 / 0.
        assert (table.sum(axis=1) == 0).any()
    got = scores_io._log_likelihoods(table, arities)
    want = reference_chunk_log_likelihoods(cols, arities, var_sets)
    assert got.tobytes() == want.tobytes()


def _independent_bic(rows, child, parents):
    """(log-likelihood, penalty) of one family from np.unique over the raw
    rows, arities max+1."""
    m = rows.shape[0]
    joint, counts = np.unique(rows[:, [*parents, child]], axis=0, return_counts=True)
    totals = m
    if parents:
        _, parent_of = np.unique(joint[:, :-1], axis=0, return_inverse=True)
        parent_of = parent_of.ravel()
        totals = np.bincount(parent_of, weights=counts)[parent_of]
    ll = float((counts * np.log(counts / totals)).sum())
    arity = [int(v) + 1 for v in rows.max(axis=0)]
    params = (arity[child] - 1) * math.prod(arity[j] for j in parents)
    return ll, 0.5 * math.log(m) * params


def test_bic_huge_state_indices_are_ranked_before_combining():
    # States up to ~4e17: config * arity + state would wrap around int64.
    rng = np.random.default_rng(0)
    rows = rng.integers(40, size=(2000, 3)) * 10**16
    rows[:, 2] = rng.integers(2, size=2000)
    text = "A,B,C\n" + "".join(",".join(map(str, r)) + "\n" for r in rows.tolist())
    dataset = DiscreteDataset.from_csv(text)
    table = bic_scores(dataset, 2)
    assert table.total_entries == 3 * 4
    for i in range(3):
        for mask, score in table.items(i):
            ll, penalty = _independent_bic(rows, i, tuple(NodeSet(mask)))
            # The likelihood must hold to 1e-9, up to the penalty's float grid.
            slack = 1e-9 * abs(ll) + 2 * math.ulp(penalty)
            assert abs(score - (ll - penalty)) <= slack, (i, mask)


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


def test_bic_half_code_tables_stay_within_their_budget():
    # 200,000 rows: the half tables of all 495 four-variable sets at once
    # would hold 132 halves * m codes, far over the budget.
    rng = np.random.default_rng(0)
    m, n = 200_000, 12
    rows = rng.integers(3, size=(m, n))
    dataset = DiscreteDataset(tuple(f"V{j}" for j in range(n)), rows, (3,) * n)
    chunk = max(1, scores_io._CHUNK_CODES // m)
    itemsize = np.min_scalar_type(chunk * 3**4).itemsize
    tracemalloc.start()
    try:
        table = bic_scores(dataset, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total_entries == n * sum(math.comb(n - 1, d) for d in range(4))
    # What counting holds at once: the columns' copy in the codes' dtype;
    # the half tables, at most _HALF_CODES codes, plus either the digit
    # being added or one chunk's codes and their take, at most as many
    # again; bincount's intp copy of one chunk's codes; one pass's count
    # table; and 1 MiB for the O(F) family arrays.
    bound = (
        rows.size * itemsize
        + 2 * scores_io._HALF_CODES * itemsize
        + 8 * chunk * m
        + 8 * scores_io._CHUNK_CODES
        + 2**20
    )
    assert peak <= bound


# (rows, message): a cell that is not an integer is named, not truncated or
# cast with a RuntimeWarning; one beyond int64 fails the range check rather
# than overflowing in numpy.
BAD_CELLS = [
    ([[0.5, 1.9], [1.2, 0.0]], "cell rows[0, 0] is 0.5, not an integer"),
    ([[0, 1], [float("nan"), 0]], "cell rows[1, 0] is nan, not an integer"),
    ([[0, 2**70]], "column 'B' has values outside 0..1"),
]


@pytest.mark.parametrize("rows, message", BAD_CELLS, ids=["fraction", "nan", "beyond-int64"])
def test_dataset_rejects_cells_that_are_not_integers(rows, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        DiscreteDataset(("A", "B"), rows, (2, 2))


def test_dataset_rejects_an_arity_that_is_not_an_integer():
    # Accepted before, and bic_scores then failed on it with a TypeError.
    with pytest.raises(DatasetError, match=re.escape("arities[0] is 2.5, not an integer")):
        DiscreteDataset(("A", "B"), [[0, 1], [1, 0]], (2.5, 2))


def test_dataset_rejects_an_arity_above_2_63():
    # A cell of 2**63 passed the range check under a larger arity and then
    # failed the int64 cast with numpy's OverflowError.
    with pytest.raises(DatasetError, match=re.escape("column 'A' has arity above 2**63")):
        DiscreteDataset(("A",), [[2**63]], (2**64,))
    assert DiscreteDataset(("A",), [[2**63 - 1]], (2**63,)).arities == (2**63,)


def test_dataset_takes_integer_and_bool_cells_as_int64():
    want = [[0, 1], [1, 0]]
    for rows in (want, np.array(want, dtype=np.uint8), np.array(want, dtype=bool),
                 np.array(want, dtype=np.uint64), np.array(want, dtype=object),
                 [[np.int16(0), 1], [True, 0]]):
        data = DiscreteDataset(("A", "B"), rows, (np.uint8(2), 2))
        assert data.rows.dtype == np.int64 and data.rows.tolist() == want
        assert data.arities == (2, 2) and all(type(r) is int for r in data.arities)


def test_from_csv_infers_arity_and_checks_cells():
    d = DiscreteDataset.from_csv("A,B\n0,2\n1,0\n0,1\n")
    assert d.arities == (2, 3)
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,B\n0\n")
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,B\n0,x\n")
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,A\n0,1\n")
    with pytest.raises(DatasetError):
        DiscreteDataset.from_csv("A,B\n1,99999999999999999999\n")
    # Names a score file cannot hold: the error names the column.
    for text, column in (
        ("a b,c\n0,1\n", "column 1 name 'a b'"),
        ("#a,c\n0,1\n", "column 1 name '#a'"),
        ("a,,c\n0,1,0\n", "column 2 name ''"),
    ):
        with pytest.raises(DatasetError, match=column):
            DiscreteDataset.from_csv(text)


# Cells int() and numpy's int64 parse treat alike, except the overflow ones;
# quoted cells, which csv.reader unquotes and a bulk reader need not; and
# \x1c-\x1f, which int() refuses and np.loadtxt strips as whitespace.
CSV_CELLS = st.sampled_from(
    ["0", "1", "2", " 3", "3 ", "+3", "-1", "1_0", "_1", "\u0663", "3.0", "1e3", "x", "",
     " ", str(2**63 - 1), str(2**63), str(-(2**63) - 1), "9" * 25, '"1"', '"1,2"', "#1"]
)
# Cells both readers take as integers, or (\x1c-\x1f) only np.loadtxt does.
CSV_NEAR_INTS = st.sampled_from(["0", "1", "2", " 3", "+1", "\x0c1", "1\x85", "1\x1c", "\x1f2"])
# Whole rows csv.reader skips or reads as one cell: blank, whitespace-only, '#'-led.
CSV_ROWS = st.sampled_from(["", "   ", "\t", " , ", "#", "#0,1", "# x"])
# The first header name: plain, quoted, or quoted around a comma or a line break.
CSV_FIRST_NAMES = st.sampled_from(["X0", '"X0"', '"X0,Y"', '"X\n0"', '"X\r\n0"'])
# Drawn per line: io.StringIO splits lines on \n only, so a row ended by a
# bare \r runs into the next one, where csv.reader faults in the body.
CSV_LINE_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def _outcome(parse, text):
    try:
        data = parse(text)
    except DatasetError as err:
        return type(err).__name__, str(err)
    return data.names, data.rows.tolist(), data.arities


@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.tuples(
                st.lists(CSV_CELLS, min_size=width - 1, max_size=width + 1).map(",".join)
                | st.lists(CSV_NEAR_INTS, min_size=width, max_size=width).map(",".join)
                | CSV_ROWS,
                CSV_LINE_ENDINGS,
            ),
            max_size=6,
        ).map(lambda rows: (width, rows))
    ),
    CSV_FIRST_NAMES,
    CSV_LINE_ENDINGS,
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bulk_csv_parse_matches_per_row_parse(case, first_name, ending):
    width, rows = case
    text = ",".join([first_name, *(f"X{j}" for j in range(1, width))]) + ending
    text += "".join(row + row_ending for row, row_ending in rows)
    assert _outcome(DiscreteDataset.from_csv, text) == _outcome(from_csv_by_rows, text)


@pytest.mark.parametrize("text", ["A,B\n", "A,B", "A,B\n\n\n", "A,B\r\n\r\n", "A,B\n  \n\t\n"])
def test_from_csv_without_data_rows_warns_nothing(text):
    # np.loadtxt warns on an empty body; the warning must not escape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match="CSV has no data rows"):
            DiscreteDataset.from_csv(text)


def test_from_csv_keeps_csv_readers_field_size_limit():
    # np.loadtxt has no field size limit; csv.reader refuses a longer field.
    text = "A\n0\n" + " " * csv.field_size_limit() + "1\n"
    with pytest.raises(DatasetError, match="row 3: field larger than field limit"):
        DiscreteDataset.from_csv(text)
    assert _outcome(DiscreteDataset.from_csv, text) == _outcome(from_csv_by_rows, text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("A,B\n0,1\r2,3\n", "row 2: new-line character seen in unquoted field"),
        (" " * (csv.field_size_limit() + 1) + "A\n0\n",
         rf"row 1: field larger than field limit \({csv.field_size_limit()}\)"),
    ],
    ids=["bare-cr-in-a-row", "long-field-in-the-header"],
)
def test_from_csv_raises_csv_reader_faults_as_dataset_errors(text, message):
    with pytest.raises(DatasetError, match=message):
        DiscreteDataset.from_csv(text)
    assert _outcome(DiscreteDataset.from_csv, text) == _outcome(from_csv_by_rows, text)


def test_prune_drops_dominated_singleton():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(3, [{0: 0.0, 0b100: -1.0}, {0: 0.0}, {0: 0.0}])
    p = prune_dominated(t)
    assert p.set_count(0) == 1 and contains(p, 0, 0)


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
    assert contains(p, 0, 0b1100) and not contains(p, 0, 0b0100)
    assert is_closed_under_inclusion(t)
    assert not is_closed_under_inclusion(p)


def test_prune_ties_keep_the_subset():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(2, [{0: 1.0, 0b10: 1.0}, {0: 0.0}], names=("A", "B"))
    p = prune_dominated(t)
    assert p.set_count(0) == 1 and contains(p, 0, 0)
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
    # Every (node, allowed set) pair, one choose_parents call per node.
    for i in range(n):
        assert np.array_equal(best_scores_in_every_set(p, i), best_scores_in_every_set(t, i))


def test_closure_detects_missing_middle_layer():
    from qbnsl.instance import LocalScoreTable

    t = LocalScoreTable(3, [{0: 0.0, 0b110: 1.0}, {0: 0.0}, {0: 0.0}])
    assert not is_closed_under_inclusion(t)
    t2 = LocalScoreTable(
        3, [{0: 0.0, 0b010: 0.5, 0b100: 0.5, 0b110: 1.0}, {0: 0.0}, {0: 0.0}]
    )
    assert is_closed_under_inclusion(t2)


# Reference: the per-node dict forms of pruning and the closure check that
# now read the table's flat arrays.


def reference_prune_dominated(table):
    entries = []
    for i in range(table.n):
        source = dict(table.items(i))
        kept = {}
        for mask, score in table.items(i):
            dominated = False
            sub = (mask - 1) & mask
            while True:
                other = source.get(sub)
                if other is not None and other >= score and sub != mask:
                    dominated = True
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            if not dominated or mask == 0:
                kept[mask] = score
        entries.append(kept)
    return LocalScoreTable(table.n, entries, table.names)


def reference_is_closed_under_inclusion(table):
    for i in range(table.n):
        listed = {mask for mask, _ in table.items(i)}
        for mask in listed:
            bits = mask
            while bits:
                low = bits & -bits
                if (mask ^ low) not in listed:
                    return False
                bits ^= low
    return True


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prune_and_closure_match_dict_reference(data):
    n = data.draw(st.integers(1, 6))
    scores = st.sampled_from([-1.0, 0.0, 1.0, 2.0, float("-inf")])
    entries = []
    for i in range(n):
        others = ((1 << n) - 1) ^ (1 << i)
        node = {0: data.draw(scores)}
        for mask in data.draw(st.lists(st.integers(0, others), max_size=20)):
            node[mask & others] = data.draw(scores)
        entries.append(node)
    t = LocalScoreTable(n, entries, tuple(f"V{i}" for i in range(n)))
    pruned = prune_dominated(t)
    assert pruned == reference_prune_dominated(t) and pruned.names == t.names
    assert is_closed_under_inclusion(t) == reference_is_closed_under_inclusion(t)
    assert is_closed_under_inclusion(pruned) == reference_is_closed_under_inclusion(pruned)
