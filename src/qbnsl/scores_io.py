"""Score-file parsing/serialization, BIC scoring of discrete data, pruning.

Score file layout (whitespace-separated, ``#`` starts a comment line,
blank lines are ignored)::

    n
    NAME K            per variable: its name and its record count
    SCORE P P1 .. PP  K records: score, parent count, parent names

A score is finite or ``-inf`` (a parent set that never wins), the rule a
:class:`LocalScoreTable` holds; ``inf`` and ``nan`` are syntax errors.

Parent references may point at variables declared later in the file, so
parsing resolves names once all are read.  Serialization writes variables
in index order and records in (cardinality, bitmask) order with ``repr``
floats, which makes parse/write a lossless round trip.  The writer formats
each distinct parent set's text once.  The parser reads a well-formed file
in one bulk pass onto the table's flat arrays, resolving each distinct
parent-list text once; on a fault it reads the file record by record, so
errors name their line.  ``from_csv`` reads with ``np.loadtxt`` first.

BIC fitting builds its families (i, P) as flat arrays, counts each
variable set S = P | {i} once and reads every family filed under S from
that table, in one gather over (set, position of i) at the end.  Sets
with the same arity signature share one ``bincount`` per chunk of at
most ``_CHUNK_CODES`` codes (sets times rows), and one likelihood pass
per group of at most ``_CHUNK_CODES`` count cells.  A set's codes are
the sum of its two halves' codes: each distinct half (a set's first
ceil(s/2) variables, or the rest) is coded once over the rows, in the
narrowest unsigned dtype that holds chunk * cells, and sets are taken
in slices whose half tables hold at most ``_HALF_CODES`` codes.  A set
with more than ``_SPARSE_CELLS_PER_ROW`` dense cells per row is counted
over its occurring cells with ``np.unique``, so memory stays O(m); its
columns' states are ranked first, so large state indices cannot
overflow int64.  Counts are integers below 2**53, so a configuration's
total is exact in any summation order; the terms and their sum are
rounded, so both paths visit the nonzero cells in a family's own cell
order and repeat its float operations, including ``ndarray.sum``'s
pairwise order.  The scores are thus bit-identical to counting each
family alone: score-equivalent DAGs tie exactly, and the DP's witness
depends on the last bit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Sequence

import numpy as np

from .instance import MAX_NODES, LocalScoreTable, NodeSet, _integer_array


class ScoreFileError(ValueError):
    """Base class for score-file format violations."""


class ScoreSyntaxError(ScoreFileError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownVariableError(ScoreFileError):
    def __init__(self, line_no: int, name: str) -> None:
        super().__init__(f"line {line_no}: unknown variable {name!r}")
        self.line_no = line_no
        self.name = name


class SelfParentError(ScoreFileError):
    def __init__(self, line_no: int, name: str) -> None:
        super().__init__(f"line {line_no}: variable {name!r} lists itself as a parent")
        self.line_no = line_no
        self.name = name


class DuplicateParentSetError(ScoreFileError):
    def __init__(self, line_no: int, name: str) -> None:
        super().__init__(f"line {line_no}: duplicate parent set for variable {name!r}")
        self.line_no = line_no
        self.name = name


class MissingEmptySetError(ScoreFileError):
    def __init__(self, name: str) -> None:
        super().__init__(f"variable {name!r} has no empty-parent-set record")
        self.name = name


class TooManyEntriesError(ValueError):
    """Score generation would exceed the configured entry budget."""


class DatasetError(ValueError):
    """Raised for malformed discrete datasets."""


# BIC counting budget: one bincount per chunk of same-shaped variable sets
# covers at most this many codes (g sets * m rows), po_dp's chunk budget;
# one likelihood pass covers at most this many count cells.  Codes are held
# in the narrowest unsigned dtype that holds chunk * cells, uint16 for
# 3-ary sets of up to four variables over a few thousand rows.
_CHUNK_CODES = 1 << 16
# The half-code tables of one slice of sets over one block of rows hold at
# most this many codes (distinct halves * rows), whatever m and n are.
_HALF_CODES = 1 << 21
# A set with more dense cells than this many per row is counted sparsely.
_SPARSE_CELLS_PER_ROW = 8


def _bad_name(name: str) -> bool:
    """True unless the name is one score-file token: nonempty, no whitespace, no leading '#'."""
    return name.split() != [name] or name.startswith("#")


def _parse_well_formed(data: str) -> LocalScoreTable:
    """The table of a well-formed score file; a fault raises ValueError or LookupError.

    The records of all blocks are cut at their first space in one ``map``,
    scores go through ``float``, and each distinct parent-list text is
    resolved once.  ``from_arrays`` checks self-parents, scores and empty
    sets on the mask arrays (a record count below 1 leaves its variable
    without the empty set); a duplicate set is an entry it folded away.
    """
    lines = list(filter(None, map(str.strip, data.splitlines())))
    if "#" in data:
        lines = [line for line in lines if line[0] != "#"]
    n, pos, names, blocks = int(lines[0]), 1, [], []
    for _ in range(n):
        name, count = lines[pos].split()
        names.append(name)
        blocks.append(lines[pos + 1 : pos + 1 + int(count)])
        pos += 1 + int(count)
    if pos != len(lines):
        raise ValueError("truncated file or trailing content")
    records = list(chain.from_iterable(blocks))
    tails = list(map(itemgetter(2), map(str.partition, records, repeat(" "))))
    bit = {name: 1 << i for i, name in enumerate(names)}
    resolved: dict[str, int] = {}
    for tail in set(tails):
        count, *parents = tail.split()
        mask = sum(map(bit.__getitem__, parents))
        # A repeated name carries into a higher bit, so fewer bits are set.
        if not mask.bit_count() == len(parents) == int(count):
            raise ValueError("parent list")
        resolved[tail] = mask
    nodes = np.repeat(np.arange(n), list(map(len, blocks)))
    masks = list(map(resolved.__getitem__, tails))
    # A record less its tail is its score and a space, which float() strips.
    scores = list(map(float, map(str.removesuffix, records, tails)))
    table = LocalScoreTable.from_arrays(n, nodes, masks, scores, names)
    if table.total_entries != len(masks):
        raise ValueError("duplicate parent set")
    return table


def parse_scores(data: str | bytes) -> LocalScoreTable:
    """Parse a score file into a :class:`LocalScoreTable` (names attached).

    A well-formed file is read by the bulk pass, with no per-record Python
    loop.  When that pass finds a fault, the file is read again record by
    record, and the first check that fails raises, naming its line.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    with contextlib.suppress(ValueError, LookupError):
        return _parse_well_formed(data)
    lines = [
        (line_no, stripped)
        for line_no, raw in enumerate(data.splitlines(), start=1)
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]
    if not lines:
        raise ScoreSyntaxError(1, "empty score file")
    line_no, text = lines[0]
    tokens = text.split()
    if len(tokens) != 1:
        raise ScoreSyntaxError(line_no, "expected the variable count alone")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ScoreSyntaxError(line_no, f"invalid variable count {tokens[0]!r}") from None
    if not 1 <= n <= MAX_NODES:
        raise ScoreSyntaxError(line_no, f"variable count must be in 1..{MAX_NODES}")

    # First pass keeps parent lists as names: forward references are legal.
    names: list[str] = []
    records: list[list[tuple[int, list[str]]]] = []
    scores: list[float] = []
    pos = 1
    for _ in range(n):
        if pos == len(lines):
            raise ScoreSyntaxError(lines[-1][0], "unexpected end of file")
        line_no, text = lines[pos]
        tokens = text.split()
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
        block = lines[pos + 1 : pos + 1 + count]
        pos += 1 + len(block)
        records.append([])
        for line_no, text in block:
            fields = text.split()
            if len(fields) < 2:
                raise ScoreSyntaxError(line_no, "expected 'SCORE COUNT [PARENTS...]'")
            score_tok, p_count_tok, *parents = fields
            try:
                score = float(score_tok)
            except ValueError:
                raise ScoreSyntaxError(line_no, f"invalid score {score_tok!r}") from None
            if not score < math.inf:
                raise ScoreSyntaxError(line_no, "score must be finite or -inf")
            try:
                p_count = int(p_count_tok)
            except ValueError:
                raise ScoreSyntaxError(line_no, f"invalid parent count {p_count_tok!r}") from None
            if p_count != len(parents):
                raise ScoreSyntaxError(
                    line_no,
                    f"parent count {p_count} does not match {len(parents)} listed parents",
                )
            records[-1].append((line_no, parents))
            scores.append(score)
        if len(block) < count:
            raise ScoreSyntaxError(lines[-1][0], "unexpected end of file")
    if pos != len(lines):
        raise ScoreSyntaxError(lines[pos][0], "trailing content after the last record")

    # Names resolve in listed order, so the first bad name raises.
    index = {name: i for i, name in enumerate(names)}
    masks: list[int] = []
    for i, var_records in enumerate(records):
        seen: set[int] = set()
        for line_no, parents in var_records:
            mask = 0
            for p_name in parents:
                if p_name == names[i]:
                    raise SelfParentError(line_no, p_name)
                if p_name not in index:
                    raise UnknownVariableError(line_no, p_name)
                if mask >> index[p_name] & 1:
                    raise ScoreSyntaxError(line_no, f"parent {p_name!r} repeated")
                mask |= 1 << index[p_name]
            if mask in seen:
                raise DuplicateParentSetError(line_no, names[i])
            seen.add(mask)
            masks.append(mask)
        if 0 not in seen:
            raise MissingEmptySetError(names[i])
    nodes = np.repeat(np.arange(n), [len(var_records) for var_records in records])
    return LocalScoreTable.from_arrays(n, nodes, masks, scores, names)


def write_scores(table: LocalScoreTable) -> str:
    """Serialize a table to score-file text; inverse of :func:`parse_scores`.

    Variables are written under the table's names, or X0, X1, .. if it has
    none; a name that is not one score-file token raises ``ValueError``.
    Reads the table's flat arrays; each distinct parent set's
    ``COUNT NAME..`` text is formatted once, and a record is one f-string
    around its score's ``repr``, which takes most of the time.
    """
    names = table.names or tuple(f"X{i}" for i in range(table.n))
    if bad := [name for name in names if _bad_name(name)]:
        raise ValueError(f"variable name {bad[0]!r} is empty, has whitespace or starts with '#'")
    masks = table.masks.tolist()
    tails = {
        mask: " ".join([str(mask.bit_count()), *(names[j] for j in NodeSet(mask))])
        for mask in set(masks)
    }
    scores = table.scores.tolist()
    records = [f"{score!r} {tails[mask]}" for mask, score in zip(masks, scores)]
    bounds = table.offsets.tolist()
    out = [str(table.n)]
    for i in range(table.n):
        out.append(f"{names[i]} {bounds[i + 1] - bounds[i]}")
        out.extend(records[bounds[i] : bounds[i + 1]])
    return "\n".join(out) + "\n"


@dataclass(frozen=True, eq=False)
class DiscreteDataset:
    """Complete discrete data: named columns, integer states, known arities."""

    names: tuple[str, ...]
    rows: np.ndarray
    arities: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = _integer_array(self.rows, "cell rows[{}]", DatasetError)
        if rows.ndim != 2:
            raise DatasetError("rows must be a 2-D array")
        m, n = rows.shape
        if m < 1:
            raise DatasetError("dataset needs at least one row")
        if not 1 <= n <= MAX_NODES:
            raise DatasetError(f"column count must be in 1..{MAX_NODES}")
        if len(self.names) != n or len(set(self.names)) != n:
            raise DatasetError("column names must be unique and match the row width")
        for j, name in enumerate(self.names):
            if _bad_name(name):
                raise DatasetError(
                    f"column {j + 1} name {name!r} is empty, has whitespace or starts with '#'"
                )
        if len(self.arities) != n:
            raise DatasetError("arities must list one value per column")
        arities = _integer_array(self.arities, "arities[{}]", DatasetError).tolist()
        for j, r in enumerate(arities):
            if r < 1:
                raise DatasetError(f"column {self.names[j]!r} has arity < 1")
            if r > 2**63:  # so every state index fits int64
                raise DatasetError(f"column {self.names[j]!r} has arity above 2**63")
            col = rows[:, j]
            if col.min() < 0 or col.max() >= r:
                raise DatasetError(f"column {self.names[j]!r} has values outside 0..{r - 1}")
        object.__setattr__(self, "arities", tuple(arities))
        object.__setattr__(self, "rows", rows.astype(np.int64, copy=False))

    @property
    def m(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n(self) -> int:
        return int(self.rows.shape[1])

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteDataset":
        """Read a header + integer-cell CSV; each column's arity is its max + 1.

        The body is read by ``np.loadtxt`` first; a body it refuses is read
        row by row by ``csv.reader``, and the first bad row raises.  A
        ``csv.Error`` (a field over ``csv.field_size_limit()``, a bare
        ``\r`` in a row) raises as a ``DatasetError`` naming its line.
        """
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("empty CSV") from None
        except csv.Error as exc:
            raise DatasetError(f"row {reader.line_num}: {exc}") from None
        names = tuple(h.strip() for h in header)
        # loadtxt reads a subset of the cells int() reads, to the same values;
        # it refuses quotes, a bare '\r', overflow and (by warning) no rows.
        # It strips \x1c-\x1f, which int() refuses, and has no field size
        # limit, which csv.reader has: texts that could see either skip it.
        data = None
        if not any(map(text.__contains__, "\x1c\x1d\x1e\x1f")) and max(
            map(len, text.split("\n"))
        ) <= csv.field_size_limit():
            with warnings.catch_warnings(), contextlib.suppress(ValueError, UserWarning):
                warnings.simplefilter("error", UserWarning)
                data = np.loadtxt(io.StringIO(text), np.int64, comments=None, delimiter=",",
                                  skiprows=reader.line_num, ndmin=2)
        if data is None or data.shape[1] != len(names):
            rows = []
            try:
                for row_no, row in enumerate(reader, start=2):
                    if not row or all(not c.strip() for c in row):
                        continue
                    if len(row) != len(names):
                        raise DatasetError(f"row {row_no}: expected {len(names)} cells")
                    try:
                        rows.append([int(c) for c in row])
                    except ValueError:
                        raise DatasetError(f"row {row_no}: non-integer cell") from None
            except csv.Error as exc:
                raise DatasetError(f"row {reader.line_num}: {exc}") from None
            if not rows:
                raise DatasetError("CSV has no data rows")
            try:
                data = np.array(rows, dtype=np.int64)
            except OverflowError:
                raise DatasetError("cells must be state indices below 2**63") from None
        if data.min() < 0:
            raise DatasetError("cells must be non-negative state indices")
        return cls(names, data, tuple(int(v) + 1 for v in data.max(axis=0)))


def _half_codes(
    block: np.ndarray, halves: np.ndarray, arities: tuple[int, ...], weight: int
) -> np.ndarray:
    """Codes of each row of ``halves`` over the rows of ``block``, shape (h, rows).

    Each half's first variable is its least significant digit, of value
    ``weight``; ``block`` holds the columns in the codes' dtype.
    """
    codes = np.zeros((len(halves), block.shape[1]), dtype=block.dtype)
    for t, r in enumerate(arities):
        digit = block[halves[:, t]]
        digit *= weight
        codes += digit
        weight *= r
    return codes


def _distinct_halves(halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``halves`` and each row's index among them.

    A row lists distinct variables in ascending order, so its bitmask
    identifies it.
    """
    keys = (1 << halves).sum(axis=1)
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return halves[first], index


def _count_tables(
    cols: np.ndarray, arities: tuple[int, ...], var_sets: np.ndarray, chunk: int
) -> np.ndarray:
    """Count tables of g same-shaped sets, shape (g, *reversed(arities)).

    ``var_sets`` is (g, s), each row a set's variables in ascending order;
    each set's first variable is its least significant digit.  Codes are
    held in the narrowest unsigned dtype that holds chunk * cells, and the
    sets are counted by :func:`_count_slice` in slices whose half-code
    tables over one block of rows hold at most ``_HALF_CODES`` codes.
    """
    var_sets = np.asarray(var_sets)
    cells = math.prod(arities)
    narrow = np.ascontiguousarray(cols, dtype=np.min_scalar_type(chunk * cells))
    # A slice has at most two distinct halves per set.
    rows = min(narrow.shape[1], _HALF_CODES // 2)
    per_slice = _HALF_CODES // (2 * rows)
    counts = np.zeros((len(var_sets), cells), dtype=np.int64)
    for lo in range(0, len(var_sets), per_slice):
        for start in range(0, narrow.shape[1], rows):
            _count_slice(
                counts[lo : lo + per_slice],
                narrow[:, start : start + rows],
                arities,
                var_sets[lo : lo + per_slice],
                chunk,
            )
    return counts.reshape(-1, *arities[::-1])


def _count_slice(
    out: np.ndarray, block: np.ndarray, arities: tuple[int, ...], var_sets: np.ndarray, chunk: int
) -> None:
    """Add the sets' counts over the rows of ``block`` to ``out``, shape (g, cells).

    A set's codes are its low half's codes (its first ceil(s/2) variables)
    plus its high half's, pre-weighted, plus its offset in its chunk: each
    distinct half is coded once, and each chunk of sets takes one
    ``bincount``.
    """
    cells = out.shape[1]
    split = (len(arities) + 1) // 2
    lows, low_of = _distinct_halves(var_sets[:, :split])
    highs, high_of = _distinct_halves(var_sets[:, split:])
    low = _half_codes(block, lows, arities[:split], 1)
    high = _half_codes(block, highs, arities[split:], math.prod(arities[:split]))
    offsets = np.arange(0, chunk * cells, cells, dtype=block.dtype)[:, None]
    for c in range(0, len(var_sets), chunk):
        codes = low.take(low_of[c : c + chunk], axis=0)
        codes += high.take(high_of[c : c + chunk], axis=0)
        codes += offsets[: len(codes)]
        out[c : c + len(codes)] += np.bincount(
            codes.ravel(), minlength=len(codes) * cells
        ).reshape(-1, cells)


def _log_likelihoods(table: np.ndarray, arities: tuple[int, ...]) -> np.ndarray:
    """Log-likelihoods of every member of g same-shaped sets, shape (g, s).

    ``table`` holds the sets' counts as :func:`_count_tables` lays them out.
    Entry [j, u] is the log-likelihood of set j's member u given the rest.
    """
    g, s = table.shape[0], len(arities)
    # Every family of a set has the same number L of nonzero cells.  Sets
    # sorted by L put each L's terms in one (sets, L) block per member.
    nonzero = np.count_nonzero(table.reshape(g, -1), axis=1)
    order = np.argsort(nonzero, kind="stable")
    table = table[order].astype(np.float64)
    terms = np.empty((s, int(nonzero.sum())))
    for u in range(s):
        # Parents first-least-significant, then the child: the cell order of
        # one family's own (configs, r_child) table.
        counts = np.ascontiguousarray(np.moveaxis(table, s - u, -1)).reshape(g, -1, arities[u])
        # Counts are integers below 2**53, so the totals are exact in any
        # order; the terms and their sum are not, so they keep the family's.
        totals = counts[..., 0]
        for c in range(1, arities[u]):
            totals = totals + counts[..., c]
        # Each term is hits * log(hits / totals), taken on the dense table: a
        # zero cell gives 0 * log(0) or, where its configuration never
        # occurs, 0 * log(0 / 0), and is dropped with the other zeros.
        with np.errstate(divide="ignore", invalid="ignore"):
            dense = counts * np.log(counts / totals[..., None])
        terms[u] = dense.ravel().compress(counts.ravel() > 0)
    # Contiguous rows of length L keep ndarray.sum's pairwise order.
    lls = np.empty((g, s))
    lengths, sizes = np.unique(nonzero, return_counts=True)
    row = col = 0
    for length, size in zip(lengths.tolist(), sizes.tolist()):
        block = terms[:, col : col + size * length].reshape(s, size, length)
        lls[order[row : row + size]] = block.sum(axis=2).T
        row += size
        col += size * length
    return lls


def _sparse_log_likelihood(
    ranked: list[tuple[np.ndarray, np.ndarray]], var_set: tuple[int, ...], u: int
) -> float:
    """Log-likelihood of ``var_set[u]`` given the rest, from occurring cells.

    ``ranked[j]`` is column j's ``np.unique(..., return_inverse=True)``:
    ranks keep the states' order and stay below m, whatever the arity.
    Parents are combined most significant first, re-ranking after each
    column, so codes stay below m * m and sort in the dense table's order.
    """
    config = np.zeros(len(ranked[0][1]), dtype=np.int64)
    for t in reversed(range(len(var_set))):
        if t != u:
            states, ranks = ranked[var_set[t]]
            _, config = np.unique(config * len(states) + ranks, return_inverse=True)
    states, ranks = ranked[var_set[u]]
    r_child = len(states)
    joint, counts = np.unique(config * r_child + ranks, return_counts=True)
    hits = counts.astype(np.float64)
    parent = joint // r_child
    totals = np.bincount(parent, weights=hits)[parent]
    return float((hits * np.log(hits / totals)).sum())


def bic_scores(
    data: DiscreteDataset,
    max_indegree: int,
    candidate_parents: Sequence["NodeSet | int"] | None = None,
    max_entries: int = 1_000_000,
) -> LocalScoreTable:
    """BIC local scores for every candidate parent set up to ``max_indegree``.

    score = log-likelihood - (log m)/2 * (r_i - 1) * prod_j r_j, with
    natural logs and zero-count cells contributing zero likelihood.

    Each variable set S = P | {i} is counted once, and every family filed
    under it reads its log-likelihood from that table.  Sets of one arity
    signature are counted in chunks of at most ``_CHUNK_CODES`` codes, and
    their likelihoods are taken in passes of at most ``_CHUNK_CODES``
    cells.  A set's codes add up the codes of its low and high halves,
    each distinct half coded once in narrow unsigned ints, with the half
    tables kept within ``_HALF_CODES`` codes.  A set with more than
    ``_SPARSE_CELLS_PER_ROW * m`` cells is counted over its occurring cells
    only, from ranked states, so memory stays O(m) per set.  Configuration
    totals are exact integers, summed in any order; both paths take each
    term and the terms' sum in the same order with the same float
    operations as a per-family count, so the scores are bit-identical to it.
    """
    if max_indegree < 0:
        raise ValueError("max_indegree must be non-negative")
    n = data.n
    if candidate_parents is not None and len(candidate_parents) != n:
        raise ValueError(f"candidate_parents must list {n} sets, got {len(candidate_parents)}")
    full = (1 << n) - 1
    cand_masks: list[int] = []
    for i in range(n):
        if candidate_parents is None:
            mask = full & ~(1 << i)
        else:
            mask = int(candidate_parents[i])
            if (mask >> i) & 1:
                raise ValueError(f"candidate parents of node {i} include itself")
            if mask & ~full:
                raise ValueError(f"candidate parents of node {i} out of range")
        cand_masks.append(mask)

    planned = 0
    for i in range(n):
        c = cand_masks[i].bit_count()
        planned += sum(math.comb(c, d) for d in range(min(max_indegree, c) + 1))
    if planned > max_entries:
        raise TooManyEntriesError(f"would generate {planned} entries, budget is {max_entries}")

    # Families (child i, parents P) as flat arrays, one level per parent
    # count: each family grows by every candidate above its parents' top.
    # A family reads the set S = P | {i}, at the child's position among S's
    # variables in ascending order.
    cand = np.array(cand_masks, dtype=np.int64)
    bit = 1 << np.arange(n)
    child, parent = np.arange(n), np.zeros(n, dtype=np.int64)
    levels = [(child, parent)]
    for _ in range(min(max_indegree, n - 1)):
        grown, j = np.nonzero((cand[child, None] & bit != 0) & (parent[:, None] < bit))
        child, parent = child[grown], parent[grown] | bit[j]
        levels.append((child, parent))
    child, parent = (np.concatenate(arrays) for arrays in zip(*levels))
    sets, family_set = np.unique(parent | (1 << child), return_inverse=True)
    position = np.bitwise_count(parent & ((1 << child) - 1)).astype(np.int64)
    # Sets whose variables have the same arities, in order, share a shape;
    # members[k, :s] lists set k's s variables.
    size = np.bitwise_count(sets)
    width = int(size.max())
    members = np.argsort(sets[:, None] & bit == 0, axis=1, kind="stable")[:, :width]
    distinct_arities = sorted(set(data.arities))
    ranks = np.array([distinct_arities.index(r) for r in data.arities])
    shapes = np.where(np.arange(width) < size[:, None], ranks[members], -1)
    order = np.lexsort(shapes.T)
    cuts = np.flatnonzero((shapes[order][1:] != shapes[order][:-1]).any(axis=1)) + 1

    m = data.m
    cols = data.rows.T
    half_log_m = 0.5 * math.log(m)
    chunk = max(1, _CHUNK_CODES // m)
    ranked: list[tuple[np.ndarray, np.ndarray]] = []
    ll = np.empty(members.shape)
    penalty = np.empty_like(ll)
    for group in np.split(order, cuts):
        arities = tuple(distinct_arities[r] for r in shapes[group[0]].tolist() if r >= 0)
        s = len(arities)
        cells = math.prod(arities)
        penalty[group, :s] = [half_log_m * ((r - 1) * (cells // r)) for r in arities]
        if cells > _SPARSE_CELLS_PER_ROW * m:
            if not ranked:
                ranked = [np.unique(col, return_inverse=True) for col in cols]
            for f in np.flatnonzero(np.isin(family_set, group)).tolist():
                k, u = family_set[f], position[f]
                ll[k, u] = _sparse_log_likelihood(ranked, members[k, :s].tolist(), u)
            continue
        # One likelihood pass per group of at most _CHUNK_CODES cells.
        step = max(1, _CHUNK_CODES // cells)
        for lo in range(0, len(group), step):
            rows = group[lo : lo + step]
            ll[rows, :s] = _log_likelihoods(
                _count_tables(cols, arities, members[rows, :s], chunk), arities
            )
    scores = ll[family_set, position] - penalty[family_set, position]
    return LocalScoreTable.from_arrays(n, child, parent, scores, data.names)


def prune_dominated(table: LocalScoreTable) -> LocalScoreTable:
    """Drop entries beaten by a strict subset scoring at least as well.

    Domination is judged against the input table, not against survivors,
    and ties keep the subset.  The empty set survives by construction.
    The result need not be closed under inclusion even when the input
    was: a surviving set may lose an intermediate subset.
    """
    keep: list[bool] = []
    for i in range(table.n):
        source = dict(table.items(i))
        for mask, score in source.items():
            sub, dominated = mask, False
            while sub and not dominated:  # strict subsets, down to the empty set
                sub = (sub - 1) & mask
                dominated = sub in source and source[sub] >= score
            keep.append(not dominated)
    k = np.array(keep, dtype=bool)
    return LocalScoreTable.from_arrays(
        table.n, table.nodes[k], table.masks[k], table.scores[k], table.names
    )

