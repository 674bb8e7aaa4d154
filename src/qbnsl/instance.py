"""Core domain types for decomposable-score DAG search.

Nodes are the integers 0..n-1 and node sets are immutable bitmask wrappers,
so subsets are hashable, cheap to copy, and usable as array indices.  n is
capped at 30: every subset then fits comfortably in a machine word and a
full subset-indexed array stays addressable at desk scale.

A problem instance is a :class:`LocalScoreTable`: per node i, a finite
collection of candidate parent sets J (never containing i) with a real
score s_i(J).  The table keeps every entry in one flat layout, read-only
node, bitmask and score arrays sorted by (node, cardinality, bitmask)
with per-node offsets, which bulk readers and scalar reads both slice.
A DAG's total score is the sum of its per-node local scores, which is
what every solver in this package maximizes; :func:`choose_parents` is
the one parent rule the solvers' witnesses come from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MAX_NODES = 30


class CyclicGraphError(ValueError):
    """The operation needs an acyclic graph but the input contains a cycle."""


class MissingParentSetError(LookupError):
    """A node was assigned a parent set its score table does not list."""

    def __init__(self, node: int, parents: "NodeSet") -> None:
        super().__init__(f"node {node} has no score entry for parent set {parents}")
        self.node = node
        self.parents = parents


class InstanceTooLargeError(ValueError):
    """The instance exceeds a solver's configured size cap."""


@dataclass(frozen=True, slots=True)
class NodeSet:
    """An immutable set of node indices backed by a single bitmask."""

    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("node-set bitmask must be non-negative")

    @classmethod
    def of(cls, *nodes: int) -> "NodeSet":
        return cls.from_nodes(nodes)

    @classmethod
    def from_nodes(cls, nodes: Iterable[int]) -> "NodeSet":
        bits = 0
        for v in nodes:
            if v < 0:
                raise ValueError(f"negative node index {v}")
            bits |= 1 << v
        return cls(bits)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __int__(self) -> int:
        return self.bits

    __index__ = __int__

    def __sub__(self, other: "NodeSet | int") -> "NodeSet":
        return NodeSet(self.bits & ~int(other))

    def issubset(self, other: "NodeSet | int") -> bool:
        return self.bits & ~int(other) == 0

    def __repr__(self) -> str:
        if not self.bits:
            return "NodeSet()"
        return f"NodeSet.of({', '.join(map(str, self))})"


class LocalScoreTable:
    """Per-node scored candidate parent sets in one sorted flat layout.

    Entry e gives node ``nodes[e]`` the parent-set bitmask ``masks[e]`` (bit
    ``nodes[e]`` always clear) with score ``scores[e]``.  Entries are sorted
    by (node, cardinality, bitmask), so node i owns the slice
    ``offsets[i]:offsets[i + 1]`` and a scan of it is deterministic with
    first-wins tie-breaking for free.  The arrays are read-only: tables are
    immutable after construction.  Every node must list the empty parent
    set: that guarantees every node ordering admits at least one feasible
    parent assignment, so solvers never hit dead ends.

    Bulk readers slice the arrays, and so do the per-node reads
    (``items``, ``score``, ``set_count``), which raise ``ValueError`` for
    a node outside 0..n-1; a table holds each entry once.  ``names`` is
    display metadata only and is excluded from equality.
    """

    __slots__ = ("n", "names", "nodes", "masks", "scores", "offsets")

    def __init__(
        self,
        n: int,
        entries: Sequence[Mapping["NodeSet | int", float]],
        names: Sequence[str] | None = None,
    ) -> None:
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"n must be in 1..{MAX_NODES}, got {n}")
        if len(entries) != n:
            raise ValueError(f"expected {n} per-node entries, got {len(entries)}")
        keys = [key for node in entries for key in node]
        masks = _integer_array(keys, "entry {}'s parent set", ValueError)
        nodes = np.repeat(np.arange(n), [len(node) for node in entries])
        scores = [float(score) for node in entries for score in node.values()]
        self._store(n, names, nodes, masks, scores)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        nodes: Sequence[int],
        masks: Sequence[int],
        scores: Sequence[float],
        names: Sequence[str] | None = None,
    ) -> "LocalScoreTable":
        """A table from flat entry arrays in any order, checked as ``__init__`` does."""
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"n must be in 1..{MAX_NODES}, got {n}")
        table = cls.__new__(cls)
        nodes = _integer_array(nodes, "entry {}'s node", ValueError)
        masks = _integer_array(masks, "entry {}'s parent set", ValueError)
        table._store(n, names, nodes, masks, scores)
        return table

    def _store(self, n, names, nodes, masks, scores) -> None:
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("names length must equal n")
            if len(set(names)) != n:
                raise ValueError("variable names must be unique")
        scores = np.asarray(scores, dtype=np.float64)
        lengths = {len(nodes), len(masks), len(scores)}
        if len(lengths) > 1:
            raise ValueError(f"entry {min(lengths)} lacks a node, mask or score")
        if (off := np.flatnonzero((nodes < 0) | (nodes >= n))).size:
            raise ValueError(f"entry {off[0]} has node {nodes[off[0]]}, outside 0..{n - 1}")
        nodes = nodes.astype(np.int64, copy=False)
        # The first bad entry raises, as a scan in input order would; node
        # i's missing empty set comes after its entries, before node i+1's.
        # Scores must be below +inf, so finite or -inf (a set that never wins).
        bad = (masks < 0) | (masks >= 1 << n) | (masks >> nodes & 1 == 1) | ~(scores < np.inf)
        missing = np.flatnonzero(np.bincount(nodes[masks == 0], minlength=n) == 0)
        if bad.any():
            e = int(np.argmax(bad))
            if not len(missing) or nodes[e] <= missing[0]:
                mask = int(masks[e])
                if not 0 <= mask < 1 << n:
                    raise ValueError(f"parent set {mask:#x} out of range for n={n}")
                if mask >> int(nodes[e]) & 1:
                    raise ValueError(f"node {nodes[e]} cannot be its own parent")
                raise ValueError(f"node {nodes[e]} parent set {mask:#x} has score {scores[e]}")
        if len(missing):
            raise ValueError(f"node {missing[0]} is missing the empty parent set")
        masks = masks.astype(np.int64)
        # One stable sort on (node, cardinality, mask) packed in one int64
        # (masks < 2^30, cardinalities and nodes < 32); of a (node, mask)
        # listed twice, as NodeSet and int keys can, the later one stays.
        key = nodes << 35 | np.bitwise_count(masks).astype(np.int64) << 30 | masks
        order = np.argsort(key, kind="stable")
        keep = order[np.append(key[order][1:] != key[order][:-1], True)]
        nodes, masks, scores = nodes[keep], masks[keep], scores[keep]
        offsets = np.searchsorted(nodes, np.arange(n + 1))
        for array in (nodes, masks, scores, offsets):
            array.flags.writeable = False
        values = (n, names, nodes, masks, scores, offsets)  # slot order
        for attr, value in zip(self.__slots__, values):
            object.__setattr__(self, attr, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LocalScoreTable is immutable")

    def _slice(self, i: int) -> slice:
        if not 0 <= i < self.n:
            raise ValueError(f"node index {i} out of range")
        return slice(self.offsets[i], self.offsets[i + 1])

    @property
    def total_entries(self) -> int:
        """Total number of stored (node, parent set) records."""
        return len(self.masks)

    def set_count(self, i: int) -> int:
        return len(self.masks[self._slice(i)])

    def items(self, i: int) -> tuple[tuple[int, float], ...]:
        """Raw (bitmask, score) pairs for node i in (cardinality, mask) order."""
        at = self._slice(i)
        return tuple(zip(self.masks[at].tolist(), self.scores[at].tolist()))

    def score(self, i: int, parents: "NodeSet | int") -> float:
        """s_i(parents); a float mask raises ``TypeError``, not truncated."""
        at, mask = self._slice(i), operator.index(parents)
        hit = np.flatnonzero(self.masks[at] == mask) if 0 <= mask < 1 << self.n else ()
        if not len(hit):
            raise MissingParentSetError(i, NodeSet(mask))
        return float(self.scores[at][hit[0]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalScoreTable):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self, attr), getattr(other, attr))
            for attr in ("offsets", "masks", "scores")
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LocalScoreTable(n={self.n}, total_entries={self.total_entries})"


def _integer_array(values, where: str, error: type[ValueError]) -> np.ndarray:
    """``values`` as int64, or as Python ints where one is beyond int64, to
    be range-checked by the caller.

    Integer and bool arrays convert at once.  Other input goes value by
    value through ``operator.index``, so a float, even a whole one, raises
    ``error`` rather than being truncated, naming its place by ``where``.
    """
    array = np.asarray(values)
    if array.dtype.kind in "bi" or array.dtype.kind == "u" and array.itemsize < 8:
        return array.astype(np.int64, copy=False)
    array = np.array(values, dtype=object)
    for place, value in np.ndenumerate(array):
        try:
            array[place] = operator.index(value)
        except TypeError:
            at = where.format(", ".join(map(str, place)))
            raise error(f"{at} is {value!r}, not an integer") from None
    return array


@dataclass(frozen=True, slots=True)
class Dag:
    """A directed graph given by per-node parent sets.

    Construction is permissive about cycles so that candidate graphs can be
    built and then checked; operations that require acyclicity verify it
    and raise :class:`CyclicGraphError`.
    """

    n: int
    parents: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NODES:
            raise ValueError(f"n must be in 1..{MAX_NODES}, got {self.n}")
        if len(self.parents) != self.n:
            raise ValueError("parents must list one set per node")
        limit = 1 << self.n
        for ps in self.parents:
            if not isinstance(ps, NodeSet):
                raise TypeError("parents must be NodeSet instances")
            if ps.bits >= limit:
                raise ValueError("parent set references a node outside 0..n-1")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable["NodeSet | int"]) -> "Dag":
        """One parent mask per node; a float mask raises ``TypeError``, not truncated."""
        return cls(n, tuple(NodeSet(operator.index(m)) for m in masks))

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Yield (parent, child) pairs in (child, parent) index order."""
        for child in range(self.n):
            for parent in self.parents[child]:
                yield parent, child


def _sink_first_order(dag: Dag) -> list[int] | None:
    """Place nodes whose parents are all placed, smallest index first.

    Returns the full order, or None when a cycle blocks the walk.
    """
    order: list[int] = []
    placed = 0
    for _ in range(dag.n):
        for i in range(dag.n):
            if not placed >> i & 1 and dag.parents[i].bits & ~placed == 0:
                break
        else:
            return None
        order.append(i)
        placed |= 1 << i
    return order


def is_acyclic(dag: Dag) -> bool:
    """True iff the graph admits a topological order."""
    return _sink_first_order(dag) is not None


def total_score(dag: Dag, table: LocalScoreTable) -> float:
    """Sum of per-node local scores; the quantity every solver maximizes."""
    if dag.n != table.n:
        raise ValueError(f"graph has {dag.n} nodes, table has {table.n}")
    if not is_acyclic(dag):
        raise CyclicGraphError("cannot score a cyclic graph")
    return sum(table.score(i, dag.parents[i]) for i in range(dag.n))


def choose_parents(table: LocalScoreTable, allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's parents inside each row of ``allowed``, a (B, n) int array.

    Node i of row b takes its first entry, in (cardinality, bitmask) order,
    with the best score inside ``allowed[b, i]`` (the empty set always fits),
    by a (B, F) fit mask and two segmented reductions.  Returns (B,) totals,
    added in node order as ``total_score`` adds them, and (B, n) entries.
    """
    fits = (table.masks & ~allowed[:, table.nodes]) == 0
    scores = np.where(fits, table.scores, -np.inf)
    starts = table.offsets[:-1]
    best = np.maximum.reduceat(scores, starts, axis=1)
    first = np.where(fits & (scores == best[:, table.nodes]), np.arange(len(fits[0])), len(fits[0]))
    entry = np.minimum.reduceat(first, starts, axis=1)
    chosen = table.scores[entry]
    totals = np.zeros(len(allowed))
    for i in range(table.n):
        totals += chosen[:, i]
    return totals, entry


def best_parents_in(
    table: LocalScoreTable, i: int, allowed: "NodeSet | int"
) -> tuple[float, NodeSet]:
    """(score, parent set) of node i's :func:`choose_parents` pick inside
    ``allowed``, which must exclude i; its bits at or above n are ignored."""
    table._slice(i)  # the node's range check
    mask = operator.index(allowed) & (1 << table.n) - 1
    if mask >> i & 1:
        raise ValueError("allowed set must exclude the child node")
    row = np.zeros((1, table.n), dtype=np.int64)
    row[0, i] = mask
    entry = choose_parents(table, row)[1][0, i]
    return float(table.scores[entry]), NodeSet(int(table.masks[entry]))
