"""Span tracing for the traced benchmark run, installed from outside the package.

Each boundary is a public callable, wrapped in the namespace where the call
actually resolves (``member_by_index`` is wrapped in ``po_dp``, which calls
it, not in ``bucket_cover``, which defines it), so the package itself is
never edited.  A span records
its name, start, end, parent span and op id in flat in-memory arrays, and
the whole trace is written out once, when the run ends.  Only the traced
run imports this module; the untraced run never touches these boundaries.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


def _hit(args, result) -> int:
    marks = args[0]
    return int(0 <= result < len(marks) and bool(marks[result]))


# (owner path, attribute, span name, counters, observer).  An observer turns
# the call's arguments and result into {counter: amount}.  If it fails
# because the result lost an attribute, its counters are marked lost and
# their metrics are reported as missing.
BOUNDARIES: list[tuple[str, str, str, tuple[str, ...], Callable[..., dict] | None]] = [
    ("scores_io.DiscreteDataset", "from_csv", "scores_io.from_csv", (), None),
    ("scores_io", "bic_scores", "scores_io.bic_scores", ("entries",),
     lambda a, r: {"entries": r.total_entries}),
    ("scores_io", "write_scores", "scores_io.write_scores", ("score_file_bytes",),
     lambda a, r: {"score_file_bytes": len(r.encode())}),
    ("scores_io", "parse_scores", "scores_io.parse_scores", (), None),
    ("dp_exact", "solve_dp", "dp_exact.solve_dp", (), None),
    ("dp_exact", "best_parents_all_subsets", "dp_exact.best_parents_all_subsets", (), None),
    ("dp_exact", "best_parents_in", "instance.best_parents_in", (), None),
    ("dp_exact", "total_score", "instance.total_score", (), None),
    ("instance", "total_score", "instance.total_score", (), None),
    ("po_dp", "solve_cover", "po_dp.solve_cover", (), None),
    ("po_dp", "member_by_index", "bucket_cover.member_by_index", (), None),
    ("po_dp", "solve_member", "po_dp.solve_member", (), None),
    ("po_dp", "downset_best_parents", "po_dp.downset_best_parents", ("edge_visits",),
     lambda a, r: {"edge_visits": r.edge_visits}),
    ("po_dp", "total_score", "instance.total_score", (), None),
    ("bucket_cover.DownsetIndex", "__init__", "bucket_cover.DownsetIndex", ("downsets",),
     lambda a, r: {"downsets": a[0].size}),
    ("bucket_cover.DownsetIndex", "edges", "bucket_cover.DownsetIndex.edges",
     ("lattice_edges",), lambda a, r: {"lattice_edges": sum(len(links) for links in r)}),
    ("bucket_cover.DownsetIndex", "by_cardinality",
     "bucket_cover.DownsetIndex.by_cardinality", (), None),
    ("grover_sim", "max_find", "grover_sim.max_find", ("charged_queries", "classical_evals"),
     lambda a, r: {"charged_queries": r[2].charged_quantum_queries,
                   "classical_evals": r[2].classical_evals}),
    ("grover_sim", "grover_search_sim", "grover_sim.grover_search_sim", (), None),
    ("grover_sim", "grover_trial", "grover_sim.grover_trial", ("trial_hits",),
     lambda a, r: {"trial_hits": _hit(a, r)}),
    ("grover_sim.MaxOracle", "table", "grover_sim.MaxOracle.table", (), None),
]

_INDEX = (
    "bucket_cover.DownsetIndex",
    "bucket_cover.DownsetIndex.edges",
    "bucket_cover.DownsetIndex.by_cardinality",
)
_SPAN_S, _PER_OP = "s/op", "count/op"

# metric -> (unit, how, key, boundaries it needs).  Every value is per
# traced op except the per-member and ratio ones.
#   total: time in spans named key (a tuple sums several)
#   self:  time in span key minus its wrapped children's time
#   calls: spans named key;  counter: observer counter key
#   per_call: key is (counter, span): the counter per span of that name
LAYER_METRICS: dict[str, tuple[str, str, Any, tuple[str, ...]]] = {
    "scores_io.from_csv_s": (_SPAN_S, "total", "scores_io.from_csv", ()),
    "scores_io.bic_scores_s": (_SPAN_S, "total", "scores_io.bic_scores", ()),
    "scores_io.write_scores_s": (_SPAN_S, "total", "scores_io.write_scores", ()),
    "scores_io.parse_scores_s": (_SPAN_S, "total", "scores_io.parse_scores", ()),
    "scores_io.entries": (_PER_OP, "counter", "entries", ("scores_io.bic_scores",)),
    "scores_io.score_file_bytes": (
        "B/op", "counter", "score_file_bytes", ("scores_io.write_scores",)),
    "dp_exact.solve_dp_s": (_SPAN_S, "total", "dp_exact.solve_dp", ()),
    "dp_exact.subset_tables_s": (_SPAN_S, "total", "dp_exact.best_parents_all_subsets", ()),
    "dp_exact.solve_dp_self_s": (
        _SPAN_S, "self", "dp_exact.solve_dp",
        ("dp_exact.best_parents_all_subsets", "instance.best_parents_in",
         "instance.total_score")),
    "dp_exact.subset_table_calls": (
        _PER_OP, "calls", "dp_exact.best_parents_all_subsets", ()),
    "bucket_cover.member_by_index_s": (_SPAN_S, "total", "bucket_cover.member_by_index", ()),
    "bucket_cover.downset_index_s": (_SPAN_S, "total", _INDEX, ()),
    "bucket_cover.downsets_per_member": (
        "count", "per_call", ("downsets", "bucket_cover.DownsetIndex"), ()),
    # edges() returns the member's whole lattice, so edges per call = per member
    "bucket_cover.lattice_edges_per_member": (
        "count", "per_call", ("lattice_edges", "bucket_cover.DownsetIndex.edges"), ()),
    "po_dp.solve_cover_s": (_SPAN_S, "total", "po_dp.solve_cover", ()),
    "po_dp.best_parents_s": (_SPAN_S, "self", "po_dp.downset_best_parents", _INDEX),
    "po_dp.solve_member_self_s": (
        _SPAN_S, "self", "po_dp.solve_member",
        ("po_dp.downset_best_parents", "instance.total_score") + _INDEX),
    "po_dp.members_solved": (_PER_OP, "calls", "po_dp.solve_member", ()),
    "po_dp.edge_visits": (
        _PER_OP, "counter", "edge_visits", ("po_dp.downset_best_parents",)),
    "grover_sim.max_find_s": (_SPAN_S, "total", "grover_sim.max_find", ()),
    "grover_sim.oracle_table_s": (_SPAN_S, "total", "grover_sim.MaxOracle.table", ()),
    "grover_sim.search_self_s": (
        _SPAN_S, "self", "grover_sim.grover_search_sim", ("grover_sim.grover_trial",)),
    "grover_sim.trial_s": (_SPAN_S, "total", "grover_sim.grover_trial", ()),
    "grover_sim.search_calls": (_PER_OP, "calls", "grover_sim.grover_search_sim", ()),
    "grover_sim.trials": (_PER_OP, "calls", "grover_sim.grover_trial", ()),
    "grover_sim.charged_queries": (
        _PER_OP, "counter", "charged_queries", ("grover_sim.max_find",)),
    "grover_sim.classical_evals": (
        _PER_OP, "counter", "classical_evals", ("grover_sim.max_find",)),
    "grover_sim.trial_hit_ratio": (
        "ratio", "per_call", ("trial_hits", "grover_sim.grover_trial"), ()),
    "instance.total_score_s": (_SPAN_S, "total", "instance.total_score", ()),
    "instance.best_parents_in_calls": (_PER_OP, "calls", "instance.best_parents_in", ()),
}


def _share(num: float, den: float) -> float:
    # A layer that a workload never enters did no work: it reads 0.
    return num / den if den else 0.0


def _resolve(qb, path: str) -> Any:
    obj = qb
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs span wrappers on the package boundaries and records spans."""

    def __init__(self, qb) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.lost: set[str] = set()
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._wrapped: list[tuple[Any, str, Any]] = []
        for owner_path, attr, name, keys, observe in BOUNDARIES:
            try:
                owner = _resolve(qb, owner_path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.add(name)
                self.lost.update(keys)
                continue
            self._saved.append((owner, attr, raw))
            self._wrapped.append((owner, attr, self._wrap(name, raw, keys, observe)))
        self.installed = False

    def _wrap(self, name: str, raw: Any, keys: tuple[str, ...], observe) -> Any:
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack, counts, lost = self._stack, self.counts, self.lost
        name_of, start_of, end_of = self.name_of, self.start, self.end
        parent_of, op_of = self.parent, self.op_of

        def wrapper(*args, **kwargs):
            idx = len(start_of)
            name_of.append(name_id)
            parent_of.append(stack[-1] if stack else -1)
            op_of.append(self.op_id)
            end_of.append(0.0)
            stack.append(idx)
            start_of.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    counts.update(observe(args, result))
                except AttributeError:
                    lost.update(keys)
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        if not self.installed:
            for owner, attr, wrapped in self._wrapped:
                setattr(owner, attr, wrapped)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, raw in self._saved:
                setattr(owner, attr, raw)
            self.installed = False

    def layer_metrics(self, ops: int) -> dict[str, dict]:
        """Per-layer metrics, each averaged over the ``ops`` traced ops.

        A layer the workload never enters reads 0; a metric whose boundary
        or counter no longer exists in the package is left out (missing).
        """
        total: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        names, name_of, parent = self.names, self.name_of, self.parent
        for idx in range(len(self.start)):
            name = names[name_of[idx]]
            duration = self.end[idx] - self.start[idx]
            total[name] += duration
            self_time[name] += duration
            calls[name] += 1
            if parent[idx] >= 0:
                self_time[names[name_of[parent[idx]]]] -= duration
        all_keys = {key for b in BOUNDARIES for key in b[3]}
        counts = {key: self.counts[key] for key in all_keys - self.lost}
        out: dict[str, dict] = {}
        for metric, (unit, how, key, needs) in LAYER_METRICS.items():
            if how == "per_call":
                counter, span = key
                needs = needs + (span,)
            elif how == "counter":
                counter = key
            else:
                needs = needs + (key if isinstance(key, tuple) else (key,))
            if self.missing.intersection(needs) or (
                how in ("counter", "per_call") and counter not in counts
            ):
                continue
            if how == "total":
                spans = key if isinstance(key, tuple) else (key,)
                value = sum(total[name] for name in spans) / ops
            elif how == "self":
                value = self_time[key] / ops
            elif how == "calls":
                value = calls[key] / ops
            elif how == "counter":
                value = counts[counter] / ops
            else:
                value = _share(counts[counter], calls[span])
            out[metric] = {"value": value, "unit": unit}
        return out

    def root_time(self) -> dict[int, float]:
        """Per op id, the summed duration of its root spans."""
        roots: defaultdict[int, float] = defaultdict(float)
        for idx in range(len(self.start)):
            if self.parent[idx] < 0:
                roots[self.op_of[idx]] += self.end[idx] - self.start[idx]
        return roots

    def write(self, path, context: dict) -> None:
        payload = {
            "context": context,
            "names": self.names,
            "missing_boundaries": sorted(self.missing),
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [list(self.name_of), list(self.start), list(self.end),
                      list(self.parent), list(self.op_of)],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
