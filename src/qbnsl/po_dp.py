"""Constrained optimization over one cover member's downset lattice.

Fixing a cover member restricts attention to linear orders extending its
precedence constraints; the best network score over those orders is
computed by dynamic programming whose states are the member's downsets.
The per-node inner maxima are prepared first by a downward-closure
bucketing pass plus one cardinality sweep, correct for arbitrary listed
parent sets (no closure-under-inclusion assumption), within O(D n^2 + F n)
work for D downsets and F table entries.

On top of the member solver sit three search strategies over the whole
cover: exhaustive classical scan, simulated quantum maximum finding, and
an analytic cost model that books the quantum charge without simulating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bucket_cover import (
    BlockPartition,
    CoverMember,
    DownsetIndex,
    cover_size,
    covering_member,
    member_by_index,
)
from .dp_exact import DP_CAP, solve_dp
from .grover_sim import MAX_SIM_DOMAIN, MaxOracle, QueryLedger, max_find, quantum_charge
from .instance import (
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    NodeSet,
    topological_order,
    total_score,
)

COVER_STRATEGIES = ("classical-scan", "grover-sim", "grover-cost-model")
SCAN_MEMBER_CAP = 1_000_000
_NEG_INF = float("-inf")


class StrategyUnavailableError(ValueError):
    """The requested cover-search strategy is not one of COVER_STRATEGIES."""


def downward_closure(member: CoverMember, parents: "NodeSet | int") -> NodeSet:
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


@dataclass
class DownsetScoreTable:
    """Per (node, downset): the best listed parent score within the downset.

    ``values[i][d]`` is max{ s_i(J) : J listed for i, J inside downset d },
    with ``argmax[i][d]`` the witness parent-set bitmask (ties prefer
    smaller cardinality, then smaller bitmask).  ``edge_visits`` counts
    lattice edges examined across all nodes, for work-bound checks.
    """

    index: DownsetIndex
    values: list[list[float]]
    argmax: list[list[int]]
    edge_visits: int


def _tighter(mask_a: int, mask_b: int) -> bool:
    return (mask_a.bit_count(), mask_a) < (mask_b.bit_count(), mask_b)


def downset_best_parents(
    table: LocalScoreTable,
    member: CoverMember,
    index: DownsetIndex | None = None,
) -> DownsetScoreTable:
    """Best-parent scores for every node over every downset of the member.

    Works in two phases per node: every listed parent set is bucketed at
    the index of its downward closure (valid because a set lies inside a
    downset exactly when its closure does), then one sweep in increasing
    cardinality folds each downset's bucket together with the maxima of
    its single-element-removal children.
    """
    if table.n != member.partition.n:
        raise ValueError("table and member sizes differ")
    if index is None:
        index = DownsetIndex(member)
    order = index.by_cardinality()
    edges = index.edges()
    split_bits = index.split_bits
    second_bits = index.second_bits
    size = index.size
    values: list[list[float]] = []
    argmax: list[list[int]] = []
    visits = 0
    for i in range(table.n):
        vals = [_NEG_INF] * size
        args = [0] * size
        for mask, score in table.items(i):
            closed = mask
            for split, second in zip(split_bits, second_bits):
                if mask & second:
                    closed |= split
            d = index.index_of_downset(closed)
            if score > vals[d] or (score == vals[d] and _tighter(mask, args[d])):
                vals[d] = score
                args[d] = mask
        for d, _mask in order:
            best_v = vals[d]
            best_a = args[d]
            for _elem, child in edges[d]:
                visits += 1
                cv = vals[child]
                if cv > best_v or (
                    cv == best_v and cv != _NEG_INF and _tighter(args[child], best_a)
                ):
                    best_v = cv
                    best_a = args[child]
            vals[d] = best_v
            args[d] = best_a
        values.append(vals)
        argmax.append(args)
    return DownsetScoreTable(index, values, argmax, visits)


def solve_member(
    table: LocalScoreTable,
    member: CoverMember,
    index: DownsetIndex | None = None,
    best: DownsetScoreTable | None = None,
) -> tuple[float, Dag]:
    """Best network score over linear orders extending the member.

    DP over downsets: the value of a downset is the best way to schedule
    its nodes, choosing a last node among the removable ones and giving it
    its best parents inside the remaining downset.  Returns the optimum
    and a witness DAG whose rescoring equals the returned value; sink ties
    take the smallest node index.
    """
    if table.n != member.partition.n:
        raise ValueError("table and member sizes differ")
    if index is None:
        index = DownsetIndex(member)
    if best is None:
        best = downset_best_parents(table, member, index)
    size = index.size
    edges = index.edges()
    value = [_NEG_INF] * size
    value[0] = 0.0
    sink = [-1] * size
    best_values = best.values
    for d, _mask in index.by_cardinality():
        if d == 0:
            continue
        best_v = _NEG_INF
        best_i = -1
        for elem, child in edges[d]:
            cand = value[child] + best_values[elem][child]
            if cand > best_v:
                best_v = cand
                best_i = elem
        value[d] = best_v
        sink[d] = best_i
    n = table.n
    parents = [NodeSet(0)] * n
    mask = (1 << n) - 1
    d = index.index_of_downset(mask)
    while mask:
        i = sink[d]
        child_mask = mask ^ (1 << i)
        child_d = index.index_of_downset(child_mask)
        parents[i] = NodeSet(best.argmax[i][child_d])
        mask = child_mask
        d = child_d
    dag = Dag(n, tuple(parents))
    return total_score(dag, table), dag


def solve_cover(
    table: LocalScoreTable,
    partition: BlockPartition,
    strategy: str,
    *,
    seed: int = 0,
    repetitions: int = 7,
    scan_cap: int = SCAN_MEMBER_CAP,
    sim_cap: int = MAX_SIM_DOMAIN,
    dp_cap: int = DP_CAP,
) -> tuple[float, Dag, QueryLedger]:
    """Maximize the member optimum over the whole cover.

    Because every linear order extends some member, the cover maximum
    equals the unconstrained optimum; all strategies return that score
    (grover-sim with failure probability below 5e-4 per call).

    classical-scan solves every member and keeps the best (ties keep the
    lowest member index).  grover-sim evaluates all member scores once
    (each metered as a classical evaluation), then runs simulated quantum
    maximum finding over them, charging oracle applications to the ledger.
    grover-cost-model computes the answer classically, locates the member
    covering an optimal topological order as the witness, and books the
    analytic charge ceil(sqrt(members)) * ceil(log2(members)) instead of
    simulating.
    """
    if strategy not in COVER_STRATEGIES:
        raise StrategyUnavailableError(
            f"strategy {strategy!r} not in {COVER_STRATEGIES}"
        )
    if table.n != partition.n:
        raise ValueError("table and partition sizes differ")
    members = cover_size(partition.n, partition.k)
    ledger = QueryLedger()
    if strategy == "classical-scan":
        if members > scan_cap:
            raise InstanceTooLargeError(
                f"cover has {members} members; classical-scan cap is {scan_cap}"
            )
        best_score = _NEG_INF
        best_dag: Dag | None = None
        for idx in range(members):
            score, dag = solve_member(table, member_by_index(partition, idx))
            ledger.count_classical()
            if best_dag is None or score > best_score:
                best_score = score
                best_dag = dag
        assert best_dag is not None
        return best_score, best_dag, ledger
    if strategy == "grover-sim":
        if members > sim_cap:
            raise InstanceTooLargeError(
                f"cover has {members} members; grover-sim cap is {sim_cap}"
            )
        scores: list[float] = []
        for idx in range(members):
            scores.append(solve_member(table, member_by_index(partition, idx))[0])
            ledger.count_classical()
        oracle = MaxOracle(members, scores.__getitem__, ledger)
        best_idx, _, _ = max_find(
            oracle, members, "sim", rng_seed=seed, repetitions=repetitions
        )
        score, dag = solve_member(table, member_by_index(partition, best_idx))
        ledger.count_classical()
        return score, dag, ledger
    # grover-cost-model: exact answer plus analytic accounting.
    opt_score, opt_dag = solve_dp(table, cap=dp_cap)
    member = covering_member(partition, topological_order(opt_dag))
    score, dag = solve_member(table, member)
    ledger.count_classical()
    if abs(score - opt_score) > 1e-9:
        raise RuntimeError("cover identity violated: member optimum != DP optimum")
    ledger.charge_quantum(quantum_charge(members))
    return score, dag, ledger
