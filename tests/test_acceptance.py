"""Acceptance gate: the nine release criteria, one test each.

Each test prints a single ``criterion-N ... : pass`` line on success; a
failure raises before the line is printed and pytest shows the captured
output.  Scales and tolerances are fixed here on purpose; do not shrink
them to make a run faster.
"""

from __future__ import annotations

import math
from itertools import islice, permutations

import mpmath as mp
import numpy as np
from scipy.stats import binom

from qbnsl.bucket_cover import (
    BlockPartition,
    DownsetIndex,
    cover_size,
    downset_count_formula,
    member_by_index,
)
from qbnsl.dp_exact import brute_force_dags, brute_force_orders, solve_dp
from qbnsl.grover_sim import (
    MaxOracle,
    cost_report,
    grover_trial,
    max_find,
    optimal_iterations,
    quantum_charge,
    success_probability,
)
from qbnsl.instance import best_parents_in, total_score
from qbnsl.po_dp import solve_cover
from qbnsl.scores_io import prune_dominated
from qbnsl.seeding import rng_for
from qbnsl.tables import random_table
from reference import LinearOrder, covering_member, downset_by_index, extended_by


def _report(num: int, name: str) -> None:
    print(f"criterion-{num} {name}: pass")


def test_criterion_1_oracle_equivalence_chain():
    # >= 500 random instances, n <= 8, <= 12 parent sets per node, scores
    # uniform in [-10, 10]; four independent solvers must agree to 1e-9.
    rng = rng_for(101, "acceptance-oracle")
    instances = 500
    dag_checked = 0
    for trial in range(instances):
        n = 2 + trial % 7
        table = random_table(rng, n)
        reference, dag = solve_dp(table)
        assert abs(total_score(dag, table) - reference) <= 1e-9
        assert abs(brute_force_orders(table) - reference) <= 1e-9
        for k in (2, 4):
            if k <= n:
                got, _, _ = solve_cover(
                    table, BlockPartition.contiguous(n, k), "classical-scan"
                )
                assert abs(got - reference) <= 1e-9
        if n <= 4:
            assert abs(brute_force_dags(table) - reference) <= 1e-9
            dag_checked += 1
    assert dag_checked >= 100
    _report(1, "oracle equivalence chain (500 instances)")


def test_criterion_2_cover_count_reproduction():
    assert cover_size(26, 26) == math.comb(26, 13) == 10400600
    assert downset_count_formula(26, 26) == 2**14 - 1 == 16383
    for n, k in ((4, 2), (6, 2), (8, 4), (12, 4), (12, 6)):
        partition = BlockPartition.contiguous(n, k)
        members = [member_by_index(partition, j) for j in range(cover_size(n, k))]
        assert len(set(members)) == cover_size(n, k)
        expected = downset_count_formula(n, k)
        for member in members:
            index = DownsetIndex(member)
            assert index.size == expected
            seen = {downset_by_index(index, j) for j in range(index.size)}
            assert len(seen) == expected
    _report(2, "cover counts: formula == enumeration")


def test_criterion_3_per_node_base_constant():
    # 40-digit values for the two roots and their product, then the
    # published 5-significant-figure ceiling chain digit for digit.
    with mp.workdps(40):
        a = mp.mpf(math.comb(26, 13))
        b = mp.mpf(2**14 - 1)
        choices_root = a ** (mp.mpf(1) / 52)
        downsets_root = b ** (mp.mpf(1) / 26)
        product = choices_root * downsets_root

        # Exact product to 30 significant digits.
        assert mp.nstr(product, 30) == "1.98168894071430503535895103766"

        # Ceiling at 5 significant figures reproduces the displayed chain.
        assert choices_root < mp.mpf("1.3645")
        assert mp.mpf("1.3644") < choices_root  # 1.3645 is the tight ceiling
        assert downsets_root < mp.mpf("1.4525")
        assert mp.mpf("1.4524") < downsets_root
        chain = mp.mpf("1.3645") * mp.mpf("1.4525")
        assert product < chain < mp.mpf("1.9820")
        assert mp.mpf("1.9818") < chain
    report = cost_report(26, None, 26)
    assert report.choices_root_up5 == 1.3645
    assert report.downsets_root_up5 == 1.4525
    assert f"{report.chain_bound:.4f}" == "1.9820"
    _report(3, "base-constant chain 1.3645 * 1.4525 < 1.9820")


def test_criterion_4_cover_property():
    # Exhaustive: every order over n <= 6 nodes extends some cover member,
    # for every even block size.
    for n in (2, 3, 4, 5, 6):
        for k in (2, 4, 6):
            if k > n:
                continue
            partition = BlockPartition.contiguous(n, k)
            for perm in permutations(range(n)):
                order = LinearOrder(perm)
                member = covering_member(partition, order)
                assert extended_by(member, order)
    # Sampled: 10^4 random orders at n = 12 for each block size.
    rng = rng_for(104, "acceptance-cover")
    orders = [LinearOrder(tuple(rng.permutation(12))) for _ in range(10_000)]
    for k in (2, 4, 6):
        partition = BlockPartition.contiguous(12, k)
        for order in orders:
            assert extended_by(covering_member(partition, order), order)
    _report(4, "every order extends a cover member")


def test_criterion_5_bounded_error_maximum_finding():
    trials = 2000
    for m in (16, 64, 256):
        successes = 0
        for t in range(trials):
            values = rng_for(105, "acceptance-planted", m, t).permutation(m)
            oracle = MaxOracle(m, lambda x, v=values: float(v[x]))
            x, _, _ = max_find(
                oracle, m, "sim", rng_seed=9_000_000 + m * 10_000 + t, repetitions=1
            )
            successes += int(x == int(np.argmax(values)))
        # One-sided binomial test at alpha = 0.01 against p = 2/3.
        p_below = float(binom.cdf(successes, trials, 2.0 / 3.0))
        assert p_below >= 0.01, (m, successes / trials, p_below)
    for m in (4, 64):
        r = optimal_iterations(m, 1)
        predicted = success_probability(m, 1, r)
        marks = np.zeros(m, dtype=bool)
        marks[m - 1] = True
        hits = sum(
            int(grover_trial(marks, r, rng_for(105, "acceptance-single", m, t)) == m - 1)
            for t in range(trials)
        )
        assert abs(hits / trials - predicted) <= 0.05
    _report(5, "un-amplified success rate >= 2/3 and closed form")


def test_criterion_6_end_to_end_quantum_mode():
    rng = rng_for(106, "acceptance-endtoend")
    partition = BlockPartition.contiguous(6, 2)
    assert cover_size(6, 2) == 8
    matches = 0
    for t in range(200):
        table = random_table(rng, 6)
        reference, _ = solve_dp(table)
        got, dag, ledger = solve_cover(
            table, partition, "grover-sim", seed=7_000 + t
        )
        assert ledger.charged_quantum_queries > 0
        assert abs(total_score(dag, table) - got) <= 1e-9
        matches += int(abs(got - reference) <= 1e-9)
    assert matches >= 195, matches
    _report(6, f"amplified maximum finding matched exact DP {matches}/200")


def test_criterion_7_query_accounting():
    rng = rng_for(107, "acceptance-accounting")
    for n in (8, 12, 16):
        table = random_table(rng, n)
        reference, _ = solve_dp(table)
        for k in (2, 4):
            members = cover_size(n, k)
            got, _, ledger = solve_cover(
                table, BlockPartition.contiguous(n, k), "grover-cost-model"
            )
            assert abs(got - reference) <= 1e-9
            recomputed = math.isqrt(members - 1) + 1 if members > 1 else 1
            recomputed *= max(1, (members - 1).bit_length()) if members > 1 else 1
            assert ledger.charged_quantum_queries == recomputed
            assert ledger.charged_quantum_queries == quantum_charge(members)
    assert 9.5 <= (2.0 / 1.817) ** 24 <= 10.5
    assert 95.0 <= (2.0 / 1.817) ** 48 <= 105.0
    assert 9.5 <= cost_report(24, None, 4).speedup_vs_subset <= 10.5
    assert 95.0 <= cost_report(48, None, 4).speedup_vs_subset <= 105.0
    _report(7, "charged queries equal the ceiling formula exactly")


def test_criterion_8_asymptotics_as_exact_formulas():
    # The headline asymptotic runtimes are not wall-clock measurable at
    # desk scale; they are pinned instead as exact formula reproductions
    # (criteria 3 and 7) plus the identities below, including sizes far
    # beyond anything the solvers themselves accept.
    report = cost_report(48, None, 4)
    assert report.cover_members == cover_size(48, 4) == 6**12
    assert report.downsets_per_member == downset_count_formula(48, 4) == 7**12
    f = 48 * 2**47
    assert report.total_entries == f
    assert report.member_dp_bound == 7**12 * 48 * 48 + f * 48
    assert report.classical_subset_bound == 2**48 * 48 * 48
    assert report.charged_queries == quantum_charge(6**12)
    with mp.workdps(40):
        assert report.order_search_bound == float(
            mp.mpf("1.817") ** 48 * mp.sqrt(f)
        )
        assert report.cover_search_bound == float(
            7**12 * 48 * 48 * mp.sqrt(6**12) * mp.log(6**12)
        )
    _report(8, "asymptotics pinned as exact-arithmetic formulas")


def test_criterion_9_pruning_soundness():
    rng = rng_for(109, "acceptance-prune")
    for trial in range(200):
        n = 2 + trial % 7
        table = random_table(rng, n)
        pruned = prune_dominated(table)
        full = (1 << n) - 1
        for i in range(n):
            others = full & ~(1 << i)
            allowed = others
            while True:
                assert (
                    best_parents_in(pruned, i, allowed)[0]
                    == best_parents_in(table, i, allowed)[0]
                )
                if allowed == 0:
                    break
                allowed = (allowed - 1) & others
    _report(9, "pruning preserves every constrained best-parent score")
