"""Command-line surface: score generation, solving, cover stats, benchmarks.

Exit codes: 0 success, 1 failed benchmark suite, 2 infeasible configuration
(caps, invalid k, unavailable strategy), 3 I/O or parse errors.  All report
output is plain ``key = value`` text; DAGs are written as an edge list
("child <- parent parent ..." per node) and as DOT (arcs parent -> child).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bucket_cover import BlockPartition, InvalidKError, cover_size
from .dp_exact import DAG_BRUTE_CAP, brute_force_dags, brute_force_orders, solve_dp
from .grover_sim import (
    DomainTooLargeError,
    MaxOracle,
    cost_report,
    grover_trial,
    max_find,
    optimal_iterations,
    padded_size,
    quantum_charge,
    success_probability,
)
from .instance import Dag, InstanceTooLargeError, total_score
from .po_dp import StrategyUnavailableError, solve_cover
from .scores_io import (
    DatasetError,
    DiscreteDataset,
    ScoreFileError,
    TooManyEntriesError,
    bic_scores,
    parse_scores,
    write_scores,
)
from .seeding import rng_for
from .tables import random_table

ALGORITHMS = ("dp", "cover", "cover-grover", "brute-orders", "brute-dags")
SUITES = ("oracle", "grover", "scaling")
# cover-stats prints exact counts.  At n <= 1000 and F <= n * 2^(n-1), the
# most a table can list, none has more than about 450 digits: well inside
# the 4300-digit limit of int-to-str conversion.
MAX_REPORT_N = 1000


def bounded_int(low: int, high: int | None = None):
    """argparse type: an integer in low..high, or >= low without high (else exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is above {high}")
        return value

    return integer


def edge_list_path(text: str) -> str:
    """argparse type: a path whose .dot sibling is another file, so not *.dot (else exit 2)."""
    if Path(text).suffix == ".dot":
        raise argparse.ArgumentTypeError(f"{text!r} ends in .dot, the DOT file's own suffix")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbnsl",
        description="Exact Bayesian-network structure learning with bucket-order "
        "cover search and simulated quantum maximum finding.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_score = sub.add_parser("score", help="compute BIC local scores from a CSV")
    p_score.add_argument("data", help="CSV with a header row and integer cells")
    p_score.add_argument("--max-indegree", type=bounded_int(0), default=2)
    p_score.add_argument("--max-entries", type=bounded_int(0), default=1_000_000)
    p_score.add_argument("--out", help="score file to write (default: stdout)")

    p_solve = sub.add_parser("solve", help="maximize the score over DAGs")
    p_solve.add_argument("scores", help="score file to solve")
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="dp")
    p_solve.add_argument(
        "--k", type=int, default=2, help="even block size for cover algorithms"
    )
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", type=edge_list_path, help="edge-list path, plus a .dot sibling")
    p_solve.add_argument(
        "--shuffle-blocks",
        action="store_true",
        help="assign nodes to blocks by seeded shuffle instead of index order",
    )

    p_stats = sub.add_parser("cover-stats", help="cover counts and the cost report")
    p_stats.add_argument("--n", type=bounded_int(1, MAX_REPORT_N), required=True)
    p_stats.add_argument("--k", type=int, required=True)
    p_stats.add_argument(
        "--entries",
        type=bounded_int(1, MAX_REPORT_N << (MAX_REPORT_N - 1)),
        default=None,
        help="table size F (default n * 2^(n-1))",
    )
    p_stats.add_argument("--report", help="also write the key-value lines to this path")

    p_bench = sub.add_parser("bench", help="run a verification suite")
    p_bench.add_argument("--suite", choices=SUITES, default="oracle")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--instances",
        type=bounded_int(1),
        default=500,
        help="oracle suite: instance count",
    )
    p_bench.add_argument(
        "--trials",
        type=bounded_int(1),
        default=2000,
        help="grover suite: trials per domain size",
    )
    p_bench.add_argument("--report", help="also write the key-value lines to this path")

    return parser


def _emit(lines: list[str], report_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if report_path:
        Path(report_path).write_text(text, encoding="utf-8")


def _edge_list(dag: Dag, names: tuple[str, ...]) -> str:
    rows = []
    for child in range(dag.n):
        parents = " ".join(names[p] for p in dag.parents[child])
        rows.append(f"{names[child]} <- {parents}".rstrip())
    return "\n".join(rows) + "\n"


def _dot(dag: Dag, names: tuple[str, ...]) -> str:
    rows = ["digraph network {"]
    for i in range(dag.n):
        rows.append(f'  "{names[i]}";')
    for parent, child in dag.arcs():
        rows.append(f'  "{names[parent]}" -> "{names[child]}";')
    rows.append("}")
    return "\n".join(rows) + "\n"


def cmd_score(args: argparse.Namespace) -> int:
    text = Path(args.data).read_text(encoding="utf-8")
    data = DiscreteDataset.from_csv(text)
    table = bic_scores(data, args.max_indegree, max_entries=args.max_entries)
    out_text = write_scores(table)
    lines = [f"F = {table.total_entries}"]
    for i in range(table.n):
        lines.append(f"parent_sets[{table.names[i]}] = {table.set_count(i)}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        Path(args.out).write_text(out_text, encoding="utf-8")
    else:
        sys.stdout.write(out_text)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    table = parse_scores(Path(args.scores).read_text(encoding="utf-8"))
    ledger = None
    dag = None
    if args.algo == "dp":
        score, dag = solve_dp(table)
    elif args.algo == "brute-orders":
        score = brute_force_orders(table)
    elif args.algo == "brute-dags":
        score = brute_force_dags(table)
    else:
        if args.shuffle_blocks:
            partition = BlockPartition.shuffled(table.n, args.k, args.seed)
        else:
            partition = BlockPartition.contiguous(table.n, args.k)
        strategy = "classical-scan" if args.algo == "cover" else "grover-sim"
        score, dag, ledger = solve_cover(table, partition, strategy, seed=args.seed)
    lines = [f"score = {score:.9f}", f"algo = {args.algo}"]
    if ledger is not None:
        lines.append(f"classical_evals = {ledger.classical_evals}")
        lines.append(f"charged_quantum_queries = {ledger.charged_quantum_queries}")
    sys.stdout.write("\n".join(lines) + "\n")
    if dag is not None:
        check = total_score(dag, table)
        if abs(check - score) > 1e-9:
            raise RuntimeError("witness DAG does not rescore to the printed value")
        edge_text = _edge_list(dag, table.names)
        if args.out:
            Path(args.out).write_text(edge_text, encoding="utf-8")
            Path(args.out).with_suffix(".dot").write_text(_dot(dag, table.names), encoding="utf-8")
        else:
            sys.stdout.write(edge_text)
    return 0


def cmd_cover_stats(args: argparse.Namespace) -> int:
    report = cost_report(args.n, args.entries, args.k)
    lines = report.lines()
    lines.append(f"work_proxy = {report.cover_members * report.downsets_per_member}")
    _emit(lines, args.report)
    return 0


def _bench_oracle(seed: int, instances: int) -> tuple[list[str], bool]:
    """Cross-check brute orders, subset DP, cover scan, and brute DAGs."""
    rng = rng_for(seed, "bench-oracle")
    max_gap = 0.0
    dag_checked = 0
    for trial in range(instances):
        n = 2 + trial % 7
        table = random_table(rng, n)
        reference, _ = solve_dp(table)
        gaps = [abs(reference - brute_force_orders(table))]
        for k in (2, 4):
            if k <= n:
                got, _, _ = solve_cover(
                    table, BlockPartition.contiguous(n, k), "classical-scan"
                )
                gaps.append(abs(reference - got))
        if n <= DAG_BRUTE_CAP:
            gaps.append(abs(reference - brute_force_dags(table)))
            dag_checked += 1
        max_gap = max(max_gap, max(gaps))
    ok = max_gap <= 1e-9
    lines = [
        "suite = oracle",
        f"instances = {instances}",
        f"dag_oracle_instances = {dag_checked}",
        f"max_abs_score_gap = {max_gap:.3e}",
        f"result = {'pass' if ok else 'fail'}",
    ]
    if not ok:
        lines.append("failed = oracle-equivalence")
    return lines, ok


def _binomial_tail(successes: int, trials: int) -> float:
    """P(X <= successes) for X ~ Bin(trials, 2/3): the exact sum of
    C(trials, j) 2^j / 3^trials over j <= successes, each term from the last."""
    term = total = 1
    for j in range(successes):
        term = term * 2 * (trials - j) // (j + 1)
        total += term
    return float(Fraction(total, 3**trials))


def _bench_grover(seed: int, trials: int) -> tuple[list[str], bool]:
    """Bounded-error rate of single-pass maximum finding, tested one-sided
    against p = 2/3 with the exact binomial tail, plus closed forms."""
    lines = ["suite = grover"]
    ok = True
    for m in (16, 64, 256):
        successes = 0
        queries = 0
        for t in range(trials):
            rng = rng_for(seed, "bench-grover-values", m, t)
            values = rng.permutation(m)
            truth = int(np.argmax(values))
            oracle = MaxOracle(m, lambda x, v=values: float(v[x]))
            x, _, led = max_find(
                oracle, m, "sim", rng_seed=seed * 1_000_003 + m * 101 + t, repetitions=1
            )
            successes += int(x == truth)
            queries += led.charged_quantum_queries
        rate = successes / trials
        margin = 1.96 * math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
        constant = queries / trials / (math.sqrt(m) * math.log2(m))
        p_below = _binomial_tail(successes, trials)
        lines.append(f"success_rate[{m}] = {rate:.4f}")
        lines.append(
            f"ci95[{m}] = [{max(0.0, rate - margin):.4f}, {min(1.0, rate + margin):.4f}]"
        )
        lines.append(f"measured_query_constant[{m}] = {constant:.3f}")
        lines.append(f"binomial_p_below_two_thirds[{m}] = {p_below:.4g}")
        if p_below < 0.01:
            ok = False
            lines.append(f"failed = bounded-error[{m}]")
    for m in (4, 64):
        size = padded_size(m)
        r = optimal_iterations(size, 1)
        predicted = success_probability(size, 1, r)
        marks = np.zeros(size, dtype=bool)
        marks[m - 1] = True
        sub_trials = max(trials, 500)
        hits = 0
        for t in range(sub_trials):
            rng = rng_for(seed, "bench-grover-single", m, t)
            hits += int(grover_trial(marks, r, rng) == m - 1)
        freq = hits / sub_trials
        lines.append(f"single_search_freq[{m}] = {freq:.4f}")
        lines.append(f"single_search_closed_form[{m}] = {predicted:.4f}")
        if abs(freq - predicted) > 0.05:
            ok = False
            lines.append(f"failed = closed-form-gap[{m}]")
    lines.append(f"result = {'pass' if ok else 'fail'}")
    return lines, ok


def _bench_scaling() -> tuple[list[str], bool]:
    """Charged-query formula checks and the desk-scale constants table."""
    lines = ["suite = scaling"]
    ok = True
    for n in (8, 12, 16, 20, 24):
        k = 4
        members = cover_size(n, k)
        charge = quantum_charge(members)
        recomputed = math.ceil(math.sqrt(members)) * max(
            1, math.ceil(math.log2(max(members, 2)))
        )
        reference = 1.982**n
        lines.append(
            f"row[n={n},k={k}] = members {members} charged {charge} reference {reference:.6g}"
        )
        if charge != recomputed:
            ok = False
            lines.append(f"failed = charge-formula[n={n}]")
    block = cost_report(26, None, 26)
    lines.append(f"block26_members = {block.block26_first_half_choices}")
    lines.append(f"block26_downsets = {block.block26_downsets}")
    lines.append(f"per_node_base_product_30 = {block.product_30}")
    speed24 = cost_report(24, None, 4).speedup_vs_subset
    speed48 = cost_report(48, None, 4).speedup_vs_subset
    lines.append(f"speedup_n24 = {speed24:.4f}")
    lines.append(f"speedup_n48 = {speed48:.4f}")
    if not (9.5 <= speed24 <= 10.5 and 95.0 <= speed48 <= 105.0):
        ok = False
        lines.append("failed = desk-scale-speedup")
    lines.append(f"result = {'pass' if ok else 'fail'}")
    return lines, ok


def cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "oracle":
        lines, ok = _bench_oracle(args.seed, args.instances)
    elif args.suite == "grover":
        lines, ok = _bench_grover(args.seed, args.trials)
    else:
        lines, ok = _bench_scaling()
    _emit(lines, args.report)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"score": cmd_score, "solve": cmd_solve, "cover-stats": cmd_cover_stats,
                "bench": cmd_bench}
    try:
        return commands[args.subcommand](args)
    except (
        InstanceTooLargeError,
        InvalidKError,
        DomainTooLargeError,
        StrategyUnavailableError,
        TooManyEntriesError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScoreFileError, DatasetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
