"""Measure maximum-finding success rates of the simulated Grover search.

Each search trial samples the exact two-amplitude measurement law, the
same law a dense statevector simulation gives.  Two curves: the single
Grover search frequency against the closed form sin^2((2r+1) * theta),
and the un-amplified threshold-loop success rate for maximum finding on
planted permutations, per domain size.  Rates are sampled, so expect
binomial noise of roughly 1/sqrt(trials).
"""

from __future__ import annotations

import argparse

import numpy as np

from qbnsl.grover_sim import (
    MaxOracle,
    grover_trial,
    max_find,
    optimal_iterations,
    success_probability,
)
from qbnsl.seeding import rng_for


def single_search_curve(trials: int, seed: int) -> None:
    print(f"{'m':>6} {'iters':>6} {'measured':>9} {'closed form':>12}")
    for m in (4, 8, 16, 32, 64, 128):
        r = optimal_iterations(m, 1)
        marks = np.zeros(m, dtype=bool)
        marks[m - 1] = True
        hits = sum(
            int(grover_trial(marks, r, rng_for(seed, "curve-single", m, t)) == m - 1)
            for t in range(trials)
        )
        print(
            f"{m:>6} {r:>6} {hits / trials:>9.4f} "
            f"{success_probability(m, 1, r):>12.4f}"
        )


def max_find_curve(trials: int, seed: int) -> None:
    print(f"\n{'m':>6} {'reps':>5} {'success':>8} {'avg queries':>12}")
    for m in (16, 64, 256):
        for repetitions in (1, 3, 7):
            successes = 0
            queries = 0
            for t in range(trials):
                values = rng_for(seed, "curve-values", m, t).permutation(m)
                oracle = MaxOracle(m, lambda x, v=values: float(v[x]))
                x, _, ledger = max_find(
                    oracle,
                    m,
                    "sim",
                    rng_seed=seed * 33_554_467 + m * 1009 + repetitions * 97 + t,
                    repetitions=repetitions,
                )
                successes += int(x == int(np.argmax(values)))
                queries += ledger.charged_quantum_queries
            print(
                f"{m:>6} {repetitions:>5} {successes / trials:>8.4f} "
                f"{queries / trials:>12.1f}"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    single_search_curve(args.trials, args.seed)
    max_find_curve(args.trials, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
