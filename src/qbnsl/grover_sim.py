"""Simulated Grover maximum finding plus an analytic cost model.

The simulator is honest about what a quantum computer would and would not
do: each search samples the exact measurement law of the Grover iterate
(a two-amplitude closed form, equal in law and in seeded outcome to dense
statevector arithmetic), every oracle application is charged to a query
ledger, and the oracle diagonal that a QRAM-equipped machine would load in
superposition is built once per search without being metered (that
assumption is spelled out in the cost report).  Classical evaluations of
the objective are counted separately, so classical-vs-quantum comparisons
never mix units.

A trial makes ``Generator.choice``'s draw and lookup: one uniform variate
and the point whose cell of the law holds it.  The cell boundaries are
closed forms in the sorted marked points, not a running float sum, so the
lookups differ only for a draw within rounding error of a boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from decimal import ROUND_CEILING, Decimal, localcontext
from typing import Callable

import numpy as np

from .bucket_cover import cover_size, downset_count_formula, lattice_radix, member_radix
from .seeding import seed_sequence

MAX_SIM_DOMAIN = 4096
_PROB_TOL = 1e-9  # allowed drift of a trial's total measurement probability from 1
_GROWTH = 1.2  # iteration-count growth per trial when the marked count is unknown
_EXTRA_TRIALS = 8  # saturated-schedule retries before reporting absence


class DomainTooLargeError(ValueError):
    """The search domain exceeds the simulation cap."""


@dataclass
class QueryLedger:
    """Separate meters for classical objective evaluations and oracle calls.

    ``classical_evals`` counts honest evaluations of the objective by
    classical code (including verifications of measured outcomes);
    ``charged_quantum_queries`` counts applications of the phase oracle in
    simulation, or the analytic charge when running the cost model.
    """

    classical_evals: int = 0
    charged_quantum_queries: int = 0

    def count_classical(self, amount: int = 1) -> None:
        self.classical_evals += amount

    def charge_quantum(self, amount: int = 1) -> None:
        self.charged_quantum_queries += amount


@dataclass
class MaxOracle:
    """A real-valued objective on 0..m-1 with metered point evaluation.

    ``eval`` is the countable classical operation.  ``table`` materializes
    the full value vector once for the simulator; the load is deliberately
    unmetered, standing in for QRAM access, and is cached so repeated
    searches reuse it.
    """

    m: int
    fn: Callable[[int], float]
    ledger: QueryLedger = field(default_factory=QueryLedger)
    _table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("domain must be nonempty")

    def eval(self, x: int) -> float:
        if not 0 <= x < self.m:
            raise IndexError(f"point {x} outside domain of size {self.m}")
        self.ledger.count_classical()
        return float(self.fn(x))

    def table(self) -> np.ndarray:
        """All m values; a NaN would compare false with every threshold."""
        if self._table is None:
            table = np.fromiter(map(self.fn, range(self.m)), np.float64, self.m)
            nan = np.flatnonzero(np.isnan(table))
            if nan.size:
                float(self.fn(int(nan[0])))  # fromiter reads None as NaN; float() does not
                raise ValueError(f"the oracle value at point {nan[0]} is NaN")
            self._table = table
        return self._table


def padded_size(m: int) -> int:
    """Smallest power of two >= max(m, 2)."""
    if m < 1:
        raise ValueError("domain must be nonempty")
    return 1 << max(1, (m - 1).bit_length())


def optimal_iterations(domain: int, marked: int) -> int:
    """floor((pi/4) * sqrt(N/k)) iterations, the ideal count when k is known."""
    if marked < 1 or domain < marked:
        raise ValueError("need 1 <= marked <= domain")
    return int(math.floor((math.pi / 4.0) * math.sqrt(domain / marked)))


def success_probability(domain: int, marked: int, iterations: int) -> float:
    """Closed form sin^2((2r+1) * asin(sqrt(k/N))) for uniform-start trials."""
    theta = math.asin(math.sqrt(marked / domain))
    return math.sin((2 * iterations + 1) * theta) ** 2


def _hit_miss(size: int, marked: int, iterations: int) -> tuple[float, float]:
    """Probability of each marked and of each unmarked point after r iterations.

    From the uniform start the state stays in the span of the uniform
    marked and unmarked superpositions.  With k of the N points marked and
    theta = asin(sqrt(k/N)), each marked point ends with probability
    sin^2((2r+1) theta) / k and each unmarked one cos^2((2r+1) theta) / (N-k).
    The law is checked to sum to 1.
    """
    angle = (2 * iterations + 1) * math.asin(math.sqrt(marked / size))
    hit = math.sin(angle) ** 2 / marked if marked else 0.0
    miss = math.cos(angle) ** 2 / (size - marked) if marked < size else 0.0
    total = hit * marked + miss * (size - marked)
    if abs(total - 1.0) > _PROB_TOL:
        raise RuntimeError(f"trial probabilities drifted from 1 by {total - 1.0:.3e}")
    return hit, miss


def grover_trial(
    marks: np.ndarray,
    iterations: int,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
    *,
    law: tuple[int, list[int], float, float] | None = None,
) -> int:
    """One prepare/iterate/measure pass; charges one query per iteration.

    The cell of the i-th marked point p_i starts at miss*(p_i - i) + hit*i.
    Bisecting those starts finds the marked cell or the unmarked gap that
    holds the draw, and a division finds the point within a gap.  ``law``
    is (register size, sorted marked points, hit, miss) when the caller
    already has it; the register may be padded beyond ``marks``.
    """
    marks = np.asarray(marks, dtype=bool)
    if marks.size < 1:
        raise ValueError("marks must be nonempty")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if ledger is not None:
        ledger.charge_quantum(iterations)
    if law is None:
        positions = np.flatnonzero(marks).tolist()
        law = (marks.size, positions, *_hit_miss(marks.size, len(positions), iterations))
    size, positions, hit, miss = law

    def start(j: int) -> float:  # the mass before the j-th marked point
        return miss * (positions[j] - j) + hit * j

    u = rng.random()
    i = bisect_right(range(len(positions)), u, key=start)
    if i and u < start(i - 1) + hit:
        return positions[i - 1]
    # u lies in the unmarked gap after i marked points.
    low = positions[i - 1] + 1 if i else 0
    high = positions[i] - 1 if i < len(positions) else size - 1
    x = i + math.floor((u - hit * i) / miss) if miss else low
    return min(max(x, low), high)


def grover_search_sim(
    marks: np.ndarray, rng: np.random.Generator, ledger: QueryLedger | None = None
) -> int | None:
    """Find some marked x in [0, m), or None if none was certified.

    ``marks`` is the oracle diagonal: a boolean array of length m whose
    true entries are the points the phase oracle flips.  The marked count
    is unknown, so trial iteration counts grow geometrically and saturate
    at floor((pi/4) sqrt(N)); each measured candidate is verified
    classically (metered) before being returned.  Bounded error: when
    marked points exist, the return is None with probability well below
    1/3; when none exist the return is always None.
    """
    diagonal = np.asarray(marks, dtype=bool)
    if diagonal.ndim != 1:
        raise ValueError("the oracle diagonal must be one-dimensional")
    m = diagonal.size
    if m < 1:
        raise ValueError("domain must be nonempty")
    if m > MAX_SIM_DOMAIN:
        raise DomainTooLargeError(f"m={m} exceeds the simulation cap {MAX_SIM_DOMAIN}")
    size = padded_size(m)
    positions = np.flatnonzero(diagonal).tolist()
    saturation = max(1, math.floor((math.pi / 4.0) * math.sqrt(size)))
    trials = (
        math.ceil(math.log(saturation) / math.log(_GROWTH)) if saturation > 1 else 0
    ) + _EXTRA_TRIALS
    laws: dict[int, tuple[int, list[int], float, float]] = {}  # by iteration count
    for t in range(trials):
        iterations = min(math.ceil(_GROWTH**t), saturation)
        if iterations not in laws:
            laws[iterations] = (size, positions, *_hit_miss(size, len(positions), iterations))
        outcome = grover_trial(diagonal, iterations, rng, ledger, law=laws[iterations])
        if outcome < m:
            if ledger is not None:
                ledger.count_classical()
            if diagonal[outcome]:
                return outcome
    return None


def quantum_charge(m: int) -> int:
    """Analytic per-search charge ceil(sqrt(m)) * ceil(log2(max(m, 2)))."""
    if m < 1:
        raise ValueError("domain must be nonempty")
    return (math.isqrt(m - 1) + 1) * max(1, (max(m, 2) - 1).bit_length())


def _threshold_run(
    oracle: MaxOracle, values: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[int, float]:
    """One maximum-finding pass: repeatedly exceed the running threshold."""
    best_x = int(rng.integers(m))
    best_v = oracle.eval(best_x)
    while True:
        found = grover_search_sim(values[:m] > best_v, rng=rng, ledger=oracle.ledger)
        if found is None:
            return best_x, best_v
        best_x = found
        best_v = oracle.eval(found)


def max_find(
    oracle: MaxOracle,
    m: int,
    mode: str,
    rng_seed: int | None = None,
    *,
    repetitions: int = 7,
) -> tuple[int, float, QueryLedger]:
    """Maximum of the oracle over [0, m) by threshold-driven search.

    ``mode`` must be ``'sim'``: the simulated search.  Each repetition is
    an independent bounded-error pass and the best outcome is kept, so the
    failure probability decays exponentially in ``repetitions`` (the
    default 7 brings (1/3)^7 < 5e-4).  The analytic charge without
    simulation is ``solve_cover``'s ``grover-cost-model`` strategy.
    """
    if m < 1 or m > oracle.m:
        raise ValueError("m must be within the oracle's domain")
    if mode != "sim":
        raise ValueError(f"unknown mode {mode!r}")
    if m > MAX_SIM_DOMAIN:
        raise DomainTooLargeError(f"m={m} exceeds the simulation cap {MAX_SIM_DOMAIN}")
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    values = oracle.table()
    streams = seed_sequence(0 if rng_seed is None else rng_seed, "max-find").spawn(
        repetitions
    )
    runs = (_threshold_run(oracle, values, m, np.random.default_rng(s)) for s in streams)
    x, v = max(runs, key=lambda run: run[1])  # the first of the best runs
    return x, v, oracle.ledger


def _ceil_significant(x: Decimal, digits: int) -> Decimal:
    """Round up to the given number of significant decimal digits."""
    if x <= 0:
        raise ValueError("positive values only")
    return x.quantize(Decimal(1).scaleb(x.adjusted() + 1 - digits), ROUND_CEILING)


@dataclass(frozen=True)
class CostReport:
    """Analytic query/work accounting for one (n, k, entry-count) setting.

    All bounds are leading-order operation counts, not wall-clock claims.
    The 26-wide block constants pin down the per-node base of the cover
    search: choices^(1/(2*26)) * downsets^(1/26) stays below 1.9820, and
    the report carries 30-digit decimal strings for the exact roots plus
    their up-rounded 5-digit display values so the chain can be re-checked;
    real-valued fields are computed in decimal and rounded to float once,
    except that a bound beyond float's range keeps its decimal value.
    """

    n: int
    k: int
    total_entries: int
    cover_members: int
    downsets_per_member: int
    member_dp_bound: int
    cover_search_bound: float | Decimal
    charged_queries: int
    order_search_bound: float | Decimal
    classical_subset_bound: int
    speedup_vs_subset: float | Decimal
    subexp_entry_budget: float | Decimal
    cover_entry_budget: float | Decimal
    block26_first_half_choices: int
    block26_downsets: int
    choices_root_30: str
    downsets_root_30: str
    product_30: str
    choices_root_up5: float
    downsets_root_up5: float
    rounded_chain_product: float
    chain_bound: float
    qram_note: str

    def lines(self) -> list[str]:
        """One ``key = value`` line per field; ``qram_note`` prints as ``qram``,
        and a decimal value as its 17 significant digits."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Decimal):
                value = format(value, ".17g")
            out.append(f"{'qram' if f.name == 'qram_note' else f.name} = {value}")
        return out


def _real(value: Decimal) -> float | Decimal:
    """``value`` rounded to float, or kept as it is where a float would be inf."""
    rounded = float(value)
    return rounded if math.isfinite(rounded) else value


def cost_report(n: int, total_entries: int | None = None, k: int = 2) -> CostReport:
    """Build the analytic cost report for problem size n and block size k.

    ``total_entries`` defaults to full tables, n * 2^(n-1).  Exact integer
    quantities stay exact; everything else, the 26-block root constants
    included, is evaluated in a 40-digit decimal context, and the roots are
    reported to 30 significant digits.
    """
    if total_entries is None:
        total_entries = n * (1 << (n - 1))
    members = cover_size(n, k)
    downsets = downset_count_formula(n, k)
    with localcontext() as ctx:
        ctx.prec = 40
        choices_root = (Decimal(member_radix(26)).ln() / 52).exp()
        downsets_root = (Decimal(lattice_radix(26)).ln() / 26).exp()
        product = choices_root * downsets_root
        choices_up = _ceil_significant(choices_root, 5)
        downsets_up = _ceil_significant(downsets_root, 5)
        chain = choices_up * downsets_up
        report = CostReport(
            n=n,
            k=k,
            total_entries=total_entries,
            cover_members=members,
            downsets_per_member=downsets,
            member_dp_bound=downsets * n * n + total_entries * n,
            cover_search_bound=_real(
                Decimal(downsets * n * n) * Decimal(members).sqrt() * Decimal(members).ln()
            ),
            charged_queries=quantum_charge(members),
            order_search_bound=_real(Decimal("1.817") ** n * Decimal(total_entries).sqrt()),
            classical_subset_bound=(1 << n) * n * n,
            speedup_vs_subset=_real((2 / Decimal("1.817")) ** n),
            subexp_entry_budget=_real(Decimal("1.212") ** n),
            cover_entry_budget=_real(Decimal("1.453") ** n),
            block26_first_half_choices=member_radix(26),
            block26_downsets=lattice_radix(26),
            choices_root_30=format(choices_root, ".30g"),
            downsets_root_30=format(downsets_root, ".30g"),
            product_30=format(product, ".30g"),
            choices_root_up5=float(choices_up),
            downsets_root_up5=float(downsets_up),
            rounded_chain_product=float(chain),
            chain_bound=float(_ceil_significant(chain, 5)),
            qram_note=(
                "assumed (oracle values are loaded as addressable memory; "
                "loads are unmetered and no physical realization is claimed)"
            ),
        )
    return report
