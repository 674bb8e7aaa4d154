"""Grover search sampling, maximum finding, and the cost report.

The dense ``Statevector`` below is the reference the library's closed-form
sampler is checked against: same measurement law, and the same outcome for
the same random draw.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnsl.bucket_cover import cover_size, downset_count_formula
from qbnsl.grover_sim import (
    _EXTRA_TRIALS,
    _GROWTH,
    MAX_SIM_DOMAIN,
    CostReport,
    DomainTooLargeError,
    MaxOracle,
    QueryLedger,
    _trial_probabilities,
    cost_report,
    grover_search_sim,
    grover_trial,
    max_find,
    optimal_iterations,
    padded_size,
    quantum_charge,
    success_probability,
)
from qbnsl.seeding import rng_for, seed_sequence
from reference import ledger_counts

NORM_TOL = 1e-9


def render(report: CostReport) -> str:
    """The report's key-value lines as one text, as ``cover-stats`` prints them."""
    return "\n".join(report.lines()) + "\n"


class Statevector:
    """Dense complex amplitudes over a power-of-two register."""

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray) -> None:
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        self.amps = amps
        self._check_norm()

    @classmethod
    def uniform(cls, size: int) -> "Statevector":
        if size < 1 or size & (size - 1):
            raise ValueError("size must be a power of two")
        return cls(np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128))

    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.amps) ** 2).sum()))

    def _check_norm(self) -> None:
        drift = abs(self.norm() - 1.0)
        if drift > NORM_TOL:
            raise RuntimeError(f"statevector norm drifted by {drift:.3e}")

    def apply_phase_flip(self, marks: np.ndarray) -> None:
        """Multiply marked amplitudes by -1 (the phase-oracle action)."""
        marks = np.asarray(marks, dtype=bool)
        if marks.shape != self.amps.shape:
            raise ValueError("marks must match the register size")
        self.amps[marks] *= -1.0
        self._check_norm()

    def apply_diffusion(self) -> None:
        """Reflect all amplitudes about their mean."""
        self.amps = 2.0 * self.amps.mean() - self.amps
        self._check_norm()

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def measure(self, rng: np.random.Generator) -> int:
        probs = self.probabilities()
        probs = probs / probs.sum()
        return int(rng.choice(probs.size, p=probs))


def dense_state(marks: np.ndarray, iterations: int) -> Statevector:
    state = Statevector.uniform(marks.size)
    for _ in range(iterations):
        state.apply_phase_flip(marks)
        state.apply_diffusion()
    return state


def dense_trial(marks, iterations, rng, ledger=None) -> int:
    state = dense_state(marks, iterations)
    if ledger is not None:
        ledger.charge_quantum(iterations)
    return state.measure(rng)


def dense_search(predicate, m, rng, ledger):
    """Unknown-count search with a per-point predicate and dense trials."""
    size = padded_size(m)
    marks = np.array([x < m and bool(predicate(x)) for x in range(size)])
    saturation = max(1, math.floor((math.pi / 4.0) * math.sqrt(size)))
    trials = (
        math.ceil(math.log(saturation) / math.log(_GROWTH)) if saturation > 1 else 0
    ) + _EXTRA_TRIALS
    for t in range(trials):
        iterations = min(math.ceil(_GROWTH**t), saturation)
        outcome = dense_trial(marks, iterations, rng, ledger)
        if outcome < m:
            ledger.count_classical()
            if predicate(outcome):
                return outcome
    return None


def dense_max_find(values, rng_seed, repetitions):
    """Threshold-driven maximum finding over dense statevector trials."""
    ledger = QueryLedger()
    m = len(values)
    best = None
    for stream in seed_sequence(rng_seed, "max-find").spawn(repetitions):
        rng = np.random.default_rng(stream)
        best_x = int(rng.integers(m))
        ledger.count_classical()
        while True:
            threshold = values[best_x]
            found = dense_search(lambda y: values[y] > threshold, m, rng, ledger)
            if found is None:
                break
            best_x = found
            ledger.count_classical()
        if best is None or values[best_x] > values[best]:
            best = best_x
    return best, float(values[best]), ledger_counts(ledger)


def test_statevector_uniform_and_validation():
    s = Statevector.uniform(8)
    assert s.norm() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(s.probabilities(), 1 / 8)
    with pytest.raises(ValueError):
        Statevector.uniform(6)
    with pytest.raises(ValueError):
        Statevector.uniform(0)
    with pytest.raises(RuntimeError):
        Statevector(np.array([1.0, 0.5]))


def test_phase_flip_is_diagonal_sign_change():
    s = Statevector.uniform(4)
    marks = np.array([False, True, False, True])
    s.apply_phase_flip(marks)
    assert np.allclose(s.amps, np.array([0.5, -0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        s.apply_phase_flip(np.array([True, False]))


def test_diffusion_reflects_about_mean():
    s = Statevector(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    s.apply_diffusion()
    assert np.allclose(s.amps, np.array([-0.5, 0.5, 0.5, 0.5]))


@given(st.integers(1, 5), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_gates_preserve_norm(log_size, seed):
    rng = np.random.default_rng(seed)
    size = 1 << log_size
    raw = rng.normal(size=size) + 1j * rng.normal(size=size)
    raw /= np.linalg.norm(raw)
    s = Statevector(raw)
    marks = rng.integers(2, size=size).astype(bool)
    for _ in range(5):
        s.apply_phase_flip(marks)
        s.apply_diffusion()
    assert s.norm() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "size,marked,iterations",
    [(4, 1, 1), (16, 1, 3), (64, 1, 6), (64, 4, 2), (256, 2, 8), (8, 3, 1)],
)
def test_rotation_closed_form_is_exact(size, marked, iterations):
    # The simulated measurement distribution must match sin^2((2r+1)theta)
    # to numerical precision, not just statistically.
    marks = np.zeros(size, dtype=bool)
    marks[:marked] = True
    s = Statevector.uniform(size)
    for _ in range(iterations):
        s.apply_phase_flip(marks)
        s.apply_diffusion()
    hit = float(s.probabilities()[marks].sum())
    assert hit == pytest.approx(
        success_probability(size, marked, iterations), abs=1e-12
    )


def test_optimal_iterations_and_padding():
    assert padded_size(1) == 2
    assert padded_size(2) == 2
    assert padded_size(3) == 4
    assert padded_size(5) == 8
    assert padded_size(4096) == 4096
    assert optimal_iterations(4, 1) == 1
    assert optimal_iterations(64, 1) == 6
    with pytest.raises(ValueError):
        optimal_iterations(4, 0)
    with pytest.raises(ValueError):
        padded_size(0)


def test_grover_trial_charges_one_query_per_iteration():
    ledger = QueryLedger()
    marks = np.zeros(8, dtype=bool)
    marks[3] = True
    grover_trial(marks, 5, rng_for(0, "trial"), ledger)
    assert ledger.charged_quantum_queries == 5
    assert ledger.classical_evals == 0


@pytest.mark.parametrize("size", [2, 4, 8, 64, 1024])
def test_closed_form_matches_dense_statevector(size):
    # Every k for small N (a spread for N = 1024), marked points at seeded
    # positions, r = 0..12: the per-point law agrees with the dense
    # simulation, and one seeded trial measures the same index from the
    # same single draw.
    rng = rng_for(77, "closed-form-layout", size)
    counts = range(size + 1) if size <= 64 else (0, 1, 2, 3, 17, 256, 511, 1023, 1024)
    for k in counts:
        marks = np.zeros(size, dtype=bool)
        marks[rng.choice(size, size=k, replace=False)] = True
        for r in range(13):
            dense = dense_state(marks, r).probabilities()
            assert np.abs(_trial_probabilities(marks, r) - dense).max() <= 1e-12
            for seed in range(3):
                fast_rng = rng_for(seed, "closed-form-draw", size, k, r)
                dense_rng = rng_for(seed, "closed-form-draw", size, k, r)
                ledger = QueryLedger()
                got = grover_trial(marks, r, fast_rng, ledger)
                assert got == dense_trial(marks, r, dense_rng), (size, k, r, seed)
                assert ledger.charged_quantum_queries == r
                assert fast_rng.random() == dense_rng.random()


@pytest.mark.parametrize("m", [1, 2, 5, 16, 37, 100, 256, 1296])
def test_max_find_matches_dense_reference(m):
    # Distinct values and tie-heavy values (few levels, several argmaxes).
    for values in (
        rng_for(13, "dense-ref-distinct", m).permutation(m).astype(float),
        rng_for(13, "dense-ref-ties", m).integers(0, 4, size=m).astype(float),
    ):
        seeds = (0, 1, 7) if m > 256 else range(6)
        for seed in seeds:
            repetitions = 1 + seed % 3
            oracle = MaxOracle(m, values.__getitem__)
            x, v, ledger = max_find(
                oracle, m, "sim", rng_seed=seed, repetitions=repetitions
            )
            got = (x, v, ledger_counts(ledger))
            assert got == dense_max_find(values, seed, repetitions), (m, seed)


def test_search_zero_marked_returns_none():
    ledger = QueryLedger()
    out = grover_search_sim(np.zeros(16, dtype=bool), rng_for(1, "grover-search"), ledger)
    assert out is None
    assert ledger.charged_quantum_queries > 0


def test_search_finds_unique_mark_reliably():
    hits = 0
    for t in range(50):
        out = grover_search_sim(np.arange(16) == 11, rng_for(t, "grover-search"))
        hits += int(out == 11)
    assert hits >= 48


def test_search_never_returns_padding_or_false_positive():
    for t in range(30):
        out = grover_search_sim(np.arange(5) == 2, rng_for(t, "grover-search"))
        assert out in (None, 2)


def test_search_domain_cap():
    with pytest.raises(DomainTooLargeError):
        grover_search_sim(np.ones(MAX_SIM_DOMAIN + 1, dtype=bool), rng_for(0, "grover-search"))


def test_quantum_charge_exact_integers():
    assert quantum_charge(1) == 1
    assert quantum_charge(2) == 2
    assert quantum_charge(36) == 6 * 6
    assert quantum_charge(37) == 7 * 6
    assert quantum_charge(1296) == 36 * 11
    assert quantum_charge(10400600) == 3225 * 24
    with pytest.raises(ValueError):
        quantum_charge(0)


def test_max_find_small_list():
    oracle = MaxOracle(5, lambda x: [3.0, 1.0, 4.0, 1.0, 5.0][x])
    x, v, ledger = max_find(oracle, 5, "sim", rng_seed=9)
    assert (x, v) == (4, 5.0)
    assert ledger.charged_quantum_queries > 0


def test_max_find_constant_oracle_returns_valid_point():
    oracle = MaxOracle(8, lambda x: 2.5)
    x, v, _ = max_find(oracle, 8, "sim", rng_seed=4)
    assert 0 <= x < 8 and v == 2.5


def test_max_find_validation():
    oracle = MaxOracle(4, float)
    for mode in ("oracle-free", "cost-model"):
        with pytest.raises(ValueError):
            max_find(oracle, 4, mode)
    with pytest.raises(ValueError):
        max_find(oracle, 9, "sim")
    with pytest.raises(ValueError):
        max_find(oracle, 4, "sim", repetitions=0)


def test_max_find_unamplified_success_rate_exceeds_two_thirds():
    trials = 150
    successes = 0
    for t in range(trials):
        rng = rng_for(31, "maxrate", t)
        values = rng.permutation(32)
        oracle = MaxOracle(32, lambda x, v=values: float(v[x]))
        x, _, _ = max_find(oracle, 32, "sim", rng_seed=1000 + t, repetitions=1)
        successes += int(x == int(np.argmax(values)))
    assert successes / trials >= 2 / 3


def test_oracle_eval_is_metered_and_bounded():
    oracle = MaxOracle(3, float)
    assert oracle.eval(2) == 2.0
    assert oracle.ledger.classical_evals == 1
    with pytest.raises(IndexError):
        oracle.eval(3)
    with pytest.raises(ValueError):
        MaxOracle(0, float)


def test_ledger_merge_and_dict():
    a = QueryLedger(classical_evals=3, charged_quantum_queries=5)
    assert ledger_counts(a) == {"classical_evals": 3, "charged_quantum_queries": 5}


def test_cost_report_fields_match_independent_formulas():
    n, k = 12, 4
    report = cost_report(n, None, k)
    members = cover_size(n, k)
    downsets = downset_count_formula(n, k)
    entries = n * (1 << (n - 1))
    assert report.cover_members == members
    assert report.downsets_per_member == downsets
    assert report.total_entries == entries
    assert report.member_dp_bound == downsets * n * n + entries * n
    assert report.charged_queries == quantum_charge(members)
    assert report.classical_subset_bound == (1 << n) * n * n
    assert report.cover_search_bound == pytest.approx(
        downsets * n * n * math.sqrt(members) * math.log(members), rel=1e-12
    )
    assert report.speedup_vs_subset == pytest.approx((2 / 1.817) ** n, rel=1e-12)
    assert report.order_search_bound == pytest.approx(
        1.817**n * math.sqrt(entries), rel=1e-10
    )
    assert report.subexp_entry_budget == pytest.approx(1.212**n, rel=1e-12)
    assert report.cover_entry_budget == pytest.approx(1.453**n, rel=1e-12)


@pytest.mark.parametrize("n", [999, 1000])
def test_cost_report_prints_bounds_beyond_float_range(n):
    # Both search bounds exceed float's range at these n: they print as
    # 17 significant digits of their decimal value, not as inf.
    members, downsets = cover_size(n, 2), downset_count_formula(n, 2)
    printed = dict(line.split(" = ", 1) for line in cost_report(n, None, 2).lines())
    with mp.workdps(40):
        want = {
            "cover_search_bound": downsets * n * n * mp.sqrt(members) * mp.log(members),
            "order_search_bound": mp.mpf("1.817") ** n * mp.sqrt(n * 2 ** (n - 1)),
        }
        for key, value in want.items():
            assert value > mp.mpf(np.finfo(float).max)
            assert abs(mp.mpf(printed[key]) / value - 1) < mp.mpf("1e-15"), key


def test_cost_report_block_constants_thirty_digits():
    report = cost_report(8, 1024, 4)
    assert report.block26_first_half_choices == 10400600
    assert report.block26_downsets == 16383
    with mp.workdps(50):
        choices_root = mp.mpf(10400600) ** (mp.mpf(1) / 52)
        downsets_root = mp.mpf(16383) ** (mp.mpf(1) / 26)
        assert abs(mp.mpf(report.choices_root_30) - choices_root) < mp.mpf("1e-25")
        assert abs(mp.mpf(report.downsets_root_30) - downsets_root) < mp.mpf("1e-25")
        product = choices_root * downsets_root
        assert abs(mp.mpf(report.product_30) - product) < mp.mpf("1e-25")
    assert report.choices_root_up5 == 1.3645
    assert report.downsets_root_up5 == 1.4525
    assert report.rounded_chain_product == pytest.approx(1.3645 * 1.4525, abs=1e-12)
    assert report.chain_bound == 1.982


def test_cost_report_desk_scale_speedups():
    assert 9.5 <= cost_report(24, None, 4).speedup_vs_subset <= 10.5
    assert 95.0 <= cost_report(48, None, 4).speedup_vs_subset <= 105.0


def test_cost_report_renders_key_value_lines():
    report = cost_report(8, None, 4)
    text = render(report)
    assert "cover_members = 36" in text
    assert "downsets_per_member = 49" in text
    assert "qram = assumed" in text
    assert isinstance(report, CostReport)


REPORT_12_4 = """\
n = 12
k = 4
total_entries = 24576
cover_members = 216
downsets_per_member = 343
member_dp_bound = 344304
cover_search_bound = 3901974.7146130996
charged_queries = 120
order_search_bound = 203008.73587035513
classical_subset_bound = 589824
speedup_vs_subset = 3.16301185946117
subexp_entry_budget = 10.046885156265736
cover_entry_budget = 88.5497565612344
block26_first_half_choices = 10400600
block26_downsets = 16383
choices_root_30 = 1.36440540338925365752479166577
downsets_root_30 = 1.45241944644288795268785932808
product_30 = 1.98168894071430503535895103766
choices_root_up5 = 1.3645
downsets_root_up5 = 1.4525
rounded_chain_product = 1.98193625
chain_bound = 1.982
qram = assumed (oracle values are loaded as addressable memory; loads are \
unmetered and no physical realization is claimed)
"""

REPORT_26_26 = """\
n = 26
k = 26
total_entries = 872415232
cover_members = 10400600
downsets_per_member = 16383
member_dp_bound = 22693870940
cover_search_bound = 577085421977.1956
charged_queries = 77400
order_search_bound = 163527098036.14395
classical_subset_bound = 45365592064
speedup_vs_subset = 12.12137193017091
subexp_entry_budget = 148.27506243867498
cover_entry_budget = 16554.115147482626
block26_first_half_choices = 10400600
block26_downsets = 16383
choices_root_30 = 1.36440540338925365752479166577
downsets_root_30 = 1.45241944644288795268785932808
product_30 = 1.98168894071430503535895103766
choices_root_up5 = 1.3645
downsets_root_up5 = 1.4525
rounded_chain_product = 1.98193625
chain_bound = 1.982
qram = assumed (oracle values are loaded as addressable memory; loads are \
unmetered and no physical realization is claimed)
"""


@pytest.mark.parametrize(
    "n,k,text", [(12, 4, REPORT_12_4), (26, 26, REPORT_26_26)]
)
def test_cost_report_render_is_pinned(n, k, text):
    assert render(cost_report(n, None, k)) == text
