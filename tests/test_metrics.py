"""BER/QBER estimators, Wilson intervals, chi-square helpers."""
import numpy as np
import pytest

from qtsim.metrics import (
    CHI2_CRIT_P001,
    MetricAccumulator,
    chi2_statistic,
    chi2_uniform_statistic,
    wilson_interval,
)


def test_worst_case_pair_mapping_doubles_rate():
    # N_e classical errors on 2*Nq bits hitting distinct pairs: every hit
    # qubit is wrong, so the qubit error rate is exactly twice the bit rate
    n_qubits = 500
    sent = np.zeros(2 * n_qubits, dtype=np.int8)
    received = sent.copy()
    hit_pairs = np.arange(0, 50)
    received[2 * hit_pairs] ^= 1  # one flipped bit per hit pair
    ber = np.count_nonzero(sent != received) / sent.size
    qubit_errors = sum(
        received[2 * q] != sent[2 * q] or received[2 * q + 1] != sent[2 * q + 1]
        for q in range(n_qubits)
    )
    qber = qubit_errors / n_qubits
    assert qber == pytest.approx(2 * ber)


def test_accumulator_merge_and_invariants():
    acc = MetricAccumulator()
    acc.add(3, 100)
    acc.add(1, 100)
    assert acc.n_total == 200 and acc.n_error == 4
    assert acc.rate == pytest.approx(0.02)
    lo, hi = acc.wilson_ci95
    assert 0.0 <= lo < acc.rate < hi <= 1.0
    with pytest.raises(ValueError):
        MetricAccumulator(n_total=5, n_error=6)


def test_wilson_edge_cases():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = wilson_interval(50, 50)
    assert 0.8 < lo < 1.0 and hi == 1.0


def test_wilson_coverage_over_synthetic_rates():
    # nominally 95%; demand >= 93% over 1000 random (p, k) draws
    rng = np.random.default_rng(70)
    inside = 0
    for _ in range(1000):
        p = 10 ** rng.uniform(-3, -0.05)
        n = int(rng.integers(50, 2000))
        k = rng.binomial(n, p)
        lo, hi = wilson_interval(k, n)
        inside += lo <= p <= hi
    assert inside >= 930


def test_chi2_statistic_independent_table():
    # perfectly proportional table has statistic 0
    assert chi2_statistic([[10, 20], [30, 60]]) == pytest.approx(0.0)
    # strongly dependent table exceeds the 0.001 critical value
    assert chi2_statistic([[100, 0], [0, 100]]) > CHI2_CRIT_P001[1]


def test_chi2_uniform_statistic():
    assert chi2_uniform_statistic([25, 25, 25, 25]) == 0.0
    assert chi2_uniform_statistic([100, 0, 0, 0]) > CHI2_CRIT_P001[3]
