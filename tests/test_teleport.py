"""Teleportation protocol: measurement, correction table, error mapping."""
import math

import numpy as np
import pytest

from qtsim.qstate import (
    PHI_PLUS,
    BellKind,
    PauliError,
    StateVector,
    apply_gate,
    fidelity,
    make_bell,
    random_state,
    tensor,
)
from qtsim.teleport import (
    DEFAULT_TEST_STATE,
    receiver_correct,
    sender_measure,
    teleport_once,
)

ALPHA, BETA = 0.6, 0.8


class ScriptedRng:
    """Fixed uniform stream for forcing measurement branches."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def _joint(alpha=ALPHA, beta=BETA):
    return tensor(StateVector(1, [alpha, beta]), make_bell(PHI_PLUS))


# ---------------------------------------------------------------------------
# sender-side measurement
# ---------------------------------------------------------------------------

def test_sender_measure_outcome_00_residual():
    # u >= P(bit=1) = 0.5 selects bit 0 on both measurements
    outcome, residual = sender_measure(_joint(), ScriptedRng([0.9, 0.9]))
    assert (outcome.phase_bit, outcome.parity_bit) == (0, 0)
    assert np.allclose(residual.amplitudes, [ALPHA, BETA], atol=1e-9)


def test_sender_measure_outcome_11_residual():
    outcome, residual = sender_measure(_joint(), ScriptedRng([0.1, 0.1]))
    assert (outcome.phase_bit, outcome.parity_bit) == (1, 1)
    # residual must be a|1> - b|0>
    assert np.allclose(residual.amplitudes, [-BETA, ALPHA], atol=1e-9)


def test_sender_measure_outcome_distribution():
    rng = np.random.default_rng(10)
    n = 100_000
    counts = {k: 0 for k in range(4)}
    joint = _joint()
    for _ in range(n):
        outcome, _ = sender_measure(joint, rng)
        counts[2 * outcome.phase_bit + outcome.parity_bit] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sigma


def test_sender_measure_needs_three_qubits():
    with pytest.raises(ValueError):
        sender_measure(make_bell(PHI_PLUS), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# receiver-side correction (the measurement-result table)
# ---------------------------------------------------------------------------

def test_correct_01_applies_x():
    wrong = StateVector(1, [BETA, ALPHA])  # a|1> + b|0>
    fixed = receiver_correct(wrong, BellKind(0, 1))
    assert np.allclose(fixed.amplitudes, [ALPHA, BETA])


def test_correct_10_applies_z():
    wrong = StateVector(1, [ALPHA, -BETA])  # a|0> - b|1>
    fixed = receiver_correct(wrong, BellKind(1, 0))
    assert np.allclose(fixed.amplitudes, [ALPHA, BETA])


def test_correct_11_applies_x_then_z():
    wrong = StateVector(1, [-BETA, ALPHA])  # a|1> - b|0>
    fixed = receiver_correct(wrong, BellKind(1, 1))
    assert np.allclose(fixed.amplitudes, [ALPHA, BETA])


def test_correct_00_is_identity():
    rng = np.random.default_rng(11)
    psi = random_state(1, rng)
    assert np.allclose(receiver_correct(psi, BellKind(0, 0)).amplitudes, psi.amplitudes)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_noiseless_teleport_is_exact():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        psi = random_state(1, rng)
        result = teleport_once(psi, rng=rng)
        assert result.fidelity_to_input > 1 - 1e-9


def test_fidelity_independent_of_outcome():
    rng = np.random.default_rng(13)
    psi = random_state(1, rng)
    seen = {}
    for _ in range(200):
        result = teleport_once(psi, rng=rng)
        seen[(result.outcome.phase_bit, result.outcome.parity_bit)] = result.fidelity_to_input
    assert set(seen) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(f > 1 - 1e-9 for f in seen.values())


def test_single_flipped_bit_gives_wrong_x():
    # outcome forced to (0,0); received as (0,1) -> spurious X
    rng = ScriptedRng([0.9, 0.9])
    psi = StateVector(1, [ALPHA, BETA])
    result = teleport_once(psi, classical_error=(0, 1), rng=rng)
    assert np.allclose(result.receiver_state.amplitudes, [BETA, ALPHA], atol=1e-9)
    assert result.is_error


def test_single_flipped_bit_gives_wrong_z():
    rng = ScriptedRng([0.9, 0.9])
    psi = StateVector(1, [ALPHA, BETA])
    result = teleport_once(psi, classical_error=(1, 0), rng=rng)
    assert np.allclose(result.receiver_state.amplitudes, [ALPHA, -BETA], atol=1e-9)


def test_both_bits_flipped_gives_zx():
    rng = ScriptedRng([0.9, 0.9])
    psi = random_state(1, np.random.default_rng(14))
    result = teleport_once(psi, classical_error=(1, 1), rng=rng)
    zx_psi = apply_gate(apply_gate(psi, "X", 0), "Z", 0)
    assert fidelity(result.receiver_state, zx_psi) > 1 - 1e-9


def test_pauli_on_pair_fidelity():
    rng = np.random.default_rng(15)
    psi = StateVector(1, [0.6, 0.8])
    result = teleport_once(psi, pauli_on_pair=PauliError.X, rng=rng)
    assert result.fidelity_to_input == pytest.approx(0.9216, abs=1e-9)


def test_default_test_state_flags_every_pauli_mismatch():
    rng = np.random.default_rng(16)
    for pauli in (PauliError.X, PauliError.Y, PauliError.Z):
        result = teleport_once(DEFAULT_TEST_STATE, pauli_on_pair=pauli, rng=rng)
        assert result.is_error
    for error in ((0, 1), (1, 0), (1, 1)):
        result = teleport_once(DEFAULT_TEST_STATE, classical_error=error, rng=rng)
        assert result.is_error


def test_basis_states_teleport_exactly_under_any_outcome():
    rng = np.random.default_rng(17)
    for index in (0, 1):
        from qtsim.qstate import basis_state

        seen = set()
        for _ in range(100):
            result = teleport_once(basis_state(1, index), rng=rng)
            seen.add((result.outcome.phase_bit, result.outcome.parity_bit))
            assert result.fidelity_to_input > 1 - 1e-9
        assert len(seen) == 4


def test_bell_outcome_validation():
    with pytest.raises(ValueError):
        BellKind(2, 0)
