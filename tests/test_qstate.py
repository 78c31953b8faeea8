"""State-vector simulator: gates, Bell states, measurement, fidelity."""
import math

import numpy as np
import pytest

from qtsim.qstate import (
    CapacityError,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    PauliError,
    StateVector,
    apply_gate,
    apply_pauli,
    basis_state,
    discard_qubit,
    fidelity,
    make_bell,
    measure_qubit,
    random_state,
    tensor,
)

SQRT2_INV = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# basis states
# ---------------------------------------------------------------------------

def test_basis_state_00():
    assert np.allclose(basis_state(2, 0).amplitudes, [1, 0, 0, 0])


def test_basis_state_one():
    assert np.allclose(basis_state(1, 1).amplitudes, [0, 1])


def test_basis_state_101():
    expected = np.zeros(8)
    expected[5] = 1.0
    assert np.allclose(basis_state(3, 5).amplitudes, expected)


def test_basis_state_index_out_of_range():
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of a 3-qubit register flips the MSB: |000> -> |100> = e_4
    state = apply_gate(basis_state(3, 0), "X", 0)
    assert np.allclose(state.amplitudes, basis_state(3, 4).amplitudes)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        basis_state(17, 0)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_hadamard_on_zero():
    state = apply_gate(basis_state(1, 0), "H", 0)
    assert np.allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV])


def test_x_swaps_amplitudes():
    psi = StateVector(1, [0.6, 0.8])
    assert np.allclose(apply_gate(psi, "X", 0).amplitudes, [0.8, 0.6])


def test_cnot_control_zero_leaves_target():
    state = apply_gate(basis_state(2, 1), "CNOT", (0, 1))  # |01>
    assert np.allclose(state.amplitudes, basis_state(2, 1).amplitudes)


def test_cnot_control_one_flips_target():
    state = apply_gate(basis_state(2, 2), "CNOT", (0, 1))  # |10> -> |11>
    assert np.allclose(state.amplitudes, basis_state(2, 3).amplitudes)


def test_cnot_reversed_order():
    state = apply_gate(basis_state(2, 1), "CNOT", (1, 0))  # control qubit 1
    assert np.allclose(state.amplitudes, basis_state(2, 3).amplitudes)


def test_gate_errors():
    psi = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_gate(psi, "H", 5)
    with pytest.raises(ValueError):
        apply_gate(psi, "CNOT", (1, 1))
    with pytest.raises(ValueError):
        apply_gate(psi, "Q", 0)


def test_norm_preserved_by_gates():
    rng = np.random.default_rng(7)
    state = random_state(4, rng)
    for gate, targets in [("H", 0), ("X", 1), ("Y", 2), ("Z", 3), ("CNOT", (1, 3))]:
        state = apply_gate(state, gate, targets)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-9


def test_involutions():
    rng = np.random.default_rng(8)
    for gate in ("X", "Z", "H"):
        state = random_state(3, rng)
        twice = apply_gate(apply_gate(state, gate, 1), gate, 1)
        assert fidelity(twice, state) > 1 - 1e-9


def test_apply_pauli_y_equals_y_gate_up_to_phase():
    rng = np.random.default_rng(9)
    state = random_state(2, rng)
    via_compose = apply_pauli(state, 0, PauliError.Y)
    via_gate = apply_gate(state, "Y", 0)
    assert fidelity(via_compose, via_gate) > 1 - 1e-12


# ---------------------------------------------------------------------------
# Bell pairs
# ---------------------------------------------------------------------------

def test_bell_states_exact():
    expected = {
        PHI_PLUS: [SQRT2_INV, 0, 0, SQRT2_INV],
        PHI_MINUS: [SQRT2_INV, 0, 0, -SQRT2_INV],
        PSI_PLUS: [0, SQRT2_INV, SQRT2_INV, 0],
        PSI_MINUS: [0, SQRT2_INV, -SQRT2_INV, 0],
    }
    for kind, amps in expected.items():
        assert np.allclose(make_bell(kind).amplitudes, amps, atol=1e-12)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_psi_with_bell():
    alpha, beta = 0.6, 0.8
    joint = tensor(StateVector(1, [alpha, beta]), make_bell(PHI_PLUS))
    expected = np.array([alpha, 0, 0, alpha, beta, 0, 0, beta]) / math.sqrt(2)
    assert np.allclose(joint.amplitudes, expected, atol=1e-12)


def test_tensor_basis_states():
    assert np.allclose(
        tensor(basis_state(1, 0), basis_state(1, 0)).amplitudes, [1, 0, 0, 0]
    )
    assert np.allclose(
        tensor(basis_state(1, 1), basis_state(1, 0)).amplitudes, [0, 0, 1, 0]
    )


def test_tensor_capacity_error():
    a = basis_state(9, 0)
    with pytest.raises(CapacityError):
        tensor(a, basis_state(8, 0))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_definite_state():
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = measure_qubit(basis_state(1, 1), 0, rng)
        assert out.bit == 1
        assert np.allclose(out.post_state.amplitudes, [0, 1])


def test_measure_bell_collapse():
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(200):
        out = measure_qubit(make_bell(PHI_PLUS), 0, rng)
        seen.add(out.bit)
        target = basis_state(2, 0) if out.bit == 0 else basis_state(2, 3)
        assert fidelity(out.post_state, target) > 1 - 1e-12
    assert seen == {0, 1}


def test_measure_bell_probabilities():
    # qubit 0 of the Bell pair: each bit with probability 1/2
    rng = np.random.default_rng(2)
    n = 100_000
    ones = sum(measure_qubit(make_bell(PHI_PLUS), 0, rng).bit for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(ones - n / 2) < 4 * sigma


def test_measure_minus_state_statistics():
    # (|0> - |1>)/sqrt(2): empirical frequency 0.5 within 3 sigma over 1e5
    rng = np.random.default_rng(3)
    minus = apply_gate(basis_state(1, 1), "H", 0)
    n = 100_000
    ones = sum(measure_qubit(minus, 0, rng).bit for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(ones - n / 2) < 3 * sigma


def test_measure_collapse_zeroes_inconsistent_amplitudes():
    rng = np.random.default_rng(4)
    state = random_state(3, rng)
    out = measure_qubit(state, 1, rng)
    t = out.post_state.amplitudes.reshape(2, 2, 2)
    assert np.all(t[:, 1 - out.bit, :] == 0)


def test_discard_qubit_requires_basis_state():
    with pytest.raises(ValueError):
        discard_qubit(make_bell(PHI_PLUS), 0, 0)  # entangled, not separable


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_self_is_one():
    rng = np.random.default_rng(5)
    psi = random_state(2, rng)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_is_zero():
    assert fidelity(basis_state(1, 0), basis_state(1, 1)) == 0.0


def test_fidelity_after_x():
    psi = StateVector(1, [0.6, 0.8])
    assert fidelity(psi, apply_gate(psi, "X", 0)) == pytest.approx(0.9216, abs=1e-12)


def test_fidelity_global_phase_invariant():
    rng = np.random.default_rng(6)
    psi = random_state(2, rng)
    rotated = StateVector(2, psi.amplitudes * np.exp(1j * 0.7))
    assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_size_mismatch():
    with pytest.raises(ValueError):
        fidelity(basis_state(1, 0), basis_state(2, 0))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])  # wrong length


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("slot", ["first", "last"])
@pytest.mark.parametrize("value", [math.nan, complex(0.0, math.nan)], ids=["real", "imag"])
def test_state_vector_refuses_nan(n, slot, value):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    amps[0 if slot == "first" else -1] = value
    with pytest.raises(ValueError, match=r"norm\^2 = nan "):
        StateVector(n, amps)


# ---------------------------------------------------------------------------
# the qubit view against dense matrices: every qubit and every ordered pair
# ---------------------------------------------------------------------------

_DENSE_1Q = {
    "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def _bit(n, qubit, index):
    return (index >> (n - 1 - qubit)) & 1


def _lifted(n, qubit, gate):
    """I (x) ... (x) gate (x) ... (x) I, with ``gate`` at ``qubit``."""
    out = np.ones((1, 1))
    for q in range(n):
        out = np.kron(out, gate if q == qubit else np.eye(2))
    return out


def _cnot_matrix(n, control, target):
    out = np.zeros((2**n, 2**n))
    for i in range(2**n):
        out[i ^ (_bit(n, control, i) << (n - 1 - target)), i] = 1.0
    return out


def _projector(n, qubit, bit):
    return np.diag([float(_bit(n, qubit, i) == bit) for i in range(2**n)])


def _isometry(n, qubit, bit):
    """The (2**(n-1), 2**n) map that keeps the basis states with ``bit`` at ``qubit``."""
    kept = [i for i in range(2**n) if _bit(n, qubit, i) == bit]
    return np.eye(2**n)[kept]


class _ScriptedRng:
    """``random()`` always returns ``u``: 0.0 takes bit 1, just under 1.0 takes bit 0."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


_TAKES_BIT = {1: 0.0, 0: float(np.nextafter(1.0, 0.0))}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gates_match_dense_matrices(n):
    state = random_state(n, np.random.default_rng(40 + n))
    for qubit in range(n):
        for name, gate in _DENSE_1Q.items():
            out = apply_gate(state, name, qubit)
            np.testing.assert_allclose(out.amplitudes, _lifted(n, qubit, gate) @ state.amplitudes,
                                       rtol=0, atol=1e-12)
            assert not np.shares_memory(out.amplitudes, state.amplitudes)
    for control in range(n):
        for target in range(n):
            if control != target:
                out = apply_gate(state, "CNOT", (control, target))
                assert np.array_equal(out.amplitudes,
                                      _cnot_matrix(n, control, target) @ state.amplitudes)
                assert not np.shares_memory(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_probability_and_measurement_match_projectors(n):
    state = random_state(n, np.random.default_rng(50 + n))
    for qubit in range(n):
        for bit in (0, 1):
            projected = _projector(n, qubit, bit) @ state.amplitudes
            p = np.vdot(projected, projected).real
            assert state.probability(qubit, bit) == pytest.approx(p, rel=0, abs=1e-12)
            out = measure_qubit(state, qubit, _ScriptedRng(_TAKES_BIT[bit]))
            assert out.bit == bit
            np.testing.assert_allclose(out.post_state.amplitudes, projected / math.sqrt(p),
                                       rtol=0, atol=1e-12)
            assert not np.shares_memory(out.post_state.amplitudes, state.amplitudes)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_discard_matches_the_isometry(n):
    state = random_state(n, np.random.default_rng(60 + n))
    for qubit in range(n):
        for bit in (0, 1):
            collapsed = measure_qubit(state, qubit, _ScriptedRng(_TAKES_BIT[bit])).post_state
            out = discard_qubit(collapsed, qubit, bit)
            assert out.n_qubits == n - 1
            np.testing.assert_array_equal(out.amplitudes,
                                          _isometry(n, qubit, bit) @ collapsed.amplitudes)
            assert not np.shares_memory(out.amplitudes, collapsed.amplitudes)
