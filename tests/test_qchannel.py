"""Depolarizing channel sampling rules and eavesdropper models."""
import ast
import math
import pathlib

import numpy as np
import pytest

import qtsim
from qtsim.metrics import CHI2_CRIT_P001, chi2_statistic
from qtsim.qchannel import (
    DepolarizingParams,
    EveModel,
    depolarize_qubit,
    effective_params,
    eve_entanglement_swap,
    sample_pauli,
    sample_pauli_flags,
)
from qtsim.qstate import (
    PHI_PLUS,
    PSI_PLUS,
    PauliError,
    fidelity,
    make_bell,
    measure_qubit,
)


class ScriptedRng:
    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_relation_enforced():
    assert DepolarizingParams.from_per_pauli(0.1) == DepolarizingParams(3.0 * 0.1)
    with pytest.raises(ValueError):
        DepolarizingParams.from_total(1.5)


def test_eve_model_validation():
    with pytest.raises(ValueError):
        EveModel(mode="depolarize_boost", delta_pe=0.0)
    with pytest.raises(ValueError):
        EveModel(mode="swap", intercept_fraction=1.5)
    with pytest.raises(ValueError):
        EveModel(mode="listen")
    # a field that the mode does not read must keep its default
    for unread in (
        dict(mode="none", intercept_fraction=0.5),
        dict(mode="swap", intercept_fraction=0.3, delta_pe=0.5),
        dict(mode="depolarize_boost", delta_pe=0.2, intercept_fraction=0.7),
    ):
        with pytest.raises(ValueError, match="does not read"):
            EveModel(**unread)


# ---------------------------------------------------------------------------
# the four-rule sampler
# ---------------------------------------------------------------------------

def test_zero_probability_always_identity():
    rng = np.random.default_rng(0)
    params = DepolarizingParams.from_total(0.0)
    assert all(sample_pauli(params, rng) is PauliError.I for _ in range(1000))


def test_rule_order_is_x_z_y_i():
    params = DepolarizingParams.from_total(0.3)
    stream = ScriptedRng([0.0, 0.0999, 0.1001, 0.1999, 0.2001, 0.2999, 0.3001, 0.9])
    expected = [
        PauliError.X, PauliError.X,
        PauliError.Z, PauliError.Z,
        PauliError.Y, PauliError.Y,
        PauliError.I, PauliError.I,
    ]
    assert [sample_pauli(params, stream) for _ in range(8)] == expected


def test_equal_marginals_over_1e6_draws():
    params = DepolarizingParams.from_total(0.3)
    rng = np.random.default_rng(21)
    n = 1_000_000
    x_flip, z_flip = sample_pauli_flags(params, rng, n)
    n_x = int(np.count_nonzero(x_flip & ~z_flip))
    n_z = int(np.count_nonzero(z_flip & ~x_flip))
    n_y = int(np.count_nonzero(x_flip & z_flip))
    sigma = math.sqrt(n * 0.1 * 0.9)
    for count in (n_x, n_y, n_z):
        assert abs(count - n * 0.1) < 4 * sigma
    assert abs(n_x - n_z) < 4 * sigma * math.sqrt(2)
    assert abs(n_x - n_y) < 4 * sigma * math.sqrt(2)


def test_scalar_and_vector_samplers_agree_on_thresholds():
    params = DepolarizingParams.from_total(0.3)
    for u, expected in [(0.05, PauliError.X), (0.15, PauliError.Z),
                        (0.25, PauliError.Y), (0.35, PauliError.I)]:
        assert sample_pauli(params, ScriptedRng([u])) is expected

        class _One:
            def random(self, n):
                return np.full(n, u)

        x, z = sample_pauli_flags(params, _One(), 1)
        flags = (bool(x[0]), bool(z[0]))
        want = {
            PauliError.X: (True, False), PauliError.Z: (False, True),
            PauliError.Y: (True, True), PauliError.I: (False, False),
        }[expected]
        assert flags == want


@pytest.mark.parametrize("p_eq", [0.0, 0.005, 0.105, 0.3, 1.0])
def test_vector_sampler_matches_scalar_sampler_at_every_boundary(p_eq):
    params = DepolarizingParams.from_total(p_eq)
    edges = np.array([p_eq / 3.0, 2.0 * p_eq / 3.0, p_eq])
    u = np.concatenate([
        edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
        np.random.default_rng(23).random(200),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]

    class _Fixed:
        def random(self, n):
            return u

    x, z = sample_pauli_flags(params, _Fixed(), len(u))
    flags = {
        PauliError.X: (True, False), PauliError.Z: (False, True),
        PauliError.Y: (True, True), PauliError.I: (False, False),
    }
    expected = [flags[sample_pauli(params, ScriptedRng([v]))] for v in u.tolist()]
    assert list(zip(x.tolist(), z.tolist())) == expected


@pytest.mark.parametrize("p_eq", [1e-1, 1e-2])
def test_empirical_total_error_rate(p_eq):
    # error rate = damaged / total over 1e6 qubits; at 1e-1 that is one
    # damaged qubit in every ten on average
    params = DepolarizingParams.from_total(p_eq)
    rng = np.random.default_rng(22)
    n = 1_000_000
    x_flip, z_flip = sample_pauli_flags(params, rng, n)
    damaged = int(np.count_nonzero(x_flip | z_flip))
    sigma = math.sqrt(n * p_eq * (1 - p_eq))
    assert abs(damaged - n * p_eq) < 4 * sigma


# ---------------------------------------------------------------------------
# depolarize_qubit
# ---------------------------------------------------------------------------

def test_depolarize_clean_channel_is_identity():
    rng = np.random.default_rng(23)
    pair = make_bell(PHI_PLUS)
    state, err = depolarize_qubit(pair, 1, DepolarizingParams.from_total(0.0), rng)
    assert err is PauliError.I
    assert fidelity(state, pair) == pytest.approx(1.0, abs=1e-12)


def test_depolarize_applies_sampled_flip():
    psi = make_bell(PHI_PLUS)
    state, err = depolarize_qubit(
        psi, 1, DepolarizingParams.from_total(0.3), ScriptedRng([0.05])
    )
    assert err is PauliError.X
    assert fidelity(state, make_bell(PSI_PLUS)) == pytest.approx(1.0, abs=1e-12)


def test_full_strength_channel_never_preserves_bell_state():
    # P_eq = 1 always applies X, Y, or Z; each moves beta00 to another Bell state
    pair = make_bell(PHI_PLUS)
    params = DepolarizingParams.from_total(1.0)
    rng = np.random.default_rng(24)
    for _ in range(300):
        state, err = depolarize_qubit(pair, 1, params, rng)
        assert err is not PauliError.I
        assert fidelity(state, pair) < 1e-12


def test_depolarize_rate_on_states():
    params = DepolarizingParams.from_total(0.05)
    rng = np.random.default_rng(25)
    pair = make_bell(PHI_PLUS)
    n = 10_000
    damaged = sum(
        depolarize_qubit(pair, 1, params, rng)[1] is not PauliError.I
        for _ in range(n)
    )
    sigma = math.sqrt(n * 0.05 * 0.95)
    assert abs(damaged - n * 0.05) < 4 * sigma


# ---------------------------------------------------------------------------
# entanglement-swap attack
# ---------------------------------------------------------------------------

def test_swap_forced_outcome_00_leaves_phi_plus():
    pair = make_bell(PHI_PLUS)
    # both Bell-measurement bits forced to 0 (u >= 0.5 each)
    swapped, eve = eve_entanglement_swap(pair, ScriptedRng([0.9, 0.9]))
    assert (eve.phase_bit, eve.parity_bit) == (0, 0)
    assert fidelity(swapped, make_bell(PHI_PLUS)) == pytest.approx(1.0, abs=1e-9)


def test_swap_outcome_matches_surviving_bell_state():
    # the surviving (A, C) pair is the Bell state named by Eve's outcome
    pair = make_bell(PHI_PLUS)
    rng = np.random.default_rng(26)
    for _ in range(100):
        swapped, eve = eve_entanglement_swap(pair, rng)
        expected = make_bell(eve)
        assert fidelity(swapped, expected) > 1 - 1e-9


def test_swap_outcome_distribution_uniform():
    pair = make_bell(PHI_PLUS)
    rng = np.random.default_rng(27)
    n = 20_000
    counts = np.zeros(4)
    for _ in range(n):
        _, eve = eve_entanglement_swap(pair, rng)
        counts[2 * eve.phase_bit + eve.parity_bit] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) < 4 * sigma)


def test_swap_destroys_correlations():
    # after the attack, the two computational bits are independent
    pair = make_bell(PHI_PLUS)
    rng = np.random.default_rng(28)
    table = np.zeros((2, 2))
    for _ in range(20_000):
        swapped, _ = eve_entanglement_swap(pair, rng)
        bob = measure_qubit(swapped, 1, rng)
        alice = measure_qubit(bob.post_state, 0, rng)
        table[alice.bit, bob.bit] += 1
    assert chi2_statistic(table) < CHI2_CRIT_P001[1]


def test_swap_on_virtual_pair_breaks_anticorrelation():
    # a decoy pair anti-correlates only ~50% of the time after the attack
    pair = make_bell(PSI_PLUS)
    rng = np.random.default_rng(29)
    n = 20_000
    opposite = 0
    for _ in range(n):
        swapped, _ = eve_entanglement_swap(pair, rng)
        bob = measure_qubit(swapped, 1, rng)
        alice = measure_qubit(bob.post_state, 0, rng)
        opposite += alice.bit != bob.bit
    sigma = math.sqrt(n * 0.25)
    assert abs(opposite - n / 2) < 4 * sigma


def test_swap_needs_two_qubits():
    with pytest.raises(ValueError):
        eve_entanglement_swap(make_bell(PHI_PLUS).__class__(1, [1, 0]), None)


# ---------------------------------------------------------------------------
# boost model
# ---------------------------------------------------------------------------

def test_effective_params_paper_operating_point():
    base = DepolarizingParams.from_total(0.005)
    eve = EveModel(mode="depolarize_boost", delta_pe=0.10)
    assert effective_params(base, eve).p_eq == pytest.approx(0.105)


def test_effective_params_addition():
    base = DepolarizingParams.from_total(0.02)
    eve = EveModel(mode="depolarize_boost", delta_pe=0.10)
    assert effective_params(base, eve).p_eq == pytest.approx(0.12)


def test_effective_params_wrong_mode():
    with pytest.raises(ValueError):
        effective_params(DepolarizingParams.from_total(0.1), EveModel(mode="swap"))


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_quantum_layer_imports_no_classical_module():
    classical = {"teleport", "link", "turbo", "cchannel", "qsdc", "sweeps"}
    offenders = {}
    for module in ("qstate", "qchannel", "shor"):
        source = pathlib.Path(qtsim.__file__).with_name(f"{module}.py").read_text()
        names = set()
        for node in ast.parse(source).body:  # module-level statements only
            if isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(part for alias in node.names for part in alias.name.split("."))
        if names & classical:
            offenders[module] = sorted(names & classical)
    assert offenders == {}
