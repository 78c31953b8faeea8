"""Pauli-frame session path tied to its state-vector oracles.

Sessions simulate each pair as a Bell frame (phase_bit, parity_bit).  These
tests drive the production functions with scripted channel draws and
compare every resulting pair with the state-vector circuits: Shor encode,
Pauli pattern, Shor decode; teleport_once; the entanglement-swap attack.
"""
import itertools
import math
import sys

import numpy as np
import pytest

from qtsim.cli import main
from qtsim.metrics import CHI2_CRIT_P001, chi2_statistic, chi2_uniform_statistic
from qtsim.qchannel import DepolarizingParams, EveModel
from qtsim.qsdc import (
    QsdcConfig,
    SessionState,
    distribute_pairs,
    run_session,
    transmit_protected,
    verify_virtual,
)
from qtsim.qstate import (
    PAULI_FROM_FLAGS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    PauliError,
    StateVector,
    apply_pauli,
    fidelity,
    make_bell,
    measure_qubit,
    random_state,
)
from qtsim.shor import PauliPattern, apply_pattern, exact_logical_rate, shor_decode, shor_encode
from qtsim.sweeps import SweepSpec, run_sweep
from qtsim.teleport import (
    DEFAULT_TEST_STATE,
    teleport_errors,
    teleport_fidelity,
    teleport_once,
)
from qtsim.turbo import TurboConfig

# With P_eq = 0.3 the four-rule sampler maps these uniforms onto each Pauli.
SCRIPT_P_EQ = 0.3
UNIFORM_FOR = {PauliError.X: 0.05, PauliError.Z: 0.15, PauliError.Y: 0.25, PauliError.I: 0.65}
PAULIS = (PauliError.X, PauliError.Y, PauliError.Z)


class _Uniforms:
    """An rng whose single ``random(n)`` call returns a fixed array."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self._values.size
        return self._values


def _pattern(errors: dict[int, PauliError]) -> PauliPattern:
    return PauliPattern(tuple(errors.get(k, PauliError.I) for k in range(9)))


def _patterns() -> list[PauliPattern]:
    """All weight <= 1 and weight-2 patterns, then 400 random ones."""
    patterns = [_pattern({})]
    patterns += [_pattern({k: e}) for k in range(9) for e in PAULIS]
    patterns += [
        _pattern({a: ea, b: eb})
        for a, b in itertools.combinations(range(9), 2)
        for ea in PAULIS for eb in PAULIS
    ]
    rng = np.random.default_rng(2103)
    every = (PauliError.I,) + PAULIS
    patterns += [
        PauliPattern(tuple(every[i] for i in rng.integers(0, 4, size=9)))
        for _ in range(400)
    ]
    return patterns


def _host_session(host, n: int) -> SessionState:
    return SessionState(
        phase_bits=np.full(n, host.phase_bit, dtype=np.int8),
        parity_bits=np.full(n, host.parity_bit, dtype=np.int8),
        virtual_positions=(),
    )


def _frame_transit(host, patterns):
    """Pairs after transmit_protected with the channel scripted to ``patterns``."""
    cfg = QsdcConfig(
        n_pairs=len(patterns), m_virtual=20,
        depol=DepolarizingParams.from_total(SCRIPT_P_EQ),
    )
    uniforms = [UNIFORM_FOR[e] for p in patterns for e in p.errors]
    state = transmit_protected(_host_session(host, len(patterns)), cfg, _Uniforms(uniforms))
    return state.pair_states


@pytest.mark.parametrize("host", [PHI_PLUS, PSI_PLUS], ids=["phi_plus", "psi_plus"])
def test_frame_transit_matches_state_vector_shor(host):
    patterns = _patterns()
    assert len(patterns) == 28 + 36 * 9 + 400
    frames = _frame_transit(host, patterns)
    assert len(frames) == len(patterns)
    rng = np.random.default_rng(2104)
    for pattern, frame in zip(patterns, frames):
        encoded, block = shor_encode(make_bell(host), 1)
        decoded, _ = shor_decode(apply_pattern(encoded, block, pattern), block, rng)
        assert isinstance(frame, StateVector)
        assert fidelity(decoded, frame) > 1 - 1e-9, pattern


@pytest.mark.parametrize("host", [PHI_PLUS, PSI_PLUS], ids=["phi_plus", "psi_plus"])
def test_unprotected_frame_transit_matches_pauli_on_pair(host):
    errors = (PauliError.I,) + PAULIS
    cfg = QsdcConfig(
        n_pairs=4, m_virtual=20, depol=DepolarizingParams.from_total(SCRIPT_P_EQ),
        use_shor=False,
    )
    uniforms = [UNIFORM_FOR[e] for e in errors]
    state = transmit_protected(_host_session(host, 4), cfg, _Uniforms(uniforms))
    for err, frame in zip(errors, state.pair_states):
        assert fidelity(apply_pauli(make_bell(host), 1, err), frame) > 1 - 1e-9


def _unit(*amplitudes):
    amps = np.array(amplitudes, dtype=complex)
    return StateVector(1, amps / np.linalg.norm(amps))


# Generic payloads, which every Pauli mismatch corrupts, and the six Pauli
# eigenstates, which one of X, Y, Z leaves exact.
VERDICT_STATES = {
    "default_psi": DEFAULT_TEST_STATE,
    "random_psi": random_state(1, np.random.default_rng(2105)),
    "zero": _unit(1, 0), "one": _unit(0, 1),
    "plus": _unit(1, 1), "minus": _unit(1, -1),
    "plus_i": _unit(1, 1j), "minus_i": _unit(1, -1j),
}
FRAMES_AND_ERRORS = list(itertools.product(itertools.product((0, 1), repeat=2), repeat=2))


@pytest.mark.parametrize("name", VERDICT_STATES)
def test_frame_teleport_verdict_matches_teleport_once(name):
    psi = VERDICT_STATES[name]
    rng = np.random.default_rng(2105)
    for (x, z), error in FRAMES_AND_ERRORS:
        for _ in range(8):  # the oracle's verdict holds for every sender outcome
            result = teleport_once(
                psi, classical_error=error, pauli_on_pair=PAULI_FROM_FLAGS[(x, z)], rng=rng
            )
            sent = np.array([result.outcome.phase_bit, result.outcome.parity_bit])
            wrong = teleport_errors(psi.amplitudes, np.array([x]), np.array([z]), sent,
                                    sent ^ error)
            assert wrong.tolist() == [result.is_error], ((x, z), error, result.outcome)
            fid = teleport_fidelity(psi.amplitudes, np.array([x]), np.array([z]), sent,
                                    sent ^ error)
            assert abs(fid[0] - result.fidelity_to_input) <= 1e-12, ((x, z), error)
        if name in ("default_psi", "random_psi"):
            # a flipped m2 undoes an X on the pair, a flipped m1 undoes a Z
            assert result.is_error == ((x, z) != (error[1], error[0]))


def test_one_vectorized_verdict_equals_the_per_qubit_verdicts():
    cases = list(itertools.product(VERDICT_STATES.values(), FRAMES_AND_ERRORS))
    rng = np.random.default_rng(2107)
    sent = rng.integers(0, 2, size=2 * len(cases), dtype=np.int8)
    received = sent ^ np.array([error for _, (_, error) in cases], dtype=np.int8).ravel()
    amplitudes = np.array([psi.amplitudes for psi, _ in cases])
    x, z = np.array([frame for _, (frame, _) in cases]).T
    wrong = teleport_errors(amplitudes, x, z, sent, received)
    assert wrong.shape == (len(cases),)
    for i, (psi, _) in enumerate(cases):
        bits = slice(2 * i, 2 * i + 2)
        assert wrong[i] == teleport_errors(
            psi.amplitudes, x[i : i + 1], z[i : i + 1], sent[bits], received[bits]
        )[0]
    # Each residual comes up in 4 of the 16 cases.  A generic state is exact
    # only under I, an eigenstate also under its own Pauli.
    assert np.count_nonzero(wrong) == 2 * 12 + 6 * 8


def test_verify_bits_follow_the_measured_bell_pair():
    # oracle: Z outcomes of a measured Bell pair differ by its parity bit
    rng = np.random.default_rng(2106)
    kinds = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)
    for kind in kinds:
        for _ in range(50):
            bob = measure_qubit(make_bell(kind), 1, rng)
            alice = measure_qubit(bob.post_state, 0, rng)
            assert alice.bit ^ bob.bit == kind.parity_bit

    cfg = QsdcConfig(n_pairs=0, m_virtual=2000, depol=DepolarizingParams.from_total(0.0))
    state = _host_session(PHI_PLUS, 2000)
    state.phase_bits[:] = [kinds[i % 4].phase_bit for i in range(2000)]
    state.parity_bits[:] = [kinds[i % 4].parity_bit for i in range(2000)]
    state.virtual_positions = np.arange(2000)
    state.phase = "decoded"
    report = verify_virtual(state, cfg, rng)
    bob_ones = 0
    for _, pos, alice, bob, ok in state.pair_trace:
        parity = kinds[pos % 4].parity_bit
        assert alice ^ bob == parity and ok == parity
        bob_ones += bob
    assert report.virtual_qber == pytest.approx(0.5)
    assert abs(bob_ones - 1000) < 4 * math.sqrt(500)


def test_swap_attack_frames_are_uniform():
    cfg = QsdcConfig(
        n_pairs=4000, m_virtual=4000, depol=DepolarizingParams.from_total(0.0),
        eve=EveModel(mode="swap", intercept_fraction=1.0),
    )
    rng = np.random.default_rng(2107)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    frame = 2 * state.phase_bits + state.parity_bits
    is_virtual = np.zeros(frame.size, dtype=bool)
    is_virtual[list(state.virtual_positions)] = True
    table = np.array(
        [np.bincount(frame[is_virtual == v], minlength=4) for v in (False, True)]
    )
    # uniform over the four Bell states, and independent of the host kind
    assert chi2_uniform_statistic(table.sum(axis=0)) < CHI2_CRIT_P001[3]
    assert chi2_statistic(table) < CHI2_CRIT_P001[3]


def test_partial_swap_attack_hits_its_fraction():
    n = 20_000
    cfg = QsdcConfig(
        n_pairs=n - 20, m_virtual=20, depol=DepolarizingParams.from_total(0.0),
        eve=EveModel(mode="swap", intercept_fraction=0.4),
    )
    rng = np.random.default_rng(2108)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    real = np.ones(n, dtype=bool)
    real[list(state.virtual_positions)] = False
    changed = np.count_nonzero((state.phase_bits | state.parity_bits)[real])
    expected = 0.4 * 0.75  # an intercepted pair keeps its Bell state 1 time in 4
    sigma = math.sqrt(expected * (1 - expected) / real.sum())
    assert abs(changed / real.sum() - expected) < 4 * sigma


def test_shor_qber_sweep_matches_exact_logical_rate():
    p_eq = 0.105
    trials = 100_000
    spec = SweepSpec(
        sweep_kind="qber_vs_snr", snr_grid_db=(math.inf,), p_eq_list=(p_eq,),
        trials_per_point=trials, seed=2109, use_shor=True, classical_bypass_ber=0.0,
    )
    row = run_sweep(spec)[0]
    exact = exact_logical_rate(DepolarizingParams.from_total(p_eq))
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert row["ber"] == 0.0
    assert abs(row["qber"] - exact) < 4 * sigma


def test_sessions_and_teleport_sweeps_run_no_state_vector_gate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("state-vector call on the frame path")

    for module in [m for name, m in sys.modules.items() if name.startswith("qtsim")]:
        for name in ("apply_gate", "apply_pauli", "fidelity", "measure_qubit"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rng = np.random.default_rng(2110)
    session = SweepSpec(
        sweep_kind="qsdc_batch", snr_grid_db=(0.0,), p_eq_list=(0.05,), trials_per_point=3,
        n_pairs=8, m_virtual=20, use_shor=True, payload_per_session=8,
        turbo=TurboConfig(block_length=40, iterations=1),
    )
    teleport = SweepSpec(
        sweep_kind="qber_vs_snr", snr_grid_db=(0.0,), p_eq_list=(0.05,), trials_per_point=1000,
        use_shor=True, turbo=TurboConfig(block_length=40, iterations=1),
    )
    for spec in (session, teleport):
        rows = run_sweep(spec)
        assert [row["error"] for row in rows] == [""] * len(rows)
    report = run_session(
        QsdcConfig(n_pairs=8, m_virtual=20, snr_db=0.0, turbo=TurboConfig(block_length=40)),
        payload=[random_state(1, rng) for _ in range(8)], collect_trace=True,
    )
    assert report.decision == "accept" and report.payload_qber is not None
    assert main(["teleport-demo", "--trials", "200", "--p-e", "0.1", "--seed", "3"]) == 0
