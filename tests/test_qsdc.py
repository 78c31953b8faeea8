"""Secure session protocol: distribution, verification, payload, thresholds."""
import math
from dataclasses import replace

import numpy as np
import pytest

from qtsim.cchannel import RicianParams
from qtsim.metrics import CHI2_CRIT_P001, chi2_uniform_statistic
from qtsim.qchannel import DepolarizingParams, EveModel
from qtsim.qsdc import (
    ProtocolError,
    QsdcConfig,
    QsdcReport,
    SessionState,
    choose_threshold,
    distribute_pairs,
    geometric_threshold,
    run_session,
    teleport_payload,
    transmit_protected,
    verify_virtual,
)
from qtsim.qstate import PHI_PLUS, PSI_PLUS, fidelity, make_bell, random_state
from qtsim.shor import exact_logical_rate
from qtsim.turbo import TurboConfig

CLEAN = DepolarizingParams.from_total(0.0)


def _cfg(**kw):
    defaults = dict(n_pairs=8, m_virtual=20, depol=CLEAN, seed=1)
    defaults.update(kw)
    return QsdcConfig(**defaults)


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------

def test_distribute_counts_and_states():
    rng = np.random.default_rng(80)
    with pytest.warns(UserWarning, match="coarse detection"):
        cfg = _cfg(n_pairs=3, m_virtual=1)
    state = distribute_pairs(cfg, rng)
    assert len(state.pair_states) == 4
    assert len(state.virtual_positions) == 1
    virtual = make_bell(PSI_PLUS)
    real = make_bell(PHI_PLUS)
    for i, pair in enumerate(state.pair_states):
        target = virtual if i in state.virtual_positions else real
        assert fidelity(pair, target) > 1 - 1e-12


def test_pure_detection_session_is_valid():
    rng = np.random.default_rng(81)
    state = distribute_pairs(_cfg(n_pairs=0, m_virtual=20), rng)
    assert len(state.pair_states) == 20


def test_degenerate_single_decoy_session():
    with pytest.warns(UserWarning):
        cfg = _cfg(n_pairs=0, m_virtual=1, threshold=0.5)
    rng = np.random.default_rng(95)
    state = distribute_pairs(cfg, rng)
    assert len(state.pair_states) == 1
    report = verify_virtual(transmit_protected(state, cfg, rng), cfg, rng)
    assert report.decision == "accept"


def test_virtual_positions_uniform():
    with pytest.warns(UserWarning):
        cfg = _cfg(n_pairs=6, m_virtual=2)
    counts = np.zeros(8)
    for s in range(10_000):
        rng = np.random.default_rng((82, s))
        for pos in distribute_pairs(cfg, rng).virtual_positions:
            counts[pos] += 1
    # 8 cells, 7 degrees of freedom, 0.001 level
    assert chi2_uniform_statistic(counts) < CHI2_CRIT_P001[7]


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(m_virtual=0)
    with pytest.raises(ValueError):
        _cfg(threshold=1.5)
    with pytest.warns(UserWarning):
        _cfg(m_virtual=5)
    for retries in (0, -1):
        with pytest.raises(ValueError, match="max_retries"):
            _cfg(max_retries=retries)
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            _cfg(snr_db=snr_db)
    for ber in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="classical_bypass_ber"):
            _cfg(classical_bypass_ber=ber)
    # a link field that the session's mode leaves unread, as SweepSpec refuses it
    four, bypass = TurboConfig(iterations=4), "with classical_bypass_ber"
    for kw, unread in (
        (dict(classical_bypass_ber=0.1, snr_db=3.0), f"{bypass} does not read snr_db"),
        (dict(classical_bypass_ber=0.1, rician=RicianParams(zeta=3.0), turbo=four,
              use_turbo=False), f"{bypass} does not read turbo, rician, use_turbo"),
        (dict(use_turbo=False, turbo=four), "without use_turbo does not read turbo"),
    ):
        with pytest.raises(ValueError, match=f"^a session {unread}$"):
            _cfg(**kw)
    for kw in (dict(classical_bypass_ber=0.1), dict(use_turbo=False),
               dict(snr_db=3.0, turbo=four)):
        _cfg(**kw)


def test_coarse_detection_warning_names_the_line_that_built_the_config():
    with pytest.warns(UserWarning, match="coarse detection") as rec:
        QsdcConfig(m_virtual=5)
    assert rec[0].filename == __file__
    # dataclasses.replace adds a frame between the caller and __init__
    base = QsdcConfig()
    with pytest.warns(UserWarning, match="coarse detection") as rec:
        replace(base, m_virtual=5)
    assert rec[0].filename == __file__


# ---------------------------------------------------------------------------
# protected transit
# ---------------------------------------------------------------------------

def test_verify_and_payload_read_assigned_virtual_positions():
    # a hand-built state: decoys at 1 and 8 (given unsorted, as 8, 1),
    # the pair at 8 flipped to even parity
    with pytest.warns(UserWarning):
        cfg = _cfg(n_pairs=8, m_virtual=2, threshold=0.6)
    parity_bits = np.zeros(10, dtype=np.int8)
    parity_bits[1] = 1
    state = SessionState(
        phase_bits=np.zeros(10, dtype=np.int8),
        parity_bits=parity_bits,
        virtual_positions=[8, 1],
        phase="decoded",
    )
    assert state.virtual_positions.tolist() == [1, 8]
    with pytest.raises(TypeError):  # a set has no order to keep
        SessionState(state.phase_bits, parity_bits, {8, 1})
    rng = np.random.default_rng(96)
    report = verify_virtual(state, cfg, rng)
    assert report.virtual_qber == 0.5 and report.decision == "accept"
    assert [(row[1], row[4]) for row in state.pair_trace] == [(1, 1), (8, 0)]
    payload = [random_state(1, rng) for _ in range(8)]
    report = teleport_payload(state, payload, cfg, rng)
    assert [row[1] for row in state.pair_trace[2:]] == [0, 2, 3, 4, 5, 6, 7, 9]
    assert report.payload_qber == 0.0


def test_clean_transit_preserves_every_pair():
    cfg = _cfg(n_pairs=4, m_virtual=20)
    rng = np.random.default_rng(83)
    state = distribute_pairs(cfg, rng)
    originals = list(state.pair_states)
    state = transmit_protected(state, cfg, rng)
    assert state.phase == "decoded"
    for before, after in zip(originals, state.pair_states):
        assert fidelity(before, after) > 1 - 1e-9


def test_transit_requires_distributed_phase():
    cfg = _cfg()
    rng = np.random.default_rng(84)
    state = distribute_pairs(cfg, rng)
    transmit_protected(state, cfg, rng)
    with pytest.raises(ProtocolError):
        transmit_protected(state, cfg, rng)


def test_swap_attack_replaces_entanglement():
    cfg = _cfg(n_pairs=0, m_virtual=40, eve=EveModel(mode="swap", intercept_fraction=1.0))
    rng = np.random.default_rng(85)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    # attacked decoys are no longer the decoy state for most pairs
    broken = sum(
        fidelity(state.pair_states[i], make_bell(PSI_PLUS)) < 1 - 1e-9
        for i in state.virtual_positions
    )
    assert broken > 20


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_clean_session_anticorrelates_exactly():
    cfg = _cfg(n_pairs=2, m_virtual=100, threshold=0.01)
    rng = np.random.default_rng(86)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    report = verify_virtual(state, cfg, rng)
    assert report.virtual_qber == 0.0
    assert report.decision == "accept"
    assert state.phase == "verified"


def test_swap_attack_detected():
    cfg = _cfg(
        n_pairs=2, m_virtual=100, threshold=0.01,
        eve=EveModel(mode="swap", intercept_fraction=1.0),
    )
    rng = np.random.default_rng(87)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    report = verify_virtual(state, cfg, rng)
    assert 0.3 < report.virtual_qber < 0.7
    assert report.decision == "abort"
    assert report.eve_present_truth
    assert state.phase == "aborted"


def test_shor_protected_noisy_channel_accepts():
    cfg = _cfg(
        n_pairs=0, m_virtual=100, depol=DepolarizingParams.from_total(0.005),
        use_shor=True,
    )
    rng = np.random.default_rng(88)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    report = verify_virtual(state, cfg, rng)
    # decoded error rate ~4e-4; threshold floors at 1/m = 0.01
    assert report.virtual_qber <= 0.02
    assert report.decision == "accept"


# ---------------------------------------------------------------------------
# payload
# ---------------------------------------------------------------------------

def test_clean_end_to_end_payload_qber_zero():
    cfg = _cfg(n_pairs=32, m_virtual=20, threshold=0.01)
    rng = np.random.default_rng(89)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    verify_virtual(state, cfg, rng)
    payload = [random_state(1, rng) for _ in range(32)]
    report = teleport_payload(state, payload, cfg, rng)
    assert report.payload_qber == 0.0
    assert report.classical_ber == 0.0
    assert state.phase == "completed"


def test_payload_respects_bypass_bound():
    b = 0.02
    cfg = _cfg(
        n_pairs=400, m_virtual=20, threshold=0.01, classical_bypass_ber=b, seed=5
    )
    rng = np.random.default_rng(90)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    verify_virtual(state, cfg, rng)
    payload = [random_state(1, rng) for _ in range(400)]
    report = teleport_payload(state, payload, cfg, rng)
    sigma = math.sqrt(2 * b * (1 - 2 * b) / 400)
    assert report.payload_qber <= 2 * b + 4 * sigma
    assert report.payload_qber >= b - 4 * sigma


def test_unprotected_noisy_quantum_channel_floors_at_peq():
    p_eq = 0.05
    cfg = _cfg(
        n_pairs=2000, m_virtual=20, threshold=0.5,
        depol=DepolarizingParams.from_total(p_eq),
        use_shor=False, classical_bypass_ber=0.0, seed=6,
    )
    rng = np.random.default_rng(91)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    verify_virtual(state, cfg, rng)
    payload = [random_state(1, rng) for _ in range(2000)]
    report = teleport_payload(state, payload, cfg, rng)
    sigma = math.sqrt(p_eq * (1 - p_eq) / 2000)
    assert abs(report.payload_qber - p_eq) < 4 * sigma


def test_aborted_session_cannot_carry_payload():
    cfg = _cfg(
        n_pairs=4, m_virtual=50, threshold=0.01,
        eve=EveModel(mode="swap", intercept_fraction=1.0),
    )
    rng = np.random.default_rng(92)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    verify_virtual(state, cfg, rng)
    assert state.phase == "aborted"
    with pytest.raises(ProtocolError):
        teleport_payload(state, [random_state(1, rng)], cfg, rng)


def test_payload_cannot_exceed_surviving_pairs():
    cfg = _cfg(n_pairs=2, m_virtual=20, threshold=0.01)
    rng = np.random.default_rng(93)
    state = transmit_protected(distribute_pairs(cfg, rng), cfg, rng)
    verify_virtual(state, cfg, rng)
    with pytest.raises(ValueError):
        teleport_payload(state, [random_state(1, rng) for _ in range(3)], cfg, rng)


def test_report_invariant():
    with pytest.raises(ValueError):
        QsdcReport(
            virtual_qber=0.5, decision="abort", payload_qber=0.1,
            eve_present_truth=False, per_phase_timings={},
        )


# ---------------------------------------------------------------------------
# threshold construction
# ---------------------------------------------------------------------------

def test_geometric_threshold_on_quoted_operating_points():
    # with the decoded rates 1e-4 and 0.1213 the midpoint is ~3.5e-3
    t = geometric_threshold(1e-4, 0.1213)
    assert t == pytest.approx(3.5e-3, rel=0.01)
    assert 1e-4 < t < 0.1213


def test_threshold_resolution_floor():
    assert geometric_threshold(0.0, 0.1213, m_virtual=100) == pytest.approx(0.01)
    assert geometric_threshold(1e-4, 0.1213, m_virtual=100) == pytest.approx(0.01)


def test_choose_threshold_between_computed_rates():
    depol = DepolarizingParams.from_total(0.005)
    p0 = exact_logical_rate(depol)
    p1 = exact_logical_rate(DepolarizingParams.from_total(0.105))
    t = choose_threshold(depol)
    assert t == pytest.approx(math.sqrt(p0 * p1))
    assert p0 < t < p1
    assert choose_threshold(depol, m_virtual=100) == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# full sessions
# ---------------------------------------------------------------------------

def test_run_session_accepts_clean_channel():
    cfg = _cfg(n_pairs=4, m_virtual=20, use_shor=True, seed=7)
    report = run_session(cfg, session_id=0)
    assert report.decision == "accept"
    assert report.attempts == 1
    assert not report.eve_present_truth
    assert set(report.per_phase_timings) >= {"distribute", "transmit", "verify"}


def test_run_session_with_payload():
    cfg = _cfg(n_pairs=16, m_virtual=20, use_shor=True, seed=8)
    rng = np.random.default_rng(94)
    payload = [random_state(1, rng) for _ in range(16)]
    report = run_session(cfg, session_id=1, payload=payload)
    assert report.decision == "accept"
    assert report.payload_qber == 0.0


def test_run_session_retries_then_gives_up_under_attack():
    cfg = _cfg(
        n_pairs=2, m_virtual=30, threshold=0.01, use_shor=True,
        eve=EveModel(mode="swap", intercept_fraction=1.0), max_retries=3, seed=9,
    )
    report = run_session(cfg, session_id=2)
    assert report.decision == "abort"
    assert report.attempts == 3
    assert report.payload_qber is None
    assert run_session(replace(cfg, max_retries=1), session_id=2).attempts == 1


def test_detection_smoke_all_three_scenarios():
    # small-scale version of the detection-power check
    base = dict(n_pairs=0, m_virtual=100, use_shor=True,
                depol=DepolarizingParams.from_total(0.005), max_retries=1)
    threshold = choose_threshold(DepolarizingParams.from_total(0.005), m_virtual=100)
    outcomes = {}
    from qtsim.qchannel import NO_EVE

    for name, eve in [
        ("none", NO_EVE),
        ("boost", EveModel(mode="depolarize_boost", delta_pe=0.10)),
        ("swap", EveModel(mode="swap", intercept_fraction=1.0)),
    ]:
        cfg = QsdcConfig(**base, threshold=threshold, seed=10, eve=eve)
        aborts = sum(
            run_session(cfg, session_id=s).decision == "abort" for s in range(30)
        )
        outcomes[name] = aborts
    assert outcomes["none"] <= 1
    assert outcomes["boost"] >= 29
    assert outcomes["swap"] == 30
