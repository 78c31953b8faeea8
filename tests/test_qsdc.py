"""Secure session protocol: distribution, verification, payload, thresholds."""
import math
from dataclasses import replace

import numpy as np
import pytest

import qtsim.qsdc as qsdc
from qtsim.cchannel import RicianParams
from qtsim.metrics import CHI2_CRIT_P001, chi2_uniform_statistic
from qtsim.qchannel import DepolarizingParams, EveModel, sample_pauli
from qtsim.qsdc import (
    ProtocolError,
    QsdcConfig,
    QsdcReport,
    SessionState,
    _attempt_rng,
    choose_threshold,
    distribute_pairs,
    geometric_threshold,
    resolve_threshold,
    run_session,
    teleport_payload,
    transmit_protected,
    verify_virtual,
)
from qtsim.qstate import PAULI_FROM_FLAGS, PHI_PLUS, PSI_PLUS, fidelity, make_bell, random_state
from qtsim.shor import PauliPattern, classify_pattern, exact_logical_rate
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


def test_each_step_returns_the_state_it_was_given():
    cfg = _cfg(n_pairs=8, m_virtual=20, threshold=0.01)
    rng = np.random.default_rng(97)
    state = distribute_pairs(cfg, rng)
    assert state.decision is None
    assert transmit_protected(state, cfg, rng) is state
    assert state.decision is None and state.virtual_qber is None
    assert verify_virtual(state, cfg, rng) is state
    assert (state.decision, state.virtual_qber) == ("accept", 0.0)
    assert state.payload_qber is None and state.classical_ber is None
    with pytest.raises(AttributeError):  # read off the phase, never set
        state.decision = "abort"
    payload = [random_state(1, rng) for _ in range(8)]
    assert teleport_payload(state, payload, cfg, rng) is state
    assert (state.decision, state.payload_qber, state.classical_ber) == ("accept", 0.0, 0.0)


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


def test_a_derived_threshold_outside_0_1_is_refused():
    # at m_virtual = 1 the 1/m floor derives 1.0, which no decoy error could exceed
    with pytest.warns(UserWarning, match="coarse detection"):
        cfg = _cfg(n_pairs=2, m_virtual=1, eve=EveModel(mode="swap", intercept_fraction=1.0))
    for resolve in (resolve_threshold, run_session):
        with pytest.raises(ValueError, match=r"m_virtual = 1 is 1, .*explicit threshold"):
            resolve(cfg)
    with pytest.warns(UserWarning, match="coarse detection"):
        explicit = replace(cfg, threshold=0.5)
        two = _cfg(n_pairs=2, m_virtual=2)
    assert resolve_threshold(explicit) == 0.5
    assert resolve_threshold(two) == 0.5
    assert run_session(two).decision == "accept"


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


def test_run_session_builds_one_report_per_session(monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(QsdcReport(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(qsdc, "QsdcReport", spy)
    rng = np.random.default_rng(94)
    payload = [random_state(1, rng) for _ in range(16)]
    accepted = run_session(_cfg(n_pairs=16, seed=8), session_id=1, payload=payload)
    assert (accepted.decision, accepted.attempts, accepted.payload_qber) == ("accept", 1, 0.0)
    assert len(built) == 1 and built[0] is accepted
    swap = EveModel(mode="swap", intercept_fraction=1.0)
    aborted = run_session(
        _cfg(n_pairs=2, m_virtual=30, threshold=0.01, eve=swap, seed=9), session_id=2
    )
    assert (aborted.decision, aborted.attempts) == ("abort", 3)
    assert len(built) == 2 and built[1] is aborted


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


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**70])
def test_attempt_rng_is_the_seed_sequence_of_the_key(seed):
    for session_id, attempt in ((0, 0), (5, 2), (2**32 - 1, 1), (2**33, 0)):
        want = np.random.default_rng(np.random.SeedSequence((seed, 0x5E55, session_id, attempt)))
        got = _attempt_rng(seed, session_id, attempt)
        assert got.bit_generator.state == want.bit_generator.state


def test_run_session_calls_each_phase_through_the_module(monkeypatch):
    # the benchmark's tracer wraps the phase functions by their module names
    calls = dict.fromkeys(("distribute_pairs", "transmit_protected", "verify_virtual"), 0)
    for name in calls:
        def spy(*args, _phase=getattr(qsdc, name), _name=name, **kwargs):
            calls[_name] += 1
            return _phase(*args, **kwargs)
        monkeypatch.setattr(qsdc, name, spy)
    base = dict(n_pairs=16, m_virtual=100, depol=DepolarizingParams.from_total(0.005), seed=3)
    boost = QsdcConfig(**base, eve=EveModel(mode="depolarize_boost", delta_pe=0.1))
    report = run_session(boost, session_id=4)
    assert (report.decision, report.attempts) == ("abort", 3)
    assert calls == dict.fromkeys(calls, 3)
    calls.update(dict.fromkeys(calls, 0))
    report = run_session(QsdcConfig(**base), session_id=4)
    assert (report.decision, report.attempts) == ("accept", 1)
    assert calls == dict.fromkeys(calls, 1)


# ---------------------------------------------------------------------------
# draw order
# ---------------------------------------------------------------------------

_FLAGS_OF = {pauli: flags for flags, pauli in PAULI_FROM_FLAGS.items()}


class _Uniform:
    """An rng whose one draw is ``u``, for ``sample_pauli``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def _reference_session(cfg: QsdcConfig, session_id: int, collect_trace: bool) -> tuple:
    """(decision, virtual_qber, attempts, pair_trace) of a session without payload.

    Each attempt draws from default_rng(SeedSequence((seed, 0x5E55, session,
    attempt))), in this order: the decoy slots, one choice of m among n + m;
    one uniform per physical qubit, nine per pair with Shor and one without;
    with a swap Eve, one intercept uniform per pair and then a (2, n + m)
    array of Bell-frame bits; last the receiver's m decoy bits, drawn only
    when the attempt accepts or a trace is collected.  Each uniform is a
    Pauli by the four-rule sampler, and a Shor block's nine are judged by
    classify_pattern.  Only the parity bit, which a residual X flips, is
    read by the check.
    """
    total = cfg.n_pairs + cfg.m_virtual
    per_pair = 9 if cfg.use_shor else 1
    boost = cfg.eve.delta_pe if cfg.eve.mode == "depolarize_boost" else 0.0
    channel = DepolarizingParams.from_total(min(1.0, cfg.depol.p_eq + boost))
    threshold = choose_threshold(cfg.depol, m_virtual=cfg.m_virtual)
    trace = []
    for attempt in range(cfg.max_retries):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5E55, session_id, attempt)))
        decoys = sorted(rng.choice(total, size=cfg.m_virtual, replace=False).tolist())
        uniforms = rng.random(per_pair * total).tolist()
        parity = [int(i in decoys) for i in range(total)]  # PSI_PLUS decoys, PHI_PLUS pairs
        for i in range(total):
            errors = tuple(sample_pauli(channel, _Uniform(u))
                           for u in uniforms[per_pair * i:per_pair * (i + 1)])
            residual = classify_pattern(PauliPattern(errors)).logical_error if cfg.use_shor \
                else errors[0]
            parity[i] ^= _FLAGS_OF[residual][0]
        if cfg.eve.mode == "swap":
            hit = (rng.random(total) < cfg.eve.intercept_fraction).tolist()
            frames = rng.integers(0, 2, size=(2, total), dtype=np.int8)
            parity = [f if h else p for p, h, f in zip(parity, hit, frames[1].tolist())]
        virtual_qber = sum(parity[pos] == 0 for pos in decoys) / cfg.m_virtual
        accepted = virtual_qber <= threshold
        if accepted or collect_trace:
            bob = rng.integers(0, 2, size=cfg.m_virtual, dtype=np.int8).tolist()
        if collect_trace:
            trace += [(attempt, "virtual", pos, b ^ parity[pos], b, parity[pos])
                      for pos, b in zip(decoys, bob)]
        if accepted:
            break
    return ("accept" if accepted else "abort"), virtual_qber, attempt + 1, tuple(trace)


@pytest.mark.parametrize("eve", [
    EveModel(), EveModel(mode="depolarize_boost", delta_pe=0.1),
    EveModel(mode="swap", intercept_fraction=0.3),
], ids=["none", "boost", "swap"])
@pytest.mark.parametrize("use_shor", [True, False], ids=["shor", "bare"])
def test_sessions_follow_the_documented_draw_order(eve, use_shor):
    cfg = QsdcConfig(n_pairs=6, m_virtual=20, depol=DepolarizingParams.from_total(0.005),
                     eve=eve, use_shor=use_shor, seed=21)
    outcomes = set()
    for session_id in range(8):
        for collect_trace in (False, True):
            report = run_session(cfg, session_id=session_id, collect_trace=collect_trace)
            got = (report.decision, report.virtual_qber, report.attempts, report.pair_trace)
            assert got == _reference_session(cfg, session_id, collect_trace), session_id
            outcomes.add((report.decision, report.attempts))
    if eve.mode == "none":
        assert outcomes == {("accept", 1)}
    else:  # accepted, and aborted after every attempt
        assert ("abort", 3) in outcomes and {d for d, _ in outcomes} == {"accept", "abort"}
