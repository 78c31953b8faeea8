"""Secure-and-reliable teleportation sessions with eavesdropper detection.

Session flow (one attempt):

  1. distribute n real pairs in (|00>+|11>)/sqrt(2) and m virtual decoy
     pairs in (|01>+|10>)/sqrt(2) at secret positions;
  2. protect each receiver-bound half with the Shor code, pass its nine
     physical qubits through the depolarizing channel, decode at the
     receiver (optionally attacked per the EveModel);
  3. both sides measure the virtual pairs - outcomes must be opposite -
     and the virtual QBER decides accept vs abort against a threshold;
  4. on accept, payload qubits are teleported over the surviving real
     pairs, with the measurement bits protected by the Turbo/QPSK/Rician
     classical chain; each arrives under one residual Pauli (pair frame
     times bit errors) and is judged by its Bloch component along it.
     ``teleport.teleport_frames`` runs this step, for teleport sweeps too.

An attempt holds its decoy slots as one sorted index array.  A session
retries an aborted attempt up to ``max_retries`` times and returns one
report, from its last attempt.

Every quantum step (Bell preparation, Shor encoding and decoding, Pauli
noise, the swap attack, teleportation) is Clifford, so each pair is
simulated exactly as a Bell frame: the (phase_bit, parity_bit) of its Bell
state (``qstate.BellKind``).  A residual X on the receiver's half flips the
parity bit, a residual Z the phase bit.  The state-vector circuits in
``shor``, ``qchannel`` and ``teleport`` are the test oracles of this path.

The position/result comparison channel for virtual pairs is modeled as
out-of-band and error-free, so detection statistics are not conflated with
classical-channel noise.  Aborted sessions can never reach the payload
phase (the phase machine raises).
"""
from __future__ import annotations

import dataclasses
import math
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .cchannel import RicianParams, noise_variance
from .qchannel import DepolarizingParams, EveModel, NO_EVE, effective_params
from .qstate import PHI_PLUS, PSI_PLUS, BellKind, StateVector, make_bell
from .shor import exact_logical_rate, transit_flags
from .teleport import teleport_frames
from .turbo import TurboConfig


class ProtocolError(RuntimeError):
    """Raised when the session phase machine is violated."""


@dataclass(frozen=True)
class QsdcConfig:
    n_pairs: int = 32
    m_virtual: int = 100
    threshold: float | None = None  # None: derive via choose_threshold
    depol: DepolarizingParams = field(
        default_factory=lambda: DepolarizingParams.from_total(0.005)
    )
    eve: EveModel = NO_EVE
    turbo: TurboConfig = field(default_factory=TurboConfig)
    rician: RicianParams = field(default_factory=RicianParams)
    snr_db: float = math.inf
    seed: int = 0
    use_shor: bool = True
    use_turbo: bool = True
    classical_bypass_ber: float | None = None  # i.i.d. bit flips instead of the chain
    max_retries: int = 3

    def __post_init__(self):
        if self.m_virtual < 1:
            raise ValueError("at least one virtual pair is required")
        if self.n_pairs < 0:
            raise ValueError("n_pairs must be >= 0")
        if self.threshold is not None and not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        noise_variance(self.rician, self.snr_db)
        if self.classical_bypass_ber is not None and not 0.0 <= self.classical_bypass_ber <= 1.0:
            raise ValueError(
                f"classical_bypass_ber must lie in [0, 1], got {self.classical_bypass_ber}"
            )
        if self.m_virtual < 20:
            warnings.warn(
                f"m_virtual = {self.m_virtual} gives coarse detection; "
                "more virtual pairs make the check more precise",
                stacklevel=_caller_stacklevel(),
            )


def _caller_stacklevel() -> int:
    """``warnings.warn`` stack level of the code that built a config.

    That is the first frame, from ``__post_init__`` out, outside this module
    and the dataclass machinery: the generated ``__init__``, and
    ``dataclasses.replace`` when a config is made from another.
    """
    inside = (__file__, dataclasses.__file__)
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and (
        frame.f_code.co_filename in inside or frame.f_code is QsdcConfig.__init__.__code__
    ):
        frame, level = frame.f_back, level + 1
    return level


@lru_cache(maxsize=4)
def _bell_state(phase_bit: int, parity_bit: int) -> StateVector:
    return make_bell(BellKind(phase_bit, parity_bit))


@dataclass
class SessionState:
    phase_bits: np.ndarray  # Bell frame of pair i: (phase_bits[i], parity_bits[i])
    parity_bits: np.ndarray
    virtual_positions: np.ndarray  # decoy slots, sorted on construction
    phase: str = "distributed"
    virtual_qber: float | None = None
    pair_trace: list[tuple] | None = field(default_factory=list)  # None: not recorded

    def __post_init__(self):
        self.virtual_positions = np.sort(np.asarray(self.virtual_positions, dtype=np.intp))

    @property
    def pair_states(self) -> tuple[StateVector, ...]:
        """The pairs as state vectors, built from their frames on each access."""
        return tuple(
            _bell_state(phase, parity)
            for phase, parity in zip(self.phase_bits.tolist(), self.parity_bits.tolist())
        )

    def require_phase(self, expected: str) -> None:
        if self.phase != expected:
            raise ProtocolError(f"expected phase {expected!r}, got {self.phase!r}")


@dataclass(frozen=True)
class QsdcReport:
    virtual_qber: float
    decision: str
    payload_qber: float | None
    eve_present_truth: bool
    per_phase_timings: dict[str, float] = field(default_factory=dict)
    classical_ber: float | None = None
    attempts: int = 1
    pair_trace: tuple = ()  # (attempt, kind, position, bit_a, bit_b, ok) rows

    def __post_init__(self):
        if self.decision == "abort" and self.payload_qber is not None:
            raise ValueError("aborted sessions carry no payload QBER")


def distribute_pairs(cfg: QsdcConfig, rng) -> SessionState:
    """Create n real + m virtual pairs, decoys at rng-chosen secret slots."""
    total = cfg.n_pairs + cfg.m_virtual
    chosen = rng.choice(total, size=cfg.m_virtual, replace=False)
    phase_bits = np.full(total, PHI_PLUS.phase_bit, dtype=np.int8)
    parity_bits = np.full(total, PHI_PLUS.parity_bit, dtype=np.int8)
    phase_bits[chosen] = PSI_PLUS.phase_bit
    parity_bits[chosen] = PSI_PLUS.parity_bit
    return SessionState(phase_bits, parity_bits, chosen)


def transmit_protected(state: SessionState, cfg: QsdcConfig, rng) -> SessionState:
    """Run every pair through the (optionally Shor-protected) quantum channel."""
    state.require_phase("distributed")
    channel = cfg.depol
    if cfg.eve.mode == "depolarize_boost":
        channel = effective_params(cfg.depol, cfg.eve)
    n = len(state.phase_bits)
    x, z = transit_flags(channel, rng, n, protected=cfg.use_shor)
    phase, parity = state.phase_bits ^ z, state.parity_bits ^ x
    if cfg.eve.mode == "swap":
        # Eve's Bell measurement leaves an intercepted pair in a uniformly
        # random Bell state, whatever state it arrived in.
        hit = rng.random(n) < cfg.eve.intercept_fraction
        frames = rng.integers(0, 2, size=(2, n), dtype=np.int8)
        phase = np.where(hit, frames[0], phase)
        parity = np.where(hit, frames[1], parity)
    state.phase_bits, state.parity_bits = phase, parity
    state.phase = "decoded"
    return state


def resolve_threshold(cfg: QsdcConfig) -> float:
    return (
        cfg.threshold
        if cfg.threshold is not None
        else choose_threshold(cfg.depol, m_virtual=cfg.m_virtual)
    )


def verify_virtual(state: SessionState, cfg: QsdcConfig, rng) -> QsdcReport:
    """Measure the decoy pairs and decide accept vs abort.

    The receiver measures first and reveals positions and results; the
    sender then measures her halves and counts non-opposite outcomes.
    """
    state.require_phase("decoded")
    positions = state.virtual_positions
    # The receiver's Z outcome is uniform; the sender's differs from it by
    # the pair's parity bit, so the outcomes are opposite, as
    # (|01>+|10>)/sqrt(2) requires, exactly where that bit is set.
    bob = rng.integers(0, 2, size=len(positions), dtype=np.int8)
    parity = state.parity_bits[positions]
    disagreements = len(positions) - int(np.count_nonzero(parity))
    if state.pair_trace is not None:
        state.pair_trace.extend(
            ("virtual", pos, a, b, ok)
            for pos, a, b, ok in zip(
                positions.tolist(), (bob ^ parity).tolist(), bob.tolist(),
                (parity != 0).astype(int).tolist(),
            )
        )
    virtual_qber = disagreements / cfg.m_virtual
    threshold = resolve_threshold(cfg)
    decision = "accept" if virtual_qber <= threshold else "abort"
    state.virtual_qber = virtual_qber
    state.phase = "verified" if decision == "accept" else "aborted"
    return QsdcReport(
        virtual_qber=virtual_qber,
        decision=decision,
        payload_qber=None,
        eve_present_truth=cfg.eve.mode != "none",
    )


def teleport_payload(
    state: SessionState, payload: list[StateVector], cfg: QsdcConfig, rng
) -> QsdcReport:
    """Teleport payload qubits over verified pairs; bits ride the classical chain."""
    if state.phase == "aborted":
        raise ProtocolError("aborted session cannot carry payload")
    state.require_phase("verified")
    real_positions = np.delete(np.arange(len(state.phase_bits)), state.virtual_positions)
    if len(payload) > len(real_positions):
        raise ValueError(
            f"payload of {len(payload)} exceeds {len(real_positions)} surviving pairs"
        )

    used = real_positions[: len(payload)]
    sent_bits, received, errors = teleport_frames(
        np.reshape([psi.amplitudes for psi in payload], (len(payload), 2)),
        state.parity_bits[used], state.phase_bits[used], rng, snr_db=cfg.snr_db,
        rician=cfg.rician, turbo_cfg=cfg.turbo if cfg.use_turbo else None,
        bypass_ber=cfg.classical_bypass_ber,
    )
    if state.pair_trace is not None:
        state.pair_trace.extend(
            ("payload", pos, m1, m2, ok)
            for pos, (m1, m2), ok in zip(
                used.tolist(), sent_bits.reshape(-1, 2).tolist(), (~errors).astype(int).tolist()
            )
        )

    payload_qber = int(np.count_nonzero(errors)) / len(payload) if payload else 0.0
    classical_ber = float(np.mean(sent_bits != received)) if payload else 0.0
    state.phase = "completed"
    return QsdcReport(
        virtual_qber=state.virtual_qber if state.virtual_qber is not None else 0.0,
        decision="accept",
        payload_qber=payload_qber,
        eve_present_truth=cfg.eve.mode != "none",
        classical_ber=classical_ber,
    )


def geometric_threshold(
    p_no_eve: float, p_eve: float, m_virtual: int | None = None
) -> float:
    """Threshold between the clean and attacked decoded-error rates.

    Geometric mean of the two rates, floored at 1/m when the virtual-pair
    count is known (a batch of m decoys cannot resolve rates below one
    error in m).
    """
    base = math.sqrt(p_no_eve * p_eve) if p_no_eve > 0 and p_eve > 0 else 0.0
    floor = 1.0 / m_virtual if m_virtual else 0.0
    return max(base, floor)


@lru_cache(maxsize=64)
def choose_threshold(
    depol: DepolarizingParams,
    delta_pe: float = 0.10,
    m_virtual: int | None = None,
) -> float:
    """Security threshold from the clean and boosted decoded error rates."""
    p_no_eve = exact_logical_rate(depol)
    boosted = DepolarizingParams.from_total(min(1.0, depol.p_eq + delta_pe))
    return geometric_threshold(p_no_eve, exact_logical_rate(boosted), m_virtual)


def run_session(
    cfg: QsdcConfig,
    session_id: int = 0,
    payload: list[StateVector] | None = None,
    collect_trace: bool = False,
) -> QsdcReport:
    """One full session with up to ``max_retries`` restarts on abort.

    With ``collect_trace`` the report carries one trace row per measured
    pair: (attempt, kind, position, bit_a, bit_b, ok).
    """
    timings: dict[str, float] = {}
    trace: list[tuple] = []
    for attempt in range(cfg.max_retries):
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 0x5E55, session_id, attempt))
        )
        t0 = time.perf_counter()
        state = distribute_pairs(cfg, rng)
        if not collect_trace:
            state.pair_trace = None
        t1 = time.perf_counter()
        state = transmit_protected(state, cfg, rng)
        t2 = time.perf_counter()
        report = verify_virtual(state, cfg, rng)
        t3 = time.perf_counter()
        timings["distribute"] = timings.get("distribute", 0.0) + (t1 - t0)
        timings["transmit"] = timings.get("transmit", 0.0) + (t2 - t1)
        timings["verify"] = timings.get("verify", 0.0) + (t3 - t2)
        accepted = report.decision == "accept"
        if accepted and payload:
            report = teleport_payload(state, payload, cfg, rng)
            timings["payload"] = time.perf_counter() - t3
        if collect_trace:
            trace.extend((attempt,) + row for row in state.pair_trace)
        if accepted:
            break
    return replace(
        report, per_phase_timings=timings, attempts=attempt + 1, pair_trace=tuple(trace)
    )
