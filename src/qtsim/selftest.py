"""Fast invariant suite behind ``qtsim selftest`` (target: well under 60 s).

Covers the exact/trivial contracts of every layer: Bell-state amplitudes,
gate involutions, noiseless teleportation, the channel sampling rule order,
exhaustive weight-<=1 Shor correction (state vector and Pauli frame), turbo
round trips, the windowed log-MAP pass against the sequential one, QPSK
mapping, and sweep determinism.  Statistical acceptance checks live in the
test suite.
"""
from __future__ import annotations

import math

import numpy as np

from .cchannel import llrs_to_bits, qpsk_demodulate_soft, qpsk_modulate, transmit, RicianParams
from .qchannel import DepolarizingParams, EveModel, NO_EVE, effective_params, sample_pauli
from .qsdc import QsdcConfig, SessionState, choose_threshold, geometric_threshold, transmit_protected
from .qstate import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    PauliError,
    apply_gate,
    basis_state,
    fidelity,
    make_bell,
    random_state,
)
from .shor import PauliPattern, apply_pattern, classify_pattern, shor_decode, shor_encode
from .sweeps import SweepSpec, render_csv, run_sweep
from .teleport import DEFAULT_TEST_STATE, teleport_once
from .turbo import (
    RscTrellis,
    TurboConfig,
    _log_map,
    _window_count,
    split_llrs,
    turbo_decode,
    turbo_encode,
)


class _ScriptedRng:
    """Feeds a fixed uniform stream to code expecting rng.random([n])."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        drawn, self._values = self._values[:size], self._values[size:]
        return np.array(drawn)


def _weight_one_patterns() -> list[PauliPattern]:
    """The clean pattern and all 27 single-position Pauli errors."""
    patterns = [PauliPattern((PauliError.I,) * 9)]
    for pos in range(9):
        for err in (PauliError.X, PauliError.Y, PauliError.Z):
            patterns.append(
                PauliPattern(tuple(err if k == pos else PauliError.I for k in range(9)))
            )
    return patterns


def _checks():
    sqrt2 = math.sqrt(2.0)
    rng = np.random.default_rng(20240)

    def bell_amplitudes():
        expected = {
            PHI_PLUS: [1 / sqrt2, 0, 0, 1 / sqrt2],
            PHI_MINUS: [1 / sqrt2, 0, 0, -1 / sqrt2],
            PSI_PLUS: [0, 1 / sqrt2, 1 / sqrt2, 0],
            PSI_MINUS: [0, 1 / sqrt2, -1 / sqrt2, 0],
        }
        return all(
            np.allclose(make_bell(kind).amplitudes, amps, atol=1e-12)
            for kind, amps in expected.items()
        )

    def involutions():
        state = random_state(3, rng)
        for gate in ("X", "Z", "H"):
            twice = apply_gate(apply_gate(state, gate, 1), gate, 1)
            if fidelity(twice, state) < 1 - 1e-9:
                return False
        return True

    def teleport_exact():
        return all(
            not teleport_once(random_state(1, rng), rng=rng).is_error
            for _ in range(100)
        )

    def teleport_wrong_bit():
        result = teleport_once(DEFAULT_TEST_STATE, classical_error=(0, 1), rng=rng)
        return result.is_error

    def sampling_rule_order():
        params = DepolarizingParams.from_total(0.3)
        stream = _ScriptedRng([0.0999, 0.1001, 0.2999, 0.3001])
        got = [sample_pauli(params, stream) for _ in range(4)]
        return got == [PauliError.X, PauliError.Z, PauliError.Y, PauliError.I]

    def shor_weight_one():
        psi = random_state(1, rng)
        for pattern in _weight_one_patterns():
            if classify_pattern(pattern).logical_error is not PauliError.I:
                return False
        encoded, block = shor_encode(psi, 0)
        corrupted = apply_pattern(
            encoded,
            block,
            PauliPattern((PauliError.Y,) + (PauliError.I,) * 8),
        )
        decoded, _ = shor_decode(corrupted, block, rng)
        return fidelity(decoded, psi) > 1 - 1e-9

    def frame_transit_weight_one():
        patterns = _weight_one_patterns()
        # uniforms that the P_eq = 0.3 sampler maps onto each Pauli
        uniform = {PauliError.X: 0.05, PauliError.Z: 0.15, PauliError.Y: 0.25,
                   PauliError.I: 0.65}
        stream = _ScriptedRng([uniform[e] for p in patterns for e in p.errors])
        clean = np.zeros(len(patterns), dtype=np.int8)  # every pair in PHI_PLUS
        cfg = QsdcConfig(n_pairs=len(patterns), depol=DepolarizingParams.from_total(0.3))
        session = SessionState(clean, clean, ())
        pairs = transmit_protected(session, cfg, stream).pair_states
        encoded, block = shor_encode(make_bell(PHI_PLUS), 1)
        return len(pairs) == len(patterns) and all(
            fidelity(shor_decode(apply_pattern(encoded, block, p), block, rng)[0], pair)
            > 1 - 1e-9
            for p, pair in zip(patterns, pairs)
        )

    def turbo_roundtrip():
        # the one constituent kernel with both merges: log-MAP and max-log
        info = rng.integers(0, 2, size=256, dtype=np.int8)
        configs = [TurboConfig(block_length=256, iterations=4, decoder=decoder)
                   for decoder in ("log_map", "max_log_map")]
        llrs = 20.0 * (1.0 - 2.0 * turbo_encode(info, configs[0]))
        return all(np.array_equal(turbo_decode(llrs, cfg), info) for cfg in configs)

    def windowed_log_map():
        # one noisy block: the window-parallel pass against the sequential one
        cfg = TurboConfig(block_length=256)
        bits = turbo_encode(rng.integers(0, 2, size=256, dtype=np.int8), cfg)
        llrs = 2.0 * (1.0 - 2.0 * bits) + rng.normal(0.0, 2.0, size=bits.size)
        l_sys, l_par, _, tail_sys, tail_par = split_llrs(llrs, cfg)
        l_sys = np.concatenate([l_sys, tail_sys], axis=1)
        l_par = np.concatenate([l_par, tail_par], axis=1)
        trellis = RscTrellis(*cfg.generators)
        apriori = np.zeros_like(l_sys)
        one = _log_map(l_sys, l_par, apriori, trellis, True, windows=1)
        windowed = _log_map(l_sys, l_par, apriori, trellis, True)
        return _window_count(1, l_sys.shape[1], trellis.n_states) > 1 and bool(
            np.allclose(windowed, one, rtol=1e-12, atol=1e-13)
        )

    def qpsk_roundtrip():
        bits = rng.integers(0, 2, size=64, dtype=np.int8)
        frame = qpsk_modulate(bits, math.inf)
        received = transmit(frame, RicianParams(zeta=1e9), rng)
        return bool(
            np.array_equal(llrs_to_bits(qpsk_demodulate_soft(received)), bits)
        )

    def boost_params():
        boosted = effective_params(
            DepolarizingParams.from_total(0.005),
            EveModel(mode="depolarize_boost", delta_pe=0.10),
        )
        return math.isclose(boosted.p_eq, 0.105)

    def threshold_construction():
        mid = geometric_threshold(1e-4, 0.1213)
        between = 1e-4 < mid < 0.1213
        floored = geometric_threshold(0.0, 0.1213, m_virtual=100) == 0.01
        auto = choose_threshold(DepolarizingParams.from_total(0.005), m_virtual=100)
        return between and floored and 0.0 < auto < 0.1213

    def sweep_determinism():
        spec = SweepSpec(
            sweep_kind="qber_vs_snr", snr_grid_db=(math.inf,),
            p_eq_list=(0.01,), trials_per_point=1000, seed=11,
        )
        a = render_csv(spec, run_sweep(spec))
        b = render_csv(spec, run_sweep(spec))
        return a == b

    return [
        ("bell amplitudes match the four Bell states", bell_amplitudes),
        ("X/Z/H are involutions", involutions),
        ("noiseless teleportation is exact", teleport_exact),
        ("a flipped classical bit corrupts the payload", teleport_wrong_bit),
        ("channel sampler follows the X/Z/Y/I rule order", sampling_rule_order),
        ("all weight-1 Pauli errors decode cleanly", shor_weight_one),
        ("Pauli-frame transit matches the state-vector Shor round trip",
         frame_transit_weight_one),
        ("turbo decode (log-MAP and max-log) inverts encode on clean LLRs", turbo_roundtrip),
        ("windowed log-MAP pass matches the sequential one", windowed_log_map),
        ("QPSK demod inverts modulation on a clean link", qpsk_roundtrip),
        ("eavesdropper boost adds 0.10 to the channel", boost_params),
        ("threshold sits between the two operating rates", threshold_construction),
        ("same-seed sweeps are byte-identical", sweep_determinism),
    ]


def run_selftest(verbose: bool = False) -> int:
    """Run all checks; returns the number of failures."""
    failures = 0
    for name, check in _checks():
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            if verbose:
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        if verbose and ok:
            print(f"ok   {name}")
        elif verbose and not ok:
            print(f"FAIL {name}")
        failures += not ok
    return failures
