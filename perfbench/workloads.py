"""The four qtsim benchmark workloads, their checks and their traced layers.

Every workload is a closed loop with one caller: the benchmark builds a
``SweepSpec``, calls ``qtsim.sweeps.run_sweep``, waits for it, and then
starts the next unit.  Unit ``i`` of a run uses the spec seed
``seed * 1000 + i``, so the benchmark seed fixes every input.  An
operation is a grid point (``classical_ber``) or a session (``qsdc_batch``),
and each unit is one operation, so that the host's speed can be read
between any two of them.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "qtsim" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: qtsim source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qtsim.qchannel import DepolarizingParams, EveModel  # noqa: E402
from qtsim.qsdc import choose_threshold  # noqa: E402
from qtsim.shor import exact_logical_rate  # noqa: E402
from qtsim.sweeps import SweepSpec  # noqa: E402
from qtsim.turbo import coded_block_bits, interleave  # noqa: E402

# Two chunks of each variant per point (2 x 2^17 uncoded bits, 2 x 128 coded
# blocks of K=1024), so that threads=2 really runs the process pool.
BER_TRIALS = 1 << 18
# Es/N0 in the waterfall and above it; ber units alternate between the two.
BER_SNRS_DB = (-1.0, 4.0)
P_EQ = 0.005
BOOST = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: SweepSpec
    dominant_layer: str  # the layer this workload is predicted to spend most in
    # Parts of reference.py whose time each operation's wall time is divided
    # by; none for the bulk-decode workloads, whose wall times did not follow
    # the reference (ten runs: IQR 4.6 % raw, 5.9-11.7 % normalised).
    reference_parts: tuple[str, ...] = ()

    def spec(self, seed: int, unit: int) -> SweepSpec:
        spec = dataclasses.replace(self.base, seed=seed * 1000 + unit)
        if not self.is_session:
            spec = dataclasses.replace(
                spec, snr_grid_db=(BER_SNRS_DB[unit % len(BER_SNRS_DB)],))
        return spec

    @property
    def is_session(self) -> bool:
        return self.base.sweep_kind == "qsdc_batch"

    @property
    def traced_units(self) -> int:
        """Units of the traced run: 8 sessions, or one point per SNR."""
        return 8 if self.is_session else len(BER_SNRS_DB)


_BER = SweepSpec(
    "classical_ber", snr_grid_db=BER_SNRS_DB[:1], trials_per_point=BER_TRIALS, threads=1,
)
# Sessions apply gates to small state vectors and run protocol code in the
# interpreter (the decoder at B=1 too): ten runs of each spread 10-18 % raw
# and 2-4 % normalised by these two parts.
_SESSION_PARTS = ("gates", "interpreter")
_SESSIONS = SweepSpec(
    "qsdc_batch", p_eq_list=(P_EQ,), trials_per_point=1,
    use_shor=True, n_pairs=16, m_virtual=100, threads=1,
)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "ber_curve",
            "bulk turbo throughput: log-MAP K=1024 over Rician QPSK at -1 dB "
            "(waterfall) and 4 dB; no quantum layer runs",
            _BER, "turbo",
        ),
        Workload(
            "ber_curve_2w",
            "same spec and seed as ber_curve on 2 workers: the only workload "
            "that runs the per-point process pool in sweeps",
            dataclasses.replace(_BER, threads=2), "sweeps",
        ),
        Workload(
            "qsdc_attack",
            "boost:0.1 Eve, sessions abort after 3 attempts: 348 state-vector "
            "Shor transits per session; exercises retry and abort, turbo never runs",
            dataclasses.replace(_SESSIONS, eve=EveModel(mode="depolarize_boost", delta_pe=BOOST)),
            "qstate", _SESSION_PARTS,
        ),
        Workload(
            "qsdc_payload",
            "no Eve, 16 payload qubits at 0 dB: accept and teleport path, one "
            "turbo decode per session at B=1 that corrects real channel errors",
            dataclasses.replace(_SESSIONS, snr_grid_db=(0.0,), payload_per_session=16),
            "turbo", _SESSION_PARTS,
        ),
    )
}


def warm(spec: SweepSpec) -> None:
    """Fill the lazy caches that the first ``run_sweep`` call would fill."""
    if spec.use_turbo:
        coded_block_bits(spec.turbo)  # constituent trellis
        interleave(np.zeros(spec.turbo.block_length), spec.turbo.interleaver_seed)
    if spec.sweep_kind == "qsdc_batch":
        choose_threshold(DepolarizingParams.from_total(spec.p_eq_list[0]),
                         m_virtual=spec.m_virtual)


def ops_in(spec: SweepSpec) -> int:
    """Operations one run_sweep call of ``spec`` performs."""
    return spec.trials_per_point if spec.sweep_kind == "qsdc_batch" else len(spec.snr_grid_db)


# ---------------------------------------------------------------------------
# traced layers
# ---------------------------------------------------------------------------

LAYERS = {
    "sweeps": ("run_sweep",),
    "qsdc": ("run_session", "distribute_pairs", "transmit_protected",
             "verify_virtual", "teleport_payload"),
    "shor": ("shor_encode", "shor_decode", "exact_logical_rate"),
    "qstate": ("apply_gate", "measure_qubit", "discard_qubit", "tensor"),
    "qchannel": ("depolarize_qubit",),
    "teleport": ("sender_measure", "receiver_correct"),
    "link": ("send_bits",),
    "turbo": ("turbo_encode", "turbo_decode_batch"),
    "cchannel": ("transmit", "qpsk_modulate", "qpsk_demodulate_soft"),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _decode_counts(args, kwargs, result):
    blocks = np.atleast_2d(args[0]).shape[0]
    cfg = args[1]
    return {
        "turbo.decode_blocks": blocks,
        "turbo.trellis_steps": blocks * cfg.iterations * 2 * (cfg.block_length + 3),
    }


HOOKS = {
    "qsdc.verify_virtual": lambda a, kw, r: {
        "qsdc.attempts": 1, "qsdc.aborts": int(r.decision == "abort")},
    "qsdc.transmit_protected": lambda a, kw, r: {
        "qsdc.pairs_transited": len(r.pair_states)},
    # computed, not measured: read and write 16-byte amplitudes once per gate
    "qstate.apply_gate": lambda a, kw, r: {
        "qstate.amp_bytes_computed": 2 * 16 * (1 << a[0].n_qubits)},
    "link.send_bits": lambda a, kw, r: {"link.bits": np.size(a[0])},
    "turbo.turbo_decode_batch": _decode_counts,
    "cchannel.transmit": lambda a, kw, r: {"cchannel.symbols": np.size(a[0].symbols)},
}
COUNTERS = {
    "qsdc.attempts": "count/op", "qsdc.aborts": "count/op",
    "qsdc.pairs_transited": "count/op", "qstate.amp_bytes_computed": "bytes/op",
    "link.bits": "bits/op", "turbo.decode_blocks": "count/op",
    "turbo.trellis_steps": "count/op", "cchannel.symbols": "count/op",
}


def traced_targets(wl: Workload) -> tuple[str, ...]:
    # Spans recorded in pool workers are lost, so a multi-worker sweep is
    # traced at run_sweep only.
    return TRACED if wl.base.threads == 1 else ("sweeps.run_sweep",)


def op_root(wl: Workload) -> str:
    return "qsdc.run_session" if wl.is_session else "sweeps.run_sweep"


# ---------------------------------------------------------------------------
# checks: each returns (failed op count, messages) over the timed units
# ---------------------------------------------------------------------------

TAIL_P = 1e-6  # a statistical check fails below this tail probability


def _poisson_sf(k: int, mean: float) -> float:
    """P(X >= k) for X ~ Poisson(mean)."""
    if k <= 0:
        return 1.0
    term = math.exp(-mean)
    below = term
    for i in range(1, k):
        term *= mean / i
        below += term
    return max(0.0, 1.0 - below)


def virtual_qber_expected(p_eq: float) -> float:
    """Rate of decoded errors that a Z-basis decoy check can see.

    The decoys are measured in the Z basis, so only a decoded X or Y flips
    the outcome.  The Shor decoder leaves a logical X exactly when at least
    two of the three triples have odd Z-flip parity; each physical qubit
    flips Z (a Z or Y error) with probability 2 P_eq / 3.
    """
    r = (1.0 - (1.0 - 4.0 * p_eq / 3.0) ** 3) / 2.0
    return 3.0 * r * r * (1.0 - r) + r ** 3


def check_ber_units(units) -> tuple[int, list[str]]:
    """No error rows; coded below uncoded wherever uncoded is in [1e-4, 1e-1]."""
    failed, notes = 0, []
    for unit in units:
        if unit.error is not None:
            failed += ops_in(unit.spec)
            notes.append(f"seed {unit.spec.seed}: {unit.error}")
            continue
        by_snr: dict[float, dict] = {}
        for row in unit.rows:
            if row["error"]:
                by_snr.setdefault(row["snr_db"], {})["error"] = row["error"]
            else:
                by_snr.setdefault(row["snr_db"], {})[row["variant"]] = row["ber"]
        for snr in unit.spec.snr_grid_db:
            point = by_snr.get(snr, {})
            bad = None
            if "error" in point or "uncoded" not in point or "turbo" not in point:
                bad = f"error or missing row: {point}"
            elif 1e-4 <= point["uncoded"] <= 1e-1 and not point["turbo"] < point["uncoded"]:
                bad = f"turbo BER {point['turbo']} not below uncoded {point['uncoded']}"
            if bad:
                failed += 1
                notes.append(f"seed {unit.spec.seed} snr {snr}: {bad}")
    return failed, notes


def _errored_ops(units) -> int:
    return sum(ops_in(u.spec) for u in units if u.error is not None)


def _binom_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


ATTEMPTS = 3  # QsdcConfig.max_retries, which the sweep leaves at its default


def check_attack_units(units) -> tuple[int, list[str]]:
    """Aborts take all attempts; misses and virtual QBER match the decoded rate.

    A session under attack is accepted (a missed detection) when one of its
    attempts sees no more decoy errors than the threshold allows.  At the
    detectable rate below that happens to a few sessions in a thousand, so
    the check bounds the number of misses instead of forbidding them.
    """
    notes = []
    rows = [row for unit in units for row in unit.rows]
    bad = [r for r in rows if r["decision"] not in ("abort", "accept")
           or (r["decision"] == "abort" and r["attempts"] != ATTEMPTS)]
    failed = len(bad)
    if bad:
        notes.append(f"{len(bad)} sessions neither aborted after {ATTEMPTS} attempts nor accepted")
    if rows:
        m = units[0].spec.m_virtual
        p = virtual_qber_expected(P_EQ + BOOST)
        p_accept = _binom_cdf(math.floor(rows[0]["threshold"] * m + 1e-9), m, p)
        expected_misses = len(rows) * (1.0 - (1.0 - p_accept) ** ATTEMPTS)
        misses = sum(r["decision"] == "accept" for r in rows)
        n = len(rows) * m
        mean = float(np.mean([r["virtual_qber"] for r in rows]))
        z = (mean - p) / math.sqrt(p * (1.0 - p) / n)
        notes.append(
            f"missed detections {misses}/{len(rows)} (expected {expected_misses:.3g}); "
            f"mean virtual_qber {mean:.4f} over {n} decoys, expected {p:.4f} "
            f"(z={z:+.2f}); exact_logical_rate({P_EQ + BOOST:g}) = "
            f"{exact_logical_rate(DepolarizingParams.from_total(P_EQ + BOOST)):.4f}"
        )
        if abs(z) > 5.0 or _poisson_sf(misses, expected_misses) < TAIL_P:
            failed = len(rows)
            notes.append("virtual QBER or missed detections inconsistent with the expected rate")
    return failed + _errored_ops(units), notes


# Upper "near zero" rates for the accepted-payload check: turbo BER is 0 from
# 0 dB up at 2^18 bits, so 1e-4 per bit is a generous allowance.
CLASSICAL_BER_ALLOWANCE = 1e-4


def check_payload_units(units) -> tuple[int, list[str]]:
    """No session aborts; payload and classical errors stay near zero."""
    notes = []
    rows = [row for unit in units for row in unit.rows]
    aborted = [r for r in rows if r["decision"] != "accept"]
    failed = len(aborted)
    if aborted:
        notes.append(f"{len(aborted)} false aborts")
    accepted = [r for r in rows if r["decision"] == "accept"]
    if accepted:
        k = units[0].spec.payload_per_session
        n_qubits = k * len(accepted)
        q_err = round(sum(r["payload_qber"] for r in accepted) * k)
        c_err = round(sum(r["classical_ber"] for r in accepted) * 2 * k)
        p_logical = exact_logical_rate(DepolarizingParams.from_total(P_EQ))
        q_mean = n_qubits * (p_logical + 2 * CLASSICAL_BER_ALLOWANCE)
        c_mean = 2 * n_qubits * CLASSICAL_BER_ALLOWANCE
        notes.append(
            f"payload errors {q_err}/{n_qubits} (expected <= {q_mean:.3g}), "
            f"classical bit errors {c_err}/{2 * n_qubits} (expected <= {c_mean:.3g})"
        )
        if _poisson_sf(q_err, q_mean) < TAIL_P or _poisson_sf(c_err, c_mean) < TAIL_P:
            failed = len(rows)
            notes.append("payload or classical error rate is not near zero")
    return failed + _errored_ops(units), notes


CHECKS = {
    "ber_curve": check_ber_units,
    "ber_curve_2w": check_ber_units,
    "qsdc_attack": check_attack_units,
    "qsdc_payload": check_payload_units,
}
