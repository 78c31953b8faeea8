"""Experiment sweeps: BER/QBER curves, decoded-error curves, session batches.

Every sweep is deterministic under a fixed seed and independent of the
worker count: trials are cut into fixed-size chunks, each chunk re-derives
its own rng stream from (seed, kind, point indices, chunk index), and chunk
results merge in chunk order.  ``wall_ms`` is written as 0 unless timing is
explicitly enabled, so default CSV output is byte-stable run to run.

CSV schema (curve sweeps), one row per grid point:

    sweep_kind,variant,snr_db,p_eq,ber,ber_ci_lo,ber_ci_hi,
    qber,qber_ci_lo,qber_ci_hi,p_shor,p_shor_exact,trials,seed,wall_ms,error

``variant`` distinguishes the uncoded and turbo curves of the classical
sweep; ``error`` carries a message for failed points (the sweep continues).
Session batches (kind ``qsdc_batch``) write one row per session:

    sweep_kind,session_id,decision,virtual_qber,payload_qber,classical_ber,
    attempts,n_pairs,m_virtual,threshold,p_eq,eve_mode,seed,wall_ms,error
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .cchannel import RicianParams
from .link import send_bits
from .metrics import MetricAccumulator
from .qchannel import DepolarizingParams, EveModel, NO_EVE
from .qsdc import QsdcConfig, resolve_threshold, run_session
from .qstate import random_state
from .shor import axis_params, exact_logical_rate, pauli_frame_batch, transit_flags
from .turbo import TurboConfig


class KindReads(NamedTuple):
    trials: int  # trials per point when the command line gives none
    fields: tuple[str, ...]  # SweepSpec fields read besides the run fields


_RUN_FIELDS = ("sweep_kind", "trials_per_point", "seed", "output_path", "threads", "timing")
_LINK_FIELDS = ("snr_grid_db", "rician", "coherence", "turbo", "use_turbo")
# qber_vs_snr and teleport_demo also accept axis_convention, though their
# p_eq values are always total rates.
_TELEPORT_FIELDS = (*_LINK_FIELDS, "p_eq_list", "use_shor", "classical_bypass_ber",
                    "axis_convention")
# What each sweep kind reads; a spec that sets another field away from its
# default is rejected.  The order fixes each kind's rng streams.
SWEEP_KIND_READS = {
    "classical_ber": KindReads(100_000, _LINK_FIELDS),
    "qber_vs_snr": KindReads(100_000, _TELEPORT_FIELDS),
    "shor_curve": KindReads(100_000, ("p_eq_list", "axis_convention")),
    "qsdc_batch": KindReads(1, (
        "snr_grid_db", "p_eq_list", "rician", "turbo", "use_turbo", "use_shor", "eve",
        "classical_bypass_ber", "n_pairs", "m_virtual", "threshold", "payload_per_session",
    )),
    "teleport_demo": KindReads(1000, _TELEPORT_FIELDS),
}
SWEEP_KINDS = tuple(SWEEP_KIND_READS)
_KIND_CODE = {kind: i for i, kind in enumerate(SWEEP_KINDS)}

SWEEP_COLUMNS = [
    "sweep_kind", "variant", "snr_db", "p_eq",
    "ber", "ber_ci_lo", "ber_ci_hi",
    "qber", "qber_ci_lo", "qber_ci_hi",
    "p_shor", "p_shor_exact", "trials", "seed", "wall_ms", "error",
]
SESSION_COLUMNS = [
    "sweep_kind", "session_id", "decision", "virtual_qber", "payload_qber",
    "classical_ber", "attempts", "n_pairs", "m_virtual", "threshold",
    "p_eq", "eve_mode", "seed", "wall_ms", "error",
]

# Fixed chunk sizes: part of the determinism contract, never thread-dependent.
UNCODED_CHUNK_BITS = 1 << 17
CODED_CHUNK_BLOCKS = 128
QBER_CHUNK_TRIALS = 1 << 16
SHOR_CHUNK_TRIALS = 1 << 20
SESSION_CHUNK = 8

_STATISTICAL_KINDS = ("classical_ber", "qber_vs_snr", "shor_curve")


@dataclass(frozen=True)
class SweepSpec:
    sweep_kind: str
    snr_grid_db: tuple[float, ...] = (math.inf,)
    p_eq_list: tuple[float, ...] = (0.0,)
    trials_per_point: int = 100_000
    seed: int = 0
    output_path: str | None = None
    threads: int = 1
    rician: RicianParams = field(default_factory=RicianParams)
    turbo: TurboConfig = field(default_factory=TurboConfig)
    eve: EveModel = NO_EVE
    use_turbo: bool = True
    use_shor: bool = False
    coherence: str = "per_symbol"
    classical_bypass_ber: float | None = None
    axis_convention: str = "total"  # decoded-error-curve x-axis reading
    n_pairs: int = 16
    m_virtual: int = 100
    threshold: float | None = None
    payload_per_session: int = 0
    timing: bool = False

    def __post_init__(self):
        if self.sweep_kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.sweep_kind!r}")
        if not self.snr_grid_db or not self.p_eq_list:
            raise ValueError("sweep grids must be nonempty")
        # a per-Pauli axis value p_e means a total error rate of 3 p_e
        per_pauli = self.sweep_kind == "shor_curve" and self.axis_convention == "per_pauli"
        p_max = 1.0 / 3.0 if per_pauli else 1.0
        bad = [p for p in self.p_eq_list if not 0.0 <= p <= p_max]
        if bad:
            raise ValueError(f"p_eq values must lie in [0, {p_max:.4g}], got {bad}")
        if self.sweep_kind == "qsdc_batch" and len(self.snr_grid_db) * len(self.p_eq_list) > 1:
            raise ValueError("a qsdc_batch runs at one snr_db and one p_eq")
        if self.payload_per_session < 0:
            raise ValueError("payload_per_session must be >= 0")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be positive")
        if self.sweep_kind in _STATISTICAL_KINDS and self.trials_per_point < 1000:
            raise ValueError(
                f"{self.sweep_kind} needs >= 1000 trials per point for "
                f"meaningful statistics, got {self.trials_per_point}"
            )
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "p_eq_list", tuple(float(p) for p in self.p_eq_list))
        reads = {*_RUN_FIELDS, *SWEEP_KIND_READS[self.sweep_kind].fields}
        unread = [
            f.name for f in fields(self) if f.name not in reads and getattr(self, f.name) != (
                f.default_factory() if f.default is MISSING else f.default)
        ]
        if unread:
            raise ValueError(f"sweep kind {self.sweep_kind} does not read {', '.join(unread)}")


def _chunk_sizes(total: int, chunk: int) -> list[int]:
    return [min(chunk, total - start) for start in range(0, total, chunk)]


def _rng_for(spec: SweepSpec, *key: int):
    return np.random.default_rng(
        np.random.SeedSequence((spec.seed, _KIND_CODE[spec.sweep_kind], *key))
    )


def _run_chunks(spec: SweepSpec, worker, jobs: list[tuple]):
    """Run chunk jobs serially or on a process pool; results in job order."""
    if spec.threads == 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=spec.threads) as pool:
        return list(pool.map(worker, jobs, chunksize=1))


# ---------------------------------------------------------------------------
# classical_ber: uncoded vs turbo-coded QPSK over the fading link
# ---------------------------------------------------------------------------

def _uncoded_chunk(job) -> tuple[int, int]:
    spec, snr_db, i_snr, chunk_idx, n_bits = job
    rng = _rng_for(spec, i_snr, 0, chunk_idx)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int8)
    out = send_bits(
        bits, rng, snr_db=snr_db, rician=spec.rician,
        turbo_cfg=None, coherence=spec.coherence,
    )
    return int(np.count_nonzero(bits != out)), n_bits


def _coded_chunk(job) -> tuple[int, int]:
    spec, snr_db, i_snr, chunk_idx, n_blocks = job
    rng = _rng_for(spec, i_snr, 1, chunk_idx)
    k = spec.turbo.block_length
    bits = rng.integers(0, 2, size=n_blocks * k, dtype=np.int8)
    out = send_bits(
        bits, rng, snr_db=snr_db, rician=spec.rician,
        turbo_cfg=spec.turbo, coherence=spec.coherence,
    )
    return int(np.count_nonzero(bits != out)), n_blocks * k


def _ber_chunk(job) -> tuple[int, int]:
    coded, *args = job
    return (_coded_chunk if coded else _uncoded_chunk)(tuple(args))


def _classical_point(spec: SweepSpec, snr_db: float, i_snr: int) -> list[dict]:
    n_bits = spec.trials_per_point
    jobs = [
        (False, spec, snr_db, i_snr, ci, n)
        for ci, n in enumerate(_chunk_sizes(n_bits, UNCODED_CHUNK_BITS))
    ]
    if spec.use_turbo:
        n_blocks = max(1, math.ceil(n_bits / spec.turbo.block_length))
        jobs += [
            (True, spec, snr_db, i_snr, ci, nb)
            for ci, nb in enumerate(_chunk_sizes(n_blocks, CODED_CHUNK_BLOCKS))
        ]
    # Both variants' chunks share one pool, so a point starts its workers once.
    uncoded, coded = MetricAccumulator(), MetricAccumulator()
    for job, (err, tot) in zip(jobs, _run_chunks(spec, _ber_chunk, jobs)):
        (coded if job[0] else uncoded).add(err, tot)

    rows = [_curve_row(spec, "classical_ber", "uncoded", snr_db, None, ber=uncoded)]
    if spec.use_turbo:
        rows.append(_curve_row(spec, "classical_ber", "turbo", snr_db, None, ber=coded))
    return rows


# ---------------------------------------------------------------------------
# qber_vs_snr / teleport_demo: teleportation with noisy pre-shared pairs
# ---------------------------------------------------------------------------

def _teleport_batch(spec: SweepSpec, snr_db: float, rng, x_flip, z_flip):
    """Vectorized teleport trials over pairs with the given (x, z) frame flags.

    Judged by Pauli frame, as ``teleport.frame_teleport_exact`` judges one
    trial: the sender's outcome is uniform whatever the frame, and the
    payload (``DEFAULT_TEST_STATE``, which every Pauli mismatch corrupts) is
    exact iff the frame times the classical bit errors is I, where a flipped
    m1 adds Z and a flipped m2 adds X.
    """
    n_trials = len(x_flip)
    outcomes = np.minimum((4.0 * rng.random(n_trials)).astype(np.int8), 3)
    bits = np.empty(2 * n_trials, dtype=np.int8)
    bits[0::2] = outcomes >> 1
    bits[1::2] = outcomes & 1
    received = send_bits(
        bits, rng, snr_db=snr_db, rician=spec.rician,
        turbo_cfg=spec.turbo if spec.use_turbo else None,
        bypass_ber=spec.classical_bypass_ber, coherence=spec.coherence,
    )
    flipped = bits != received
    wrong = (x_flip != flipped[1::2]) | (z_flip != flipped[0::2])
    return int(np.count_nonzero(wrong)), n_trials, int(np.count_nonzero(flipped)), 2 * n_trials


def _qber_chunk(job) -> tuple[int, int, int, int]:
    spec, snr_db, p_eq, i_snr, i_p, chunk_idx, n_trials = job
    rng = _rng_for(spec, i_snr, i_p, chunk_idx)
    x_flip, z_flip = transit_flags(
        DepolarizingParams.from_total(p_eq), rng, n_trials, protected=spec.use_shor
    )
    return _teleport_batch(spec, snr_db, rng, x_flip, z_flip)


def _qber_point(spec: SweepSpec, snr_db: float, p_eq: float, i_snr: int, i_p: int) -> list[dict]:
    jobs = [
        (spec, snr_db, p_eq, i_snr, i_p, ci, n)
        for ci, n in enumerate(_chunk_sizes(spec.trials_per_point, QBER_CHUNK_TRIALS))
    ]
    qber = MetricAccumulator()
    ber = MetricAccumulator()
    for qe, qn, be, bn in _run_chunks(spec, _qber_chunk, jobs):
        qber.add(qe, qn)
        ber.add(be, bn)
    return [_curve_row(spec, spec.sweep_kind, "", snr_db, p_eq, ber=ber, qber=qber)]


# ---------------------------------------------------------------------------
# shor_curve: decoded-error probability vs channel probability
# ---------------------------------------------------------------------------

def _shor_chunk(job) -> int:
    spec, p_axis, i_p, chunk_idx, n_trials = job
    rng = _rng_for(spec, i_p, chunk_idx)
    return pauli_frame_batch(axis_params(p_axis, spec.axis_convention), rng, n_trials)


def _shor_point(spec: SweepSpec, p_axis: float, i_p: int) -> list[dict]:
    jobs = [
        (spec, p_axis, i_p, ci, n)
        for ci, n in enumerate(_chunk_sizes(spec.trials_per_point, SHOR_CHUNK_TRIALS))
    ]
    n_logical = sum(_run_chunks(spec, _shor_chunk, jobs))
    logical = MetricAccumulator(n_total=spec.trials_per_point, n_error=n_logical)
    exact = exact_logical_rate(axis_params(p_axis, spec.axis_convention))
    row = _curve_row(spec, "shor_curve", "", None, p_axis)
    row["p_shor"] = logical.rate
    row["p_shor_exact"] = exact
    row["trials"] = spec.trials_per_point
    return [row]


# ---------------------------------------------------------------------------
# qsdc_batch: one protocol session per trial index
# ---------------------------------------------------------------------------

def _session_cfg(spec: SweepSpec) -> QsdcConfig:
    return QsdcConfig(
        n_pairs=spec.n_pairs,
        m_virtual=spec.m_virtual,
        threshold=spec.threshold,
        depol=DepolarizingParams.from_total(spec.p_eq_list[0]),
        eve=spec.eve,
        turbo=spec.turbo,
        rician=spec.rician,
        snr_db=spec.snr_grid_db[0],
        seed=spec.seed,
        use_shor=spec.use_shor,
        use_turbo=spec.use_turbo,
        classical_bypass_ber=spec.classical_bypass_ber,
    )


def session_payload(spec: SweepSpec, session_id: int):
    if not spec.payload_per_session:
        return None
    payload_rng = _rng_for(spec, 1, session_id)
    return [random_state(1, payload_rng) for _ in range(spec.payload_per_session)]


def _session_chunk(job) -> list[tuple[dict, tuple]]:
    """(CSV row, pair trace) per session; the trace is empty unless collected.

    A session that raises gives a row with only its ``error`` filled among
    the outcome columns, and no trace, as a failed grid point does.
    """
    spec, session_ids, collect_trace = job
    cfg = _session_cfg(spec)
    threshold = resolve_threshold(cfg)
    sessions = []
    for sid in session_ids:
        t0 = time.perf_counter()
        row = {c: "" for c in SESSION_COLUMNS}
        row.update(
            sweep_kind="qsdc_batch", session_id=sid, n_pairs=spec.n_pairs,
            m_virtual=spec.m_virtual, threshold=threshold, p_eq=spec.p_eq_list[0],
            eve_mode=spec.eve.mode, seed=spec.seed,
        )
        try:
            report = run_session(
                cfg, session_id=sid, payload=session_payload(spec, sid),
                collect_trace=collect_trace,
            )
        except Exception as exc:  # a session failure must not end the batch
            row["error"] = f"{type(exc).__name__}: {exc}"
            trace = ()
        else:
            row.update(
                decision=report.decision, virtual_qber=report.virtual_qber,
                payload_qber=report.payload_qber, classical_ber=report.classical_ber,
                attempts=report.attempts,
            )
            trace = report.pair_trace
        row["wall_ms"] = _elapsed_ms(t0) if spec.timing else 0
        sessions.append((row, trace))
    return sessions


def _qsdc_points(spec: SweepSpec, trace_path: str | None) -> list[dict]:
    ids = range(spec.trials_per_point)
    jobs = [
        (spec, ids[i : i + SESSION_CHUNK], trace_path is not None)
        for i in range(0, len(ids), SESSION_CHUNK)
    ]
    sessions = [s for chunk in _run_chunks(spec, _session_chunk, jobs) for s in chunk]
    if trace_path is not None:
        lines = ["# session attempt kind pair bit_a bit_b ok\n"]
        lines += [
            f"{row['session_id']} {' '.join(str(v) for v in pair)}\n"
            for row, trace in sessions for pair in trace
        ]
        _write_text(trace_path, "".join(lines))
    return [row for row, _ in sessions]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _curve_row(
    spec: SweepSpec,
    kind: str,
    variant: str,
    snr_db,
    p_eq,
    ber: MetricAccumulator | None = None,
    qber: MetricAccumulator | None = None,
) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update(
        sweep_kind=kind, variant=variant, trials=spec.trials_per_point,
        seed=spec.seed, wall_ms=0, error="",
    )
    if snr_db is not None:
        row["snr_db"] = snr_db
    if p_eq is not None:
        row["p_eq"] = p_eq
    if ber is not None:
        lo, hi = ber.wilson_ci95
        row.update(ber=ber.rate, ber_ci_lo=lo, ber_ci_hi=hi)
    if qber is not None:
        lo, hi = qber.wilson_ci95
        row.update(qber=qber.rate, qber_ci_lo=lo, qber_ci_hi=hi)
    return row


def _error_row(spec: SweepSpec, snr_db, p_eq, exc: Exception) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update(
        sweep_kind=spec.sweep_kind,
        snr_db="" if snr_db is None else snr_db,
        p_eq="" if p_eq is None else p_eq,
        trials=spec.trials_per_point, seed=spec.seed, wall_ms=0,
        error=f"{type(exc).__name__}: {exc}",
    )
    return row


def _elapsed_ms(t0: float) -> float:
    """Wall-clock milliseconds since ``t0``, to the microsecond."""
    return round(1000.0 * (time.perf_counter() - t0), 3)


def _grid_points(spec: SweepSpec) -> list[tuple]:
    """(snr_db, p_eq, run) per curve grid point in row order; run() gives its rows."""
    if spec.sweep_kind == "classical_ber":
        return [(snr_db, None, partial(_classical_point, spec, snr_db, i_snr))
                for i_snr, snr_db in enumerate(spec.snr_grid_db)]
    if spec.sweep_kind == "shor_curve":
        return [(None, p_axis, partial(_shor_point, spec, p_axis, i_p))
                for i_p, p_axis in enumerate(spec.p_eq_list)]
    return [  # qber_vs_snr, teleport_demo
        (snr_db, p_eq, partial(_qber_point, spec, snr_db, p_eq, i_snr, i_p))
        for i_snr, snr_db in enumerate(spec.snr_grid_db)
        for i_p, p_eq in enumerate(spec.p_eq_list)
    ]


def run_sweep(spec: SweepSpec, trace_path: str | None = None) -> list[dict]:
    """Run every grid point, optionally writing the CSV to spec.output_path.

    With ``trace_path`` (qsdc_batch only), every measured pair of every
    session is written there as one line, in session order.
    """
    if trace_path is not None and spec.sweep_kind != "qsdc_batch":
        raise ValueError("a pair trace needs sweep kind qsdc_batch")
    if spec.sweep_kind == "qsdc_batch":
        rows = _qsdc_points(spec, trace_path)
    else:
        rows = []
        for snr_db, p_eq, run in _grid_points(spec):
            t0 = time.perf_counter()
            try:
                point_rows = run()
            except Exception as exc:  # point failures must not kill the sweep
                point_rows = [_error_row(spec, snr_db, p_eq, exc)]
            if spec.timing:
                ms = _elapsed_ms(t0)
                for row in point_rows:
                    row["wall_ms"] = ms
            rows.extend(point_rows)
    if spec.output_path:
        _write_text(spec.output_path, render_csv(spec, rows))
    return rows


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; SweepIOError if it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SweepIOError(str(exc)) from exc


class SweepIOError(OSError):
    """Output path could not be written."""


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def spec_summary(spec: SweepSpec) -> list[str]:
    """Deterministic key=value description of a spec (CSV provenance header)."""
    pairs = [
        ("kind", spec.sweep_kind),
        ("seed", spec.seed),
        ("trials_per_point", spec.trials_per_point),
        ("snr_grid_db", ",".join(_fmt(s) for s in spec.snr_grid_db)),
        ("p_eq_list", ",".join(_fmt(p) for p in spec.p_eq_list)),
        ("rician", f"p0={_fmt(spec.rician.p0)};d={_fmt(spec.rician.d)};"
                   f"zeta={_fmt(spec.rician.zeta)};coherence={spec.coherence}"),
        ("turbo", f"K={spec.turbo.block_length};gen={spec.turbo.generators[0]:o},"
                  f"{spec.turbo.generators[1]:o};iters={spec.turbo.iterations};"
                  f"decoder={spec.turbo.decoder};use={spec.use_turbo}"),
        ("shor", f"use={spec.use_shor};axis={spec.axis_convention}"),
        ("eve", f"mode={spec.eve.mode};fraction={_fmt(spec.eve.intercept_fraction)};"
                f"delta={_fmt(spec.eve.delta_pe)}"),
        ("qsdc", f"n={spec.n_pairs};m={spec.m_virtual};"
                 f"threshold={_fmt(spec.threshold) if spec.threshold is not None else 'auto'};"
                 f"payload={spec.payload_per_session}"),
    ]
    if spec.classical_bypass_ber is not None:
        pairs.append(("classical_bypass_ber", _fmt(spec.classical_bypass_ber)))
    return [f"# {k}={v}" for k, v in pairs]


def render_csv(spec: SweepSpec, rows: list[dict]) -> str:
    """Serialize sweep rows with a provenance comment header (no timestamps)."""
    from . import __version__

    columns = SESSION_COLUMNS if spec.sweep_kind == "qsdc_batch" else SWEEP_COLUMNS
    lines = [f"# qtsim {__version__} sweep"]
    lines += spec_summary(spec)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"
