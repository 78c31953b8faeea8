"""Experiment sweeps: BER/QBER curves, decoded-error curves, session batches.

A sweep is a list of points (curve grid points, or sessions).  Each point
has the row it falls back to on failure, its chunk jobs, and a merge from
chunk results to rows; ``run_sweep`` runs all chunks as one queue, on at
most one process pool, and reads their outcomes in job order.  Output is
deterministic under a fixed seed and independent of the worker count:
trials are cut into fixed-size chunks, each chunk re-derives its rng stream
from (seed, kind, point indices, chunk index), and each point merges its
results in chunk order.
``wall_ms`` is 0 unless timing is enabled, so default CSV output is
byte-stable; with timing it is the summed run time of the point's chunks.
``qber_vs_snr`` trials teleport through ``teleport.teleport_frames``, the
kernel a session's payload goes through.  On the command line each kind
has one subcommand: ``qtsim sweep`` runs ``classical_ber`` and
``qber_vs_snr``, ``qtsim shor-curve`` runs ``shor_curve`` and ``qtsim
qsdc`` runs ``qsdc_batch``.

CSV schema (curve sweeps), one row per grid point:

    sweep_kind,variant,snr_db,p_eq,ber,ber_ci_lo,ber_ci_hi,
    qber,qber_ci_lo,qber_ci_hi,p_shor,p_shor_exact,trials,seed,wall_ms,error

``variant`` distinguishes the uncoded and turbo curves of the classical
sweep; ``error`` carries a message for failed points, whose chunk raised
or killed its pool worker (the sweep continues).  Session batches (kind
``qsdc_batch``) write one row per session, likewise with an error row for a
failed session:

    sweep_kind,session_id,decision,virtual_qber,payload_qber,classical_ber,
    attempts,n_pairs,m_virtual,threshold,p_eq,eve_mode,seed,wall_ms,error
"""
from __future__ import annotations

import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .cchannel import COHERENCE_MODES, RicianParams, noise_variance
from .link import send_bits
from .metrics import MetricAccumulator
from .qchannel import DepolarizingParams, EveModel, NO_EVE, unread_fields
from .qsdc import QsdcConfig, QsdcReport, resolve_threshold, run_session
from .qstate import random_state
from .shor import (
    AXIS_CONVENTIONS, axis_params, exact_logical_rate, pauli_frame_batch, transit_flags,
)
from .teleport import DEFAULT_TEST_STATE, teleport_frames
from .turbo import TurboConfig


class KindReads(NamedTuple):
    trials: int  # default count (trials per point, or sessions) of the kind's command
    fields: tuple[str, ...]  # SweepSpec fields read besides the run fields


_RUN_FIELDS = ("sweep_kind", "trials_per_point", "seed", "output_path", "threads", "timing")
_LINK_FIELDS = ("snr_grid_db", "rician", "coherence", "turbo", "use_turbo")
# What each sweep kind reads; a spec that sets another field, or a link field
# that its mode leaves unread, away from its default is rejected.  The order
# fixes each kind's rng streams.
SWEEP_KIND_READS = {
    "classical_ber": KindReads(100_000, _LINK_FIELDS),
    "qber_vs_snr": KindReads(
        100_000, (*_LINK_FIELDS, "p_eq_list", "use_shor", "classical_bypass_ber")),
    "shor_curve": KindReads(1_000_000, ("p_eq_list", "axis_convention")),
    "qsdc_batch": KindReads(1, (
        "snr_grid_db", "p_eq_list", "rician", "turbo", "use_turbo", "use_shor", "eve",
        "classical_bypass_ber", "n_pairs", "m_virtual", "threshold", "payload_per_session",
    )),
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

# The process pool, imported by the first sweep that starts one (a serial sweep
# leaves concurrent.futures.process unloaded); a name already set stays set.
ProcessPoolExecutor = BrokenProcessPool = None


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
        if self.sweep_kind == "qsdc_batch" and 0 <= self.n_pairs < self.payload_per_session:
            raise ValueError(
                f"payload_per_session ({self.payload_per_session}) exceeds n_pairs "
                f"({self.n_pairs}), the pairs a session can teleport over"
            )
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be positive")
        if self.sweep_kind != "qsdc_batch" and self.trials_per_point < 1000:
            raise ValueError(
                f"{self.sweep_kind} needs >= 1000 trials per point for "
                f"meaningful statistics, got {self.trials_per_point}"
            )
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.coherence not in COHERENCE_MODES:
            raise ValueError(f"unknown coherence mode {self.coherence!r}")
        if self.axis_convention not in AXIS_CONVENTIONS:
            raise ValueError(f"unknown axis convention {self.axis_convention!r}")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "p_eq_list", tuple(float(p) for p in self.p_eq_list))
        for snr_db in self.snr_grid_db:
            noise_variance(self.rician, snr_db)
        if self.classical_bypass_ber is not None and not 0.0 <= self.classical_bypass_ber <= 1.0:
            raise ValueError(
                f"classical_bypass_ber must lie in [0, 1], got {self.classical_bypass_ber}"
            )
        mode, skipped = "", set()  # the link fields that the mode leaves unread
        if self.classical_bypass_ber is not None:  # bit flips in place of the link
            mode, skipped = " with classical_bypass_ber", set(_LINK_FIELDS)
        elif not self.use_turbo:
            mode, skipped = " without use_turbo", {"turbo"}
        reads = {*_RUN_FIELDS, *SWEEP_KIND_READS[self.sweep_kind].fields} - skipped
        unread = unread_fields(self, reads)
        if unread:
            mode = mode if skipped & set(unread) else ""
            raise ValueError(
                f"sweep kind {self.sweep_kind}{mode} does not read {', '.join(unread)}")


def _chunk_jobs(total: int, chunk: int, *head) -> list[tuple]:
    """``(*head, chunk index, chunk size)`` per fixed-size chunk of ``total`` trials."""
    return [(*head, i, min(chunk, total - start))
            for i, start in enumerate(range(0, total, chunk))]


def _rng_for(spec: SweepSpec, *key: int):
    return np.random.default_rng(
        np.random.SeedSequence((spec.seed, _KIND_CODE[spec.sweep_kind], *key))
    )


def _run_job(worker, job) -> tuple:
    """The outcome of one chunk job: (result or the exception raised, run seconds)."""
    t0 = time.perf_counter()
    try:
        result = worker(job)
    except Exception as exc:  # fails the job's point, not the sweep
        result = exc
    return result, time.perf_counter() - t0


def _run_chunks(spec: SweepSpec, worker, points: list[tuple]) -> list[tuple]:
    """The ``_run_job`` outcome of every job of every point, in job order."""
    run = partial(_run_job, worker)
    per_task = SESSION_CHUNK if spec.sweep_kind == "qsdc_batch" else 1
    jobs = [job for _, point_jobs, _ in points for job in point_jobs]
    n_tasks = math.ceil(len(jobs) / per_task)
    workers = min(spec.threads, n_tasks, os.cpu_count() or 1) if spec.threads > 1 else 1
    if workers <= 1:
        return list(map(run, jobs))
    global ProcessPoolExecutor, BrokenProcessPool
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    if BrokenProcessPool is None:
        from concurrent.futures.process import BrokenProcessPool
    outcomes, broken, stop, pool = [], False, 0, None
    with ExitStack() as pools:
        for _, point_jobs, _ in points:
            stop += len(point_jobs)
            while len(outcomes) < stop:  # not run yet, or lost to a dead worker
                pool = pool or pools.enter_context(ProcessPoolExecutor(max_workers=workers))
                todo = jobs[len(outcomes):stop] if broken else jobs
                try:
                    outcomes.extend(pool.map(run, todo, chunksize=per_task))
                except BrokenProcessPool as exc:
                    if broken:  # run alone, the point broke the pool itself
                        outcomes += [(exc, 0.0)] * (stop - len(outcomes))
                    broken, pool = True, None
    return outcomes


# ---------------------------------------------------------------------------
# classical_ber: uncoded vs turbo-coded QPSK over the fading link
# ---------------------------------------------------------------------------

def _ber_chunk(job) -> tuple[int, int]:
    """Bit errors and bits sent of ``n`` uncoded bits, or ``n`` turbo blocks."""
    coded, spec, snr_db, i_snr, chunk_idx, n = job
    rng = _rng_for(spec, i_snr, int(coded), chunk_idx)
    n_bits = n * spec.turbo.block_length if coded else n
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int8)
    out = send_bits(
        bits, rng, snr_db=snr_db, rician=spec.rician,
        turbo_cfg=spec.turbo if coded else None, coherence=spec.coherence,
    )
    return int(np.count_nonzero(bits != out)), n_bits


def _classical_point(spec: SweepSpec, n_uncoded: int, row: dict, results: list) -> list[dict]:
    """The uncoded row from the first ``n_uncoded`` chunks; the turbo row from the rest."""
    uncoded, coded = MetricAccumulator(), MetricAccumulator()
    for i, (err, tot) in enumerate(results):
        (coded if i >= n_uncoded else uncoded).add(err, tot)
    rows = [_curve_row(row, "uncoded", ber=uncoded)]
    if spec.use_turbo:
        rows.append(_curve_row(row, "turbo", ber=coded))
    return rows


# ---------------------------------------------------------------------------
# qber_vs_snr: teleportation with noisy pre-shared pairs
# ---------------------------------------------------------------------------

def _qber_chunk(job) -> tuple[int, int, int, int]:
    """Payload errors, trials, bit errors and bits sent of ``n_trials`` teleports.

    Each trial teleports ``DEFAULT_TEST_STATE`` over a pair that crossed the
    channel, through ``teleport.teleport_frames`` as a session's payload does.
    """
    spec, snr_db, p_eq, i_snr, i_p, chunk_idx, n_trials = job
    rng = _rng_for(spec, i_snr, i_p, chunk_idx)
    x_flip, z_flip = transit_flags(
        DepolarizingParams.from_total(p_eq), rng, n_trials, protected=spec.use_shor
    )
    sent, received, wrong = teleport_frames(
        DEFAULT_TEST_STATE.amplitudes, x_flip, z_flip, rng, snr_db=snr_db,
        rician=spec.rician, turbo_cfg=spec.turbo if spec.use_turbo else None,
        bypass_ber=spec.classical_bypass_ber, coherence=spec.coherence,
    )
    n_flipped = int(np.count_nonzero(sent != received))
    return int(np.count_nonzero(wrong)), n_trials, n_flipped, sent.size


def _qber_point(row: dict, results: list) -> list[dict]:
    qber, ber = MetricAccumulator(), MetricAccumulator()
    for qe, qn, be, bn in results:
        qber.add(qe, qn)
        ber.add(be, bn)
    return [_curve_row(row, ber=ber, qber=qber)]


# ---------------------------------------------------------------------------
# shor_curve: decoded-error probability vs channel probability
# ---------------------------------------------------------------------------

def _shor_chunk(job) -> int:
    spec, p_axis, i_p, chunk_idx, n_trials = job
    rng = _rng_for(spec, i_p, chunk_idx)
    return pauli_frame_batch(axis_params(p_axis, spec.axis_convention), rng, n_trials)


def _shor_point(spec: SweepSpec, p_axis: float, row: dict, results: list) -> list[dict]:
    logical = MetricAccumulator(n_total=spec.trials_per_point, n_error=sum(results))
    exact = exact_logical_rate(axis_params(p_axis, spec.axis_convention))
    return [{**_curve_row(row), "p_shor": logical.rate, "p_shor_exact": exact}]


# ---------------------------------------------------------------------------
# qsdc_batch: one protocol session per trial index
# ---------------------------------------------------------------------------

def session_payload(spec: SweepSpec, session_id: int):
    if not spec.payload_per_session:
        return None
    payload_rng = _rng_for(spec, 1, session_id)
    return [random_state(1, payload_rng) for _ in range(spec.payload_per_session)]


def _session_chunk(job) -> QsdcReport:
    """The report of one session, run under the sweep's one config."""
    spec, cfg, session_id, collect_trace = job
    return run_session(
        cfg, session_id=session_id, payload=session_payload(spec, session_id),
        collect_trace=collect_trace,
    )


def _session_row(trace: list[str] | None, row: dict, results: list) -> list[dict]:
    """Fill a session's row from its report; append its measured pairs to ``trace``."""
    (report,) = results
    row.update(
        decision=report.decision, virtual_qber=report.virtual_qber,
        payload_qber=report.payload_qber, classical_ber=report.classical_ber,
        attempts=report.attempts,
    )
    if trace is not None:
        sid = row["session_id"]
        trace.extend(f"{sid} {' '.join(str(v) for v in pair)}\n" for pair in report.pair_trace)
    return [row]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _curve_row(row: dict, variant: str = "", ber=None, qber=None) -> dict:
    """A copy of a point's key row with its variant and error rates."""
    row = {**row, "variant": variant}
    for name, acc in (("ber", ber), ("qber", qber)):
        if acc is not None:
            lo, hi = acc.wilson_ci95
            row.update({name: acc.rate, f"{name}_ci_lo": lo, f"{name}_ci_hi": hi})
    return row


def _key_row(spec: SweepSpec, snr_db, p_eq) -> dict:
    """A curve point's key columns: its row as it stands if the point fails."""
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(sweep_kind=spec.sweep_kind, snr_db=snr_db, p_eq=p_eq,
               trials=spec.trials_per_point, seed=spec.seed, wall_ms=0)
    return row


def _points(spec: SweepSpec, trace: list[str] | None) -> tuple[Callable, list[tuple]]:
    """The chunk worker of the sweep kind, and every point in row order.

    A point is a curve grid point or one session: ``(row, jobs, merge)``.
    ``row`` holds its key columns, the row it falls back to with the error
    filled in; ``jobs`` holds one job per chunk, in chunk order; and
    ``merge(row, chunk results)`` gives its rows.
    """
    trials = spec.trials_per_point
    points = []
    if spec.sweep_kind == "classical_ber":
        n_blocks = max(1, math.ceil(trials / spec.turbo.block_length))
        for i_snr, snr_db in enumerate(spec.snr_grid_db):
            jobs = _chunk_jobs(trials, UNCODED_CHUNK_BITS, False, spec, snr_db, i_snr)
            merge = partial(_classical_point, spec, len(jobs))
            if spec.use_turbo:
                jobs += _chunk_jobs(n_blocks, CODED_CHUNK_BLOCKS, True, spec, snr_db, i_snr)
            points.append((_key_row(spec, snr_db, ""), jobs, merge))
        return _ber_chunk, points
    if spec.sweep_kind == "shor_curve":
        for i_p, p_axis in enumerate(spec.p_eq_list):
            jobs = _chunk_jobs(trials, SHOR_CHUNK_TRIALS, spec, p_axis, i_p)
            points.append((_key_row(spec, "", p_axis), jobs, partial(_shor_point, spec, p_axis)))
        return _shor_chunk, points
    if spec.sweep_kind == "qsdc_batch":
        cfg = QsdcConfig(
            n_pairs=spec.n_pairs, m_virtual=spec.m_virtual, threshold=spec.threshold,
            depol=DepolarizingParams.from_total(spec.p_eq_list[0]), eve=spec.eve,
            turbo=spec.turbo, rician=spec.rician, snr_db=spec.snr_grid_db[0],
            seed=spec.seed, use_shor=spec.use_shor, use_turbo=spec.use_turbo,
            classical_bypass_ber=spec.classical_bypass_ber,
        )
        key_row = dict.fromkeys(SESSION_COLUMNS, "")
        key_row.update(
            sweep_kind="qsdc_batch", n_pairs=spec.n_pairs, m_virtual=spec.m_virtual,
            threshold=resolve_threshold(cfg), p_eq=spec.p_eq_list[0],
            eve_mode=spec.eve.mode, seed=spec.seed, wall_ms=0,
        )
        merge = partial(_session_row, trace)
        for sid in range(trials):
            job = (spec, cfg, sid, trace is not None)
            points.append(({**key_row, "session_id": sid}, [job], merge))
        return _session_chunk, points
    for i_snr, snr_db in enumerate(spec.snr_grid_db):  # qber_vs_snr
        for i_p, p_eq in enumerate(spec.p_eq_list):
            jobs = _chunk_jobs(trials, QBER_CHUNK_TRIALS, spec, snr_db, p_eq, i_snr, i_p)
            points.append((_key_row(spec, snr_db, p_eq), jobs, _qber_point))
    return _qber_chunk, points


def run_sweep(spec: SweepSpec, trace_path: str | None = None) -> list[dict]:
    """Run every point, optionally writing the CSV to spec.output_path.

    All points' chunks run as one queue, ``SESSION_CHUNK`` sessions or one
    curve chunk per pool task, and come back in job order.  A point whose
    chunk or merge raised gets its key row with the error instead.  A dead
    pool worker costs a rerun of all unfinished chunks, one point at a time
    on a fresh pool; only a point that kills a worker there too gets an
    error row.  With ``trace_path`` (qsdc_batch only), every measured pair
    of every session is written there as one line, in session order.  The
    output paths are opened before the first chunk runs, so one that cannot
    be written raises SweepIOError before any work is done; the two must be
    different files.
    """
    if trace_path is not None and spec.sweep_kind != "qsdc_batch":
        raise ValueError("a pair trace needs sweep kind qsdc_batch")
    if trace_path and spec.output_path and (
            os.path.realpath(trace_path) == os.path.realpath(spec.output_path)):
        raise ValueError(f"the trace and the CSV would both be written to {trace_path}")
    trace = None if trace_path is None else ["# session attempt kind pair bit_a bit_b ok\n"]
    worker, points = _points(spec, trace)
    with ExitStack() as files:
        trace_file, csv_file = (
            None if path is None else _open_text(files, path)
            for path in (trace_path, spec.output_path)
        )
        outcomes = iter(_run_chunks(spec, worker, points))
        rows = []
        for row, point_jobs, merge in points:
            results, seconds = zip(*islice(outcomes, len(point_jobs)))
            try:
                for result in results:
                    if isinstance(result, Exception):
                        raise result
                point_rows = merge(row, list(results))
            except Exception as exc:  # a failed point must not end the sweep
                row["error"] = f"{type(exc).__name__}: {exc}"
                point_rows = [row]
            if spec.timing:
                for out in point_rows:
                    out["wall_ms"] = round(1000.0 * sum(seconds), 3)
            rows.extend(point_rows)
        if trace_file:
            _write_text(trace_file, "".join(trace))
        if csv_file:
            _write_text(csv_file, render_csv(spec, rows))
    return rows


def _open_text(files: ExitStack, path: str):
    """``path`` opened for writing and closed with ``files``; SweepIOError if it cannot be."""
    try:
        return files.enter_context(open(path, "w", encoding="utf-8"))
    except OSError as exc:
        raise SweepIOError(str(exc)) from exc


def _write_text(fh, text: str) -> None:
    """Write ``text`` to the open file ``fh``; SweepIOError if it cannot."""
    try:
        fh.write(text)
        fh.flush()
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
