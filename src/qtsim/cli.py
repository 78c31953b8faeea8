"""Command-line experiment driver.

Subcommands:

  sweep          run a curve sweep (classical_ber / qber_vs_snr / shor_curve
                 / qsdc_batch / teleport_demo) and emit CSV
  qsdc           run protocol sessions and print a summary report
  teleport-demo  teleport a handful of qubits and print fidelities
  shor-curve     decoded-error curve over a channel-probability grid
  selftest       fast invariant suite (exits 3 on failure)

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 selftest
failure.  ``--config`` points at a key=value file; command-line flags
override it.  QTSIM_THREADS sets the default worker count.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .cchannel import RicianParams
from .qchannel import DepolarizingParams, EveModel, NO_EVE
from .sweeps import SWEEP_KINDS, SweepSpec, SweepIOError, render_csv, run_sweep, write_csv
from .turbo import TurboConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_SELFTEST = 3


class CliConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we need exit 1
        raise CliConfigError(message)


def parse_eve(text: str) -> EveModel:
    """Parse --eve values: none | swap:<fraction> | boost:<delta>."""
    if text == "none":
        return NO_EVE
    kind, _, value = text.partition(":")
    if kind == "swap":
        return EveModel(mode="swap", intercept_fraction=float(value or 1.0))
    if kind == "boost":
        return EveModel(mode="depolarize_boost", delta_pe=float(value or 0.10))
    raise CliConfigError(f"bad --eve value {text!r} (none | swap:frac | boost:delta)")


def load_config(path: str) -> dict[str, str]:
    """Line-oriented key=value config; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise CliConfigError(f"cannot read config {path}: {exc}") from exc
    return values


_CONFIG_KEYS = {
    "kind", "seed", "trials", "out", "threads", "eve", "snr_grid_db", "p_eq_list",
    "snr_db", "p_eq", "zeta", "p0", "d", "coherence", "block_length", "iterations",
    "decoder", "interleaver_seed", "n_pairs", "m_virtual", "threshold", "payload",
    "sessions", "no_shor", "no_turbo", "use_shor", "timing", "axis_convention",
    "bypass_ber",
}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _apply_config(args: argparse.Namespace, values: dict[str, str]) -> None:
    """Fold config-file values into defaults (CLI flags win)."""
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise CliConfigError(f"unknown config key {key!r}")
        dest = {"trials": "trials", "out": "out", "kind": "kind"}.get(key, key)
        if getattr(args, dest, None) is None and hasattr(args, dest):
            setattr(args, dest, value)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--eve", default=None, help="none | swap:frac | boost:delta")
    parser.add_argument("--no-shor", action="store_true", dest="no_shor")
    parser.add_argument("--no-turbo", action="store_true", dest="no_turbo")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock ms per point (breaks byte-stable output)")
    parser.add_argument("--zeta", type=float, default=None, help="Rician factor")
    parser.add_argument("--p0", type=float, default=None)
    parser.add_argument("--d", type=float, default=None)
    parser.add_argument("--coherence", choices=("per_symbol", "per_frame"), default=None)
    parser.add_argument("--block-length", type=int, default=None, dest="block_length")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--decoder", choices=("log_map", "max_log_map"), default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="qtsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a curve sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--kind", choices=SWEEP_KINDS, default=None)
    p_sweep.add_argument("--snr-grid", dest="snr_grid_db", default=None,
                         help="comma list of Es/N0 points in dB "
                              "(write --snr-grid=-2,0 when the list starts negative)")
    p_sweep.add_argument("--p-eq", dest="p_eq_list", default=None,
                         help="comma list of channel error probabilities")
    p_sweep.add_argument("--use-shor", action="store_true", dest="use_shor")
    p_sweep.add_argument("--bypass-ber", type=float, default=None, dest="bypass_ber")
    p_sweep.add_argument("--axis-convention", choices=("total", "per_pauli"),
                         default=None, dest="axis_convention")

    p_qsdc = sub.add_parser("qsdc", help="run protocol sessions")
    _add_common(p_qsdc)
    p_qsdc.add_argument("-n", "--pairs", type=int, default=None, dest="n_pairs")
    p_qsdc.add_argument("-m", "--virtual", type=int, default=None, dest="m_virtual")
    p_qsdc.add_argument("--threshold", type=float, default=None)
    p_qsdc.add_argument("--sessions", type=int, default=None)
    p_qsdc.add_argument("--payload", type=int, default=None,
                        help="random payload qubits per session")
    p_qsdc.add_argument("--p-e", type=float, default=None, dest="p_eq",
                        help="channel depolarization probability")
    p_qsdc.add_argument("--snr-db", type=float, default=None, dest="snr_db")
    p_qsdc.add_argument("--trace", default=None,
                        help="write a per-pair trace file (runs sessions serially)")

    p_demo = sub.add_parser("teleport-demo", help="teleport a few qubits")
    _add_common(p_demo)
    p_demo.add_argument("--p-e", type=float, default=None, dest="p_eq")
    p_demo.add_argument("--snr-db", type=float, default=None, dest="snr_db")

    p_shor = sub.add_parser("shor-curve", help="decoded-error curve")
    _add_common(p_shor)
    p_shor.add_argument("--p-eq", dest="p_eq_list", default=None,
                        help="comma list of channel probabilities")
    p_shor.add_argument("--axis-convention", choices=("total", "per_pauli"),
                        default=None, dest="axis_convention")

    p_self = sub.add_parser("selftest", help="fast invariant suite")
    _add_common(p_self)
    return parser


def _get(args, name, cast, default):
    value = getattr(args, name, None)
    if value is None:
        return default
    return cast(value) if isinstance(value, str) else value


def _rician(args) -> RicianParams:
    return RicianParams(
        p0=_get(args, "p0", float, 1.0),
        d=_get(args, "d", float, 1.0),
        zeta=_get(args, "zeta", float, 10.0),
    )


def _turbo(args) -> TurboConfig:
    return TurboConfig(
        block_length=_get(args, "block_length", int, 1024),
        interleaver_seed=_get(args, "interleaver_seed", int, 1),
        iterations=_get(args, "iterations", int, 8),
        decoder=_get(args, "decoder", str, "log_map"),
    )


def _as_bool(value) -> bool:
    if isinstance(value, str):
        return value.lower() in ("1", "true", "yes", "on")
    return bool(value)


def _spec_from_args(args, kind: str, use_shor_default: bool = False) -> SweepSpec:
    default_trials = {"teleport_demo": 1000, "qsdc_batch": 1}.get(kind, 100_000)
    eve = parse_eve(args.eve) if getattr(args, "eve", None) else NO_EVE
    use_shor = _get(args, "use_shor", _as_bool, use_shor_default)
    if _get(args, "no_shor", _as_bool, False):
        use_shor = False
    return SweepSpec(
        sweep_kind=kind,
        snr_grid_db=_floats(args.snr_grid_db) if getattr(args, "snr_grid_db", None)
        else (_get(args, "snr_db", float, math.inf),),
        p_eq_list=_floats(args.p_eq_list) if getattr(args, "p_eq_list", None)
        else (_get(args, "p_eq", float, 0.0),),
        trials_per_point=_get(args, "trials", int, default_trials),
        seed=_get(args, "seed", int, 0),
        output_path=getattr(args, "out", None),
        threads=_get(args, "threads", int, int(os.environ.get("QTSIM_THREADS", "1"))),
        rician=_rician(args),
        turbo=_turbo(args),
        eve=eve,
        use_turbo=not _get(args, "no_turbo", _as_bool, False),
        use_shor=use_shor,
        coherence=_get(args, "coherence", str, "per_symbol"),
        classical_bypass_ber=_get(args, "bypass_ber", float, None),
        axis_convention=_get(args, "axis_convention", str, "total"),
        n_pairs=_get(args, "n_pairs", int, 16),
        m_virtual=_get(args, "m_virtual", int, 100),
        threshold=_get(args, "threshold", float, None),
        payload_per_session=_get(args, "payload", int, 0),
        timing=bool(getattr(args, "timing", False)),
    )


def _emit_sweep(spec: SweepSpec) -> int:
    """Run a curve sweep; print its CSV unless run_sweep wrote it to a file."""
    rows = run_sweep(spec)
    if not spec.output_path:
        sys.stdout.write(render_csv(spec, rows))
    else:
        print(f"wrote {len(rows)} rows to {spec.output_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    return _emit_sweep(_spec_from_args(args, _get(args, "kind", str, "qber_vs_snr")))


def _run_traced_sessions(spec: SweepSpec, trace_path: str) -> list[dict]:
    from .qsdc import resolve_threshold
    from .sweeps import _session_cfg, run_session_row

    cfg = _session_cfg(spec, spec.p_eq_list[0], spec.snr_grid_db[0])
    threshold = resolve_threshold(cfg)
    rows = []
    try:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("# session attempt kind pair bit_a bit_b ok\n")
            for sid in range(spec.trials_per_point):
                report, row = run_session_row(spec, cfg, sid, threshold, collect_trace=True)
                for attempt, kind, pos, b1, b2, ok in report.pair_trace:
                    fh.write(f"{sid} {attempt} {kind} {pos} {b1} {b2} {ok}\n")
                rows.append(row)
    except OSError as exc:
        raise SweepIOError(str(exc)) from exc
    return rows


def _cmd_qsdc(args) -> int:
    sessions = _get(args, "sessions", int, 1)
    spec = _spec_from_args(args, "qsdc_batch", use_shor_default=True)
    spec = dataclasses.replace(spec, trials_per_point=sessions)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        rows = _run_traced_sessions(spec, trace_path)
        if spec.output_path:
            write_csv(spec, rows)
    else:
        rows = run_sweep(spec)
    n_abort = sum(1 for r in rows if r["decision"] == "abort")
    mean_vq = float(np.mean([r["virtual_qber"] for r in rows]))
    for row in rows[: min(len(rows), 10)]:
        print(
            f"session {row['session_id']}: decision={row['decision']} "
            f"virtual_qber={row['virtual_qber']:.6g} threshold={row['threshold']:.6g}"
            + (f" payload_qber={row['payload_qber']:.6g}"
               if row["payload_qber"] not in (None, "") else "")
        )
    print(
        f"sessions={len(rows)} aborts={n_abort} accept_rate={1 - n_abort / len(rows):.4f} "
        f"mean_virtual_qber={mean_vq:.6g} eve={spec.eve.mode}"
    )
    if spec.output_path:
        print(f"wrote {len(rows)} rows to {spec.output_path}")
    return EXIT_OK


def _cmd_teleport_demo(args) -> int:
    from .qstate import random_state
    from .teleport import teleport_once

    trials = _get(args, "trials", int, 8)
    seed = _get(args, "seed", int, 0)
    p_eq = _get(args, "p_eq", float, 0.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE40)))
    depol = DepolarizingParams.from_total(p_eq)
    from .qchannel import sample_pauli

    print(f"teleporting {trials} random qubits (P_eq={p_eq}, seed={seed})")
    n_exact = 0
    for t in range(trials):
        psi = random_state(1, rng)
        result = teleport_once(psi, pauli_on_pair=sample_pauli(depol, rng), rng=rng)
        n_exact += not result.is_error
        print(
            f"  qubit {t}: outcome=({result.outcome.m1},{result.outcome.m2}) "
            f"fidelity={result.fidelity_to_input:.9f}"
        )
    print(f"exact reconstructions: {n_exact}/{trials}")
    return EXIT_OK


def _cmd_shor_curve(args) -> int:
    if getattr(args, "p_eq_list", None) is None:
        args.p_eq_list = "0.001,0.002,0.005,0.01,0.02,0.05,0.105,0.15,0.2"
    if getattr(args, "trials", None) is None:
        args.trials = 1_000_000
    return _emit_sweep(_spec_from_args(args, "shor_curve"))


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(verbose=True)
    if failures:
        print(f"SELFTEST FAILED: {failures} check(s)")
        return EXIT_SELFTEST
    print("selftest passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(args, load_config(args.config))
        handler = {
            "sweep": _cmd_sweep,
            "qsdc": _cmd_qsdc,
            "teleport-demo": _cmd_teleport_demo,
            "shor-curve": _cmd_shor_curve,
            "selftest": _cmd_selftest,
        }[args.command]
        return handler(args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SweepIOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
