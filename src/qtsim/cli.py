"""Command-line experiment driver.

Subcommands:

  sweep          run a link or teleport curve sweep (classical_ber /
                 qber_vs_snr) and emit CSV
  qsdc           run protocol sessions (sweep kind qsdc_batch) and print a
                 summary report
  teleport-demo  teleport a handful of qubits and print fidelities (through
                 the Pauli-frame kernel, as sessions and sweeps teleport)
  shor-curve     decoded-error curve (sweep kind shor_curve) over a
                 channel-probability grid
  selftest       fast invariant suite (exits 3 on failure)

Each sweep kind runs through exactly one subcommand, whose count flag takes
its default from ``sweeps.SWEEP_KIND_READS``.  Each subcommand declares only
the flags it reads; argparse types, defaults and validates every one.
``--config`` points at a key=value file whose keys are the ``dest`` names of
the subcommand's flags.  Its lines are parsed as ``--flag=value`` tokens
placed in front of the command line, so command-line flags win;
QTSIM_THREADS is a ``--threads`` token in front of those.

Exit codes: 0 success, 1 configuration error, 2 I/O error (an output or
trace path that cannot be written, a --config file that cannot be read),
3 selftest failure.  Only ``selftest`` runs the state-vector circuits, as
oracles.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .cchannel import COHERENCE_MODES, RicianParams
from .qchannel import DepolarizingParams, EveModel, NO_EVE, sample_pauli_flags
from .shor import AXIS_CONVENTIONS
from .sweeps import SWEEP_KIND_READS, SweepSpec, render_csv, run_sweep
from .teleport import is_inexact, teleport_fidelity
from .turbo import TurboConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_SELFTEST = 3

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")
_CONFIG_HELP = "key=value file of flag values, keyed by flag dest names"
# the kinds of ``sweep``; shor_curve runs through shor-curve, qsdc_batch through qsdc
_SWEEP_COMMAND_KINDS = ("classical_ber", "qber_vs_snr")
_P_E_HELP = ("total channel error probability P_eq per qubit "
             "(X, Z and Y each with P_eq/3), not the per-Pauli p_e")


class CliConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we need exit 1
        raise CliConfigError(message)


def parse_eve(text: str) -> EveModel:
    """Parse --eve values: none | swap:<fraction> | boost:<delta>.

    A bad value raises ArgumentTypeError, so argparse prints its reason.
    """
    if text == "none":
        return NO_EVE
    kind, _, value = text.partition(":")
    try:
        if kind == "swap":
            return EveModel(mode="swap", intercept_fraction=float(value or 1.0))
        if kind == "boost":
            return EveModel(mode="depolarize_boost", delta_pe=float(value or 0.10))
    except ValueError as exc:  # a non-number, or a value EveModel refuses
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"bad --eve value {text!r} (none | swap:frac | boost:delta)")


def load_config(path: str) -> dict[str, str]:
    """Line-oriented key=value config; '#' starts a comment; a key appears once.

    A file that cannot be read raises OSError, which ``main`` reports as an
    I/O error.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliConfigError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in first_line:
                    raise CliConfigError(
                        f"{path}:{lineno}: {key!r} already set on line {first_line[key]}"
                    )
                first_line[key] = lineno
                values[key] = value
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    return values


def _floats(text: str) -> tuple[float, ...]:
    """A comma (or semicolon) list of floats; an empty element is an error."""
    tokens = text.replace(";", ",").split(",")
    if not all(tok.strip() for tok in tokens):
        raise argparse.ArgumentTypeError(f"empty element in list {text!r}")
    return tuple(float(tok) for tok in tokens)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of every subcommand that runs a SweepSpec."""
    parser.add_argument("--config", help=_CONFIG_HELP)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--threads", type=int, default=1,
                        help="most worker processes, never more than chunk tasks or the CPUs "
                             "this process may run on, its affinity mask where it has one "
                             "(default: QTSIM_THREADS, else 1)")
    parser.add_argument("--timing", action="store_true",
                        help="record run ms per point or session (breaks byte-stable output)")


def _add_link_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the classical link."""
    parser.add_argument("--no-turbo", action="store_true")
    parser.add_argument("--zeta", type=float, default=10.0, help="Rician factor")
    parser.add_argument("--p0", type=float, default=1.0)
    parser.add_argument("--d", type=float, default=1.0)
    parser.add_argument("--block-length", type=int, default=1024)
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--decoder", choices=("log_map", "max_log_map"), default="log_map")


def _add_bypass_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bypass-ber", type=float, default=None,
                        help="i.i.d. bit flips of this probability in place of the link")


def build_parser() -> _Parser:
    parser = _Parser(prog="qtsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_sweep = sub.add_parser("sweep", help="run a link or teleport curve sweep")
    _add_run_flags(p_sweep)
    _add_link_flags(p_sweep)
    p_sweep.add_argument("--kind", choices=_SWEEP_COMMAND_KINDS, default="qber_vs_snr")
    p_sweep.add_argument("--trials", type=_positive_int, default=None,
                         help="per point, >= 1000 (default: 100000)")
    p_sweep.add_argument("--snr-grid", dest="snr_grid_db", type=_floats, default=(math.inf,),
                         help="comma list of Es/N0 points in dB "
                              "(write --snr-grid=-2,0 when the list starts negative)")
    p_sweep.add_argument("--p-eq", dest="p_eq_list", type=_floats, default=(0.0,),
                         help="comma list of total channel error probabilities P_eq")
    p_sweep.add_argument("--use-shor", action="store_true")
    p_sweep.add_argument("--coherence", choices=COHERENCE_MODES, default="per_symbol")
    _add_bypass_flag(p_sweep)

    p_qsdc = sub.add_parser("qsdc", help="run protocol sessions")
    _add_run_flags(p_qsdc)
    _add_link_flags(p_qsdc)
    p_qsdc.add_argument("--eve", type=parse_eve, default=NO_EVE,
                        help="none | swap:frac | boost:delta")
    p_qsdc.add_argument("--no-shor", action="store_true")
    _add_bypass_flag(p_qsdc)
    p_qsdc.add_argument("-n", "--pairs", type=int, default=16, dest="n_pairs")
    p_qsdc.add_argument("-m", "--virtual", type=int, default=100, dest="m_virtual")
    p_qsdc.add_argument("--threshold", type=float, default=None)
    p_qsdc.add_argument("--sessions", type=_positive_int,
                        default=SWEEP_KIND_READS["qsdc_batch"].trials)
    p_qsdc.add_argument("--payload", type=int, default=0,
                        help="random payload qubits per session")
    p_qsdc.add_argument("--p-e", type=float, default=0.0, dest="p_eq", help=_P_E_HELP)
    p_qsdc.add_argument("--snr-db", type=float, default=math.inf)
    p_qsdc.add_argument("--trace", default=None, help="write a per-pair trace file")

    p_demo = sub.add_parser("teleport-demo", help="teleport a few qubits")
    p_demo.add_argument("--config", help=_CONFIG_HELP)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--trials", type=_positive_int, default=8)
    p_demo.add_argument("--p-e", type=float, default=0.0, dest="p_eq", help=_P_E_HELP)

    p_shor = sub.add_parser("shor-curve", help="decoded-error curve")
    _add_run_flags(p_shor)
    p_shor.add_argument("--trials", type=_positive_int,
                        default=SWEEP_KIND_READS["shor_curve"].trials)
    p_shor.add_argument("--p-eq", dest="p_eq_list", type=_floats,
                        default=(0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.105, 0.15, 0.2),
                        help="comma list of channel error probabilities")
    p_shor.add_argument("--axis-convention", choices=AXIS_CONVENTIONS, default="total",
                        help="reading of --p-eq: total P_eq or per-Pauli p_e")

    sub.add_parser("selftest", help="fast invariant suite")
    return parser


def _flag_tokens(parser: argparse.ArgumentParser, values: dict[str, str]) -> list[str]:
    """``--flag=value`` tokens for ``dest=value`` pairs of ``parser``'s flags.

    A store_true flag takes a boolean value and gives its bare flag if true.
    """
    flags = {
        action.dest: action for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    tokens = []
    for key, value in values.items():
        action = flags.get(key)
        if action is None:
            raise CliConfigError(
                f"{parser.prog} reads no {key!r}; its keys are {', '.join(sorted(flags))}"
            )
        flag = action.option_strings[-1]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() in _TRUE:
            tokens.append(flag)
        elif value.lower() not in _FALSE:
            raise CliConfigError(f"{key}={value}: expected true/false, 1/0, yes/no or on/off")
    return tokens


def parse_command(parser: _Parser, argv=None) -> argparse.Namespace:
    """Parse argv, with QTSIM_THREADS and then --config read as flags in front of it.

    An ``--out`` or ``--trace`` that names the ``--config`` file is refused,
    before anything is written, as the run would replace the config.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    values, sources = {}, []
    if "QTSIM_THREADS" in os.environ and hasattr(args, "threads"):
        values["threads"] = os.environ["QTSIM_THREADS"]
        sources.append("QTSIM_THREADS")
    config = getattr(args, "config", None)
    if config is not None:
        values.update(load_config(config))
        sources.append(config)
    if not values:
        return args
    tokens = _flag_tokens(parser.commands[args.command], values)
    try:  # argv alone parsed, so a failure comes from the tokens
        args = parser.parse_args(argv[:1] + tokens + argv[1:])
    except CliConfigError as exc:
        raise CliConfigError(f"{exc} (read from {' and '.join(sources)})") from exc
    for flag in ("out", "trace"):
        path = getattr(args, flag, None)
        if config and path and os.path.realpath(path) == os.path.realpath(config):
            raise CliConfigError(f"--{flag} {path} would overwrite the --config file {config}")
    return args


def _run_fields(args) -> dict:
    return dict(seed=args.seed, output_path=args.out, threads=args.threads, timing=args.timing)


def _link_fields(args) -> dict:
    return dict(
        rician=RicianParams(p0=args.p0, d=args.d, zeta=args.zeta),
        turbo=TurboConfig(
            block_length=args.block_length, iterations=args.iterations, decoder=args.decoder,
        ),
        use_turbo=not args.no_turbo,
    )


def _sweep_spec(args) -> SweepSpec:
    """The SweepSpec of a parsed ``sweep``, ``qsdc`` or ``shor-curve`` command."""
    if args.command == "sweep":
        trials = SWEEP_KIND_READS[args.kind].trials if args.trials is None else args.trials
        return SweepSpec(
            args.kind, snr_grid_db=args.snr_grid_db, p_eq_list=args.p_eq_list,
            trials_per_point=trials, use_shor=args.use_shor,
            classical_bypass_ber=args.bypass_ber, coherence=args.coherence,
            **_run_fields(args), **_link_fields(args),
        )
    if args.command == "qsdc":
        return SweepSpec(
            "qsdc_batch", snr_grid_db=(args.snr_db,), p_eq_list=(args.p_eq,),
            trials_per_point=args.sessions, use_shor=not args.no_shor, eve=args.eve,
            classical_bypass_ber=args.bypass_ber, n_pairs=args.n_pairs,
            m_virtual=args.m_virtual, threshold=args.threshold,
            payload_per_session=args.payload, **_run_fields(args), **_link_fields(args),
        )
    return SweepSpec(
        "shor_curve", p_eq_list=args.p_eq_list, trials_per_point=args.trials,
        axis_convention=args.axis_convention, **_run_fields(args),
    )


def _cmd_sweep(args) -> int:
    """Run a curve sweep; print its CSV unless run_sweep wrote it to a file."""
    spec = _sweep_spec(args)
    rows = run_sweep(spec)
    if spec.output_path is None:
        sys.stdout.write(render_csv(spec, rows))
    else:
        print(f"wrote {len(rows)} rows to {spec.output_path}")
    return EXIT_OK


def _cmd_qsdc(args) -> int:
    spec = _sweep_spec(args)
    rows = run_sweep(spec, trace_path=args.trace)
    done = [r for r in rows if not r["error"]]
    n_failed = len(rows) - len(done)
    n_abort = sum(1 for r in done if r["decision"] == "abort")
    mean_vq = float(np.mean([r["virtual_qber"] for r in done])) if done else math.nan
    for row in rows[: min(len(rows), 10)]:
        if row["error"]:
            print(f"session {row['session_id']}: error={row['error']}")
            continue
        print(
            f"session {row['session_id']}: decision={row['decision']} "
            f"virtual_qber={row['virtual_qber']:.6g} threshold={row['threshold']:.6g}"
            + (f" payload_qber={row['payload_qber']:.6g}"
               if row["payload_qber"] not in (None, "") else "")
        )
    print(
        f"sessions={len(rows)} aborts={n_abort} "
        f"accept_rate={1 - (n_abort + n_failed) / len(rows):.4f} "
        f"mean_virtual_qber={mean_vq:.6g} eve={spec.eve.mode}"
        + (f" failed={n_failed}" if n_failed else "")
    )
    if spec.output_path is not None:
        print(f"wrote {len(rows)} rows to {spec.output_path}")
    return EXIT_OK


def _cmd_teleport_demo(args) -> int:
    """Teleport Haar-random qubits over depolarized pairs, with no classical link.

    One frame-kernel call gives every fidelity: the pairs' Pauli frames and
    the sender's uniform (m1, m2) outcomes are drawn as flags and bits, and
    the bits arrive as sent.
    """
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xDE40)))
    depol = DepolarizingParams.from_total(args.p_eq)
    n = args.trials
    amplitudes = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
    pair_x, pair_z = sample_pauli_flags(depol, rng, n)
    sent = rng.integers(0, 2, size=2 * n, dtype=np.int8)
    fidelities = teleport_fidelity(amplitudes, pair_x, pair_z, sent, sent)
    print(f"teleporting {n} random qubits (P_eq={args.p_eq}, seed={args.seed})")
    for t, ((m1, m2), fid) in enumerate(zip(sent.reshape(n, 2).tolist(), fidelities.tolist())):
        print(f"  qubit {t}: outcome=({m1},{m2}) fidelity={fid:.9f}")
    print(f"exact reconstructions: {np.count_nonzero(~is_inexact(fidelities))}/{n}")
    return EXIT_OK


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
        args = parse_command(parser, argv)
        handler = {
            "sweep": _cmd_sweep,
            "qsdc": _cmd_qsdc,
            "teleport-demo": _cmd_teleport_demo,
            "shor-curve": _cmd_sweep,
            "selftest": _cmd_selftest,
        }[args.command]
        return handler(args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # SweepIOError, or an unreadable --config
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
