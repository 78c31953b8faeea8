"""Sweep engine and CLI: schemas, determinism, audits, exit codes."""
import csv
import dataclasses
import io
import math
import os
import pathlib
import shlex

import numpy as np
import pytest

from qtsim.cli import build_parser, main, parse_eve
from qtsim.metrics import wilson_interval
from qtsim.qchannel import DepolarizingParams, EveModel
from qtsim.qstate import PauliError, StateVector, basis_state, fidelity
from qtsim.sweeps import (
    SESSION_COLUMNS,
    SWEEP_COLUMNS,
    SweepSpec,
    _teleport_tables,
    render_csv,
    run_sweep,
)
from qtsim.teleport import DEFAULT_TEST_STATE, BellOutcome, receiver_correct, teleport_once


def _parse(text: str):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# batched kernel is pinned to the protocol modules
# ---------------------------------------------------------------------------

def test_teleport_tables_match_protocol_path():
    """Every (pair error, outcome, received) combination agrees exactly.

    The batched kernel's final state is C[received] @ (collapsed residual);
    teleport_once with a scripted outcome must produce the same fidelity.
    """
    pair_stack, sender, corrections = _teleport_tables()
    psi = DEFAULT_TEST_STATE
    for flags, pauli in [((0, 0), PauliError.I), ((1, 0), PauliError.X),
                         ((0, 1), PauliError.Z), ((1, 1), PauliError.Y)]:
        pair_idx = flags[0] + 2 * flags[1]
        joint = np.kron(psi.amplitudes, pair_stack[pair_idx])
        amps = (sender @ joint).reshape(4, 2)
        probs = (np.abs(amps) ** 2).sum(axis=1)
        assert np.allclose(probs, 0.25, atol=1e-12)
        for outcome in range(4):
            residual = amps[outcome] / np.sqrt(probs[outcome])
            for received in range(4):
                final = corrections[received] @ residual
                fid_fast = abs(np.vdot(psi.amplitudes, final)) ** 2

                class _Force:
                    def __init__(self, m1, m2):
                        self._bits = [m1, m2]

                    def random(self):
                        return 0.1 if self._bits.pop(0) else 0.9

                error = (outcome >> 1) ^ (received >> 1), (outcome & 1) ^ (received & 1)
                result = teleport_once(
                    psi, classical_error=error, pauli_on_pair=pauli,
                    rng=_Force(outcome >> 1, outcome & 1),
                )
                assert (result.outcome.m1, result.outcome.m2) == (outcome >> 1, outcome & 1)
                assert result.fidelity_to_input == pytest.approx(
                    min(1.0, fid_fast), abs=1e-12
                )


def test_fast_and_slow_qber_paths_agree_statistically():
    # same physical point through the batched kernel and teleport_once
    p_eq = 0.08
    spec = SweepSpec(
        sweep_kind="qber_vs_snr", snr_grid_db=(math.inf,), p_eq_list=(p_eq,),
        trials_per_point=40_000, seed=3,
    )
    rows = run_sweep(spec)
    fast_rate = rows[0]["qber"]
    rng = np.random.default_rng(99)
    from qtsim.qchannel import sample_pauli

    params = DepolarizingParams.from_total(p_eq)
    n = 20_000
    slow_errors = sum(
        teleport_once(DEFAULT_TEST_STATE, pauli_on_pair=sample_pauli(params, rng),
                      rng=rng).is_error
        for _ in range(n)
    )
    slow_rate = slow_errors / n
    sigma = math.sqrt(p_eq * (1 - p_eq) * (1 / n + 1 / 40_000))
    assert abs(fast_rate - slow_rate) < 4 * sigma


# ---------------------------------------------------------------------------
# sweep rows and CSV
# ---------------------------------------------------------------------------

def test_qber_sweep_row_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(
        sweep_kind="qber_vs_snr", snr_grid_db=(math.inf,), p_eq_list=(0.01, 0.0),
        trials_per_point=5000, seed=4, output_path=str(out),
    )
    rows = run_sweep(spec)
    assert len(rows) == 2
    text = out.read_text()
    parsed = _parse(text)
    assert list(parsed[0].keys()) == SWEEP_COLUMNS
    assert parsed[0]["sweep_kind"] == "qber_vs_snr"
    assert float(parsed[0]["qber"]) == pytest.approx(rows[0]["qber"])
    assert text.startswith("# qtsim")
    # provenance header records the config
    assert "# seed=4" in text


def test_error_floor_visible_in_sweep():
    spec = SweepSpec(
        sweep_kind="qber_vs_snr", snr_grid_db=(12.0,), p_eq_list=(0.01,),
        trials_per_point=20_000, seed=5,
    )
    row = run_sweep(spec)[0]
    lo, hi = wilson_interval(round(row["qber"] * 20_000), 20_000)
    assert lo <= 0.01 * 1.3 and hi >= 0.01 * 0.7


def test_eq17_bound_auditable_on_rows():
    # qber <= 2*ber + p_eq + 4*sigma for every emitted row
    spec = SweepSpec(
        sweep_kind="qber_vs_snr", snr_grid_db=(2.0, 6.0), p_eq_list=(0.0, 0.01),
        trials_per_point=20_000, seed=6, use_turbo=False,
    )
    for row in run_sweep(spec):
        n_q = row["trials"]
        sigma = math.sqrt(
            row["qber"] * (1 - row["qber"]) / n_q
            + 4 * row["ber"] * (1 - row["ber"]) / (2 * n_q)
        )
        assert row["qber"] <= 2 * row["ber"] + row["p_eq"] + 4 * sigma + 1e-12


def test_classical_sweep_has_both_variants():
    spec = SweepSpec(
        sweep_kind="classical_ber", snr_grid_db=(4.0,), p_eq_list=(0.0,),
        trials_per_point=20_000, seed=7,
    )
    rows = run_sweep(spec)
    variants = {row["variant"] for row in rows}
    assert variants == {"uncoded", "turbo"}


def test_shor_curve_row_matches_exact_oracle():
    from qtsim.shor import exact_logical_rate

    spec = SweepSpec(
        sweep_kind="shor_curve", p_eq_list=(0.105,), trials_per_point=200_000, seed=8,
    )
    row = run_sweep(spec)[0]
    exact = exact_logical_rate(DepolarizingParams.from_total(0.105))
    assert row["p_shor_exact"] == pytest.approx(exact)
    sigma = math.sqrt(exact * (1 - exact) / 200_000)
    assert abs(row["p_shor"] - exact) < 4 * sigma


def test_qsdc_batch_schema():
    spec = SweepSpec(
        sweep_kind="qsdc_batch", p_eq_list=(0.0,), trials_per_point=3, seed=9,
        n_pairs=2, m_virtual=20, use_shor=True,
    )
    rows = run_sweep(spec)
    assert len(rows) == 3
    text = render_csv(spec, rows)
    parsed = _parse(text)
    assert list(parsed[0].keys()) == SESSION_COLUMNS
    assert all(r["decision"] == "accept" for r in parsed)


def test_point_failure_is_recorded_not_raised(monkeypatch):
    import qtsim.sweeps as sweeps_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic point failure")

    monkeypatch.setattr(sweeps_mod, "_classical_point", boom)
    spec = SweepSpec(
        sweep_kind="classical_ber", snr_grid_db=(1.0, 2.0), p_eq_list=(0.0,),
        trials_per_point=2000, seed=10,
    )
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert all("synthetic point failure" in row["error"] for row in rows)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(sweep_kind="nonsense")
    with pytest.raises(ValueError):
        SweepSpec(sweep_kind="qber_vs_snr", trials_per_point=10)
    with pytest.raises(ValueError):
        SweepSpec(sweep_kind="qber_vs_snr", snr_grid_db=())


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_sweep_bytes_identical_across_runs_and_threads(tmp_path):
    texts = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        spec = SweepSpec(
            sweep_kind="qber_vs_snr", snr_grid_db=(6.0,), p_eq_list=(0.02,),
            trials_per_point=150_000, seed=11, threads=threads,
            output_path=str(out), use_turbo=False,
        )
        run_sweep(spec)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_unknown_flag_exits_1(capsys):
    assert main(["sweep", "--bogus-flag"]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_no_command_exits_1(capsys):
    assert main([]) == 1


def test_cli_bad_eve_value_exits_1(capsys):
    assert main(["qsdc", "--eve", "mitm"]) == 1


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main([
        "sweep", "--kind", "teleport_demo", "--trials", "50",
        "--out", str(missing),
    ])
    assert code == 2


def test_cli_qsdc_trace_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main([
        "qsdc", "-n", "2", "-m", "20", "--trace", str(tmp_path / "trace.txt"),
        "--out", str(missing),
    ])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_readme_cli_commands_parse():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("qtsim ")
    ]
    assert len(commands) >= 6
    for argv in commands:
        build_parser().parse_args(argv[1:])  # a bad flag raises CliConfigError


def test_session_timing_fills_wall_ms(tmp_path):
    spec = SweepSpec(
        sweep_kind="qsdc_batch", p_eq_list=(0.005,), trials_per_point=3, seed=12,
        n_pairs=2, m_virtual=20, use_shor=True,
    )
    untimed = run_sweep(spec)
    timed = run_sweep(dataclasses.replace(spec, timing=True))
    assert [row["wall_ms"] for row in untimed] == [0, 0, 0]
    assert all(row["wall_ms"] > 0 for row in timed)
    assert [{**row, "wall_ms": 0} for row in timed] == untimed

    out = tmp_path / "sessions.csv"
    assert main([
        "qsdc", "--sessions", "2", "-n", "2", "-m", "20", "--timing",
        "--trace", str(tmp_path / "trace.txt"), "--out", str(out),
    ]) == 0
    assert all(float(row["wall_ms"]) > 0 for row in _parse(out.read_text()))


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code = main([
        "sweep", "--kind", "teleport_demo", "--trials", "200", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    rows = _parse(out.read_text())
    assert rows[0]["sweep_kind"] == "teleport_demo"


def test_cli_seed_repeatability(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main([
            "sweep", "--kind", "teleport_demo", "--trials", "500",
            "--seed", "7", "--out", str(p),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_qsdc_swap_attack_aborts(capsys):
    code = main(["qsdc", "--eve", "swap:1.0", "-m", "100", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "decision=abort" in out


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\ntrials=200\nkind=teleport_demo  # comment\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert "# seed=5" in text


def test_cli_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quantum=yes\n")
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_parse_eve_forms():
    assert parse_eve("none").mode == "none"
    swap = parse_eve("swap:0.5")
    assert swap.mode == "swap" and swap.intercept_fraction == 0.5
    boost = parse_eve("boost:0.2")
    assert boost.mode == "depolarize_boost" and boost.delta_pe == 0.2


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    assert "selftest passed" in capsys.readouterr().out


def test_cli_teleport_demo(capsys):
    assert main(["teleport-demo", "--trials", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "fidelity=" in out


def test_env_var_sets_default_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("QTSIM_THREADS", "2")
    out = tmp_path / "env.csv"
    assert main([
        "sweep", "--kind", "teleport_demo", "--trials", "100", "--out", str(out),
    ]) == 0
    assert out.exists()
