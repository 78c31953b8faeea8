"""CSV-to-figure renderer: series per curve, dropped error rows, exit codes."""
import dataclasses
import sys

import pytest

import qtsim.sweeps as sweeps_mod
from qtsim.cli import main as cli_main
from qtsim.plotting import main, plot_file
from qtsim.sweeps import SweepSpec, run_sweep
from qtsim.turbo import TurboConfig


class _Axes:
    """Matplotlib axes stand-in that records every call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))

    def series(self, method):
        """The x values of each ``method`` series, by label."""
        return {kw["label"]: list(args[0]) for name, args, kw in self.calls if name == method}


_REAL_RNG_FOR = sweeps_mod._rng_for


def _second_point_fails(spec, *key):
    """_rng_for whose chunks of the second SNR (or P_eq, for shor_curve) raise."""
    if key[0] == 1:
        raise RuntimeError("synthetic chunk failure")
    return _REAL_RNG_FOR(spec, *key)


_GRID = (0.0, 3.0, 6.0)  # the 3 dB points fail
_PLOTS = [
    (SweepSpec("classical_ber", snr_grid_db=_GRID, trials_per_point=1000,
               turbo=TurboConfig(block_length=64, iterations=1)),
     "semilogy", {"uncoded QPSK": [0.0, 6.0], "turbo QPSK": [0.0, 6.0]}),
    (SweepSpec("qber_vs_snr", snr_grid_db=_GRID, p_eq_list=(0.0, 0.1), trials_per_point=1000,
               use_turbo=False),
     "semilogy", {"P_eq = 0": [0.0, 6.0], "P_eq = 0.1": [0.0, 6.0]}),
    (SweepSpec("shor_curve", p_eq_list=(0.01, 0.02, 0.05), trials_per_point=1000),
     "loglog", dict.fromkeys(
         ["decoded (Monte Carlo)", "decoded (exact)", "unencoded"], [0.01, 0.05])),
]


@pytest.mark.parametrize("spec,method,series", _PLOTS, ids=[s.sweep_kind for s, _, _ in _PLOTS])
def test_plot_file_draws_one_series_per_curve_without_error_rows(
        monkeypatch, tmp_path, spec, method, series):
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sweeps_mod, "_rng_for", _second_point_fails)
    run_sweep(dataclasses.replace(spec, output_path=str(out)))
    assert "RuntimeError: synthetic chunk failure" in out.read_text()
    ax = _Axes()
    plot_file(str(out), ax)
    assert ax.series(method) == series
    assert ("set_title", (spec.sweep_kind,), {}) in ax.calls


def test_main_reads_every_csv_before_matplotlib(monkeypatch, tmp_path, capsys):
    for name in ("matplotlib", "matplotlib.pyplot"):  # an import of it raises ImportError
        monkeypatch.setitem(sys.modules, name, None)
    good = tmp_path / "shor.csv"
    run_sweep(SweepSpec("shor_curve", p_eq_list=(0.01,), trials_per_point=1000,
                        output_path=str(good)))
    assert main([str(good)]) == 1
    assert "matplotlib is required" in capsys.readouterr().err

    assert main([str(good), str(tmp_path / "missing.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err

    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\n1,2\n")
    assert main([str(good), str(plain)]) == 1
    err = capsys.readouterr().err
    assert "no sweep_kind column" in err and "Traceback" not in err


def test_main_refuses_a_session_csv(monkeypatch, tmp_path, capsys):
    for name in ("matplotlib", "matplotlib.pyplot"):
        monkeypatch.setitem(sys.modules, name, None)
    sessions = tmp_path / "sessions.csv"
    assert cli_main(["qsdc", "--sessions", "2", "--out", str(sessions)]) == 0
    capsys.readouterr()
    assert main([str(sessions)]) == 1
    err = capsys.readouterr().err
    assert "cannot plot sweep_kind qsdc_batch" in err and "shor_curve" in err
    assert "matplotlib" not in err and "Traceback" not in err


def test_main_refuses_a_teleport_demo_csv(monkeypatch, tmp_path, capsys):
    # qber_vs_snr is the one kind of the teleport curve; the old alias is undrawable
    for name in ("matplotlib", "matplotlib.pyplot"):
        monkeypatch.setitem(sys.modules, name, None)
    qber = tmp_path / "qber.csv"
    run_sweep(SweepSpec("qber_vs_snr", p_eq_list=(0.1,), trials_per_point=1000,
                        output_path=str(qber)))
    old = tmp_path / "teleport_demo.csv"
    old.write_text(qber.read_text().replace("qber_vs_snr", "teleport_demo"))
    assert main([str(old)]) == 1
    err = capsys.readouterr().err
    assert "cannot plot sweep_kind teleport_demo" in err and "matplotlib" not in err
