"""Sweep engine and CLI: schemas, determinism, audits, exit codes."""
import csv
import dataclasses
import itertools
import math
import multiprocessing
import os
import pathlib
import shlex
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtsim.qsdc as qsdc_mod
import qtsim.sweeps as sweeps_mod
import qtsim.teleport as teleport_mod
from qtsim.cli import _sweep_spec, build_parser, main, parse_command, parse_eve
from qtsim.metrics import wilson_interval
from qtsim.qchannel import DepolarizingParams
from qtsim.sweeps import (
    SESSION_COLUMNS,
    SWEEP_COLUMNS,
    SWEEP_KINDS,
    SweepSpec,
    render_csv,
    run_sweep,
)
from qtsim.teleport import DEFAULT_TEST_STATE, PAULI_FROM_FLAGS, teleport_once
from qtsim.turbo import TurboConfig


def _parse(text: str):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# batched kernel is pinned to the protocol modules
# ---------------------------------------------------------------------------

def test_teleport_batch_matches_protocol_path(monkeypatch):
    """Every (pair frame, classical error) combination agrees with teleport_once.

    The kernel's link is replaced by one that flips the chosen bits of every
    trial; teleport_once runs under each of the four sender outcomes.
    """
    class _Force:
        def __init__(self, m1, m2):
            self._bits = [m1, m2]

        def random(self):
            return 0.1 if self._bits.pop(0) else 0.9

    n = 64
    for (x, z), pauli in PAULI_FROM_FLAGS.items():
        for error in itertools.product((0, 1), repeat=2):
            sent = []

            def flip(bits, rng, error=error, **link):
                sent.append(bits.copy())
                return bits ^ np.tile(np.array(error, dtype=np.int8), n)

            monkeypatch.setattr(teleport_mod, "send_bits", flip)
            sent_bits, received, wrong = teleport_mod.teleport_frames(
                DEFAULT_TEST_STATE.amplitudes, np.full(n, bool(x)), np.full(n, bool(z)),
                np.random.default_rng(1),
            )
            counts = (int(wrong.sum()), wrong.size, int((sent_bits != received).sum()),
                      sent_bits.size)
            verdicts = {
                teleport_once(DEFAULT_TEST_STATE, classical_error=error,
                              pauli_on_pair=pauli, rng=_Force(m1, m2)).is_error
                for m1 in (0, 1) for m2 in (0, 1)
            }
            assert len(verdicts) == 1  # the verdict does not depend on the outcome
            assert counts == (n * verdicts.pop(), n, n * sum(error), 2 * n)
            outcomes = 2 * sent[0][0::2] + sent[0][1::2]
            assert set(outcomes.tolist()) == {0, 1, 2, 3}


def test_sessions_and_teleport_sweeps_teleport_through_one_kernel(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("teleport kernel")

    for module in (teleport_mod, sweeps_mod, qsdc_mod):
        monkeypatch.setattr(module, "teleport_frames", broken)
    point = SweepSpec("qber_vs_snr", p_eq_list=(0.05,), trials_per_point=1000)
    assert run_sweep(point)[0]["error"] == "RuntimeError: teleport kernel"
    sessions = SweepSpec("qsdc_batch", trials_per_point=2, n_pairs=4, m_virtual=20,
                         payload_per_session=2)
    assert [row["error"] for row in run_sweep(sessions)] == ["RuntimeError: teleport kernel"] * 2


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


def test_classical_ber_bytes_identical_across_threads():
    # one uncoded and three coded chunks, which share one pool at threads=2
    texts = []
    for threads in (1, 2):
        spec = SweepSpec(
            sweep_kind="classical_ber", snr_grid_db=(0.0,), p_eq_list=(0.0,),
            trials_per_point=20_000, seed=12, threads=threads,
            turbo=TurboConfig(block_length=64, iterations=2),
        )
        texts.append(render_csv(spec, run_sweep(spec)))
    assert texts[0] == texts[1]
    uncoded, coded = _parse(texts[0])
    assert (uncoded["variant"], coded["variant"]) == ("uncoded", "turbo")


_SNRS = st.lists(st.sampled_from([-1.0, 0.0, 3.0, math.inf]), min_size=1, max_size=2)
_P_EQS = st.lists(st.sampled_from([0.0, 0.02, 0.1]), min_size=1, max_size=2)


def _fields(*parts, **strategies):
    """SweepSpec field dicts: a draw of each dict strategy in ``parts`` and of ``strategies``."""
    return st.tuples(st.fixed_dictionaries(strategies), *parts).map(
        lambda dicts: {name: value for d in dicts for name, value in d.items()})


# The link fields; without use_turbo the turbo code is unread, so it keeps its default.
_LINK = _fields(
    st.one_of(
        st.fixed_dictionaries({"turbo": st.builds(
            TurboConfig, block_length=st.integers(40, 96), iterations=st.integers(1, 3),
            decoder=st.sampled_from(["log_map", "max_log_map"]))}),
        st.just({"use_turbo": False}),
    ),
    rician=st.builds(sweeps_mod.RicianParams, zeta=st.sampled_from([0.0, 10.0])),
)
_COHERENCE = st.sampled_from(["per_symbol", "per_frame"])
# A teleport's bits cross the link over an SNR grid, or take i.i.d. flips in
# its place, which leave every link field unread.
_TELEPORT = _fields(
    st.one_of(_fields(_LINK, snr_grid_db=_SNRS, coherence=_COHERENCE),
              st.just({"classical_bypass_ber": 0.05})),
    p_eq_list=_P_EQS, use_shor=st.booleans(), trials_per_point=st.integers(1000, 3000),
)
_N_PAIRS = st.shared(st.integers(0, 6), key="n_pairs")  # a payload fits in the pairs
# Small specs of every kind, with the fields that kind reads.
_SMALL_SPECS = {
    "classical_ber": _fields(
        _LINK, snr_grid_db=_SNRS, coherence=_COHERENCE,
        trials_per_point=st.integers(1000, 3000),
    ),
    "qber_vs_snr": _TELEPORT,
    "shor_curve": _fields(
        p_eq_list=_P_EQS, axis_convention=st.sampled_from(["total", "per_pauli"]),
        trials_per_point=st.integers(1000, 5000),
    ),
    "qsdc_batch": _fields(
        _LINK, snr_grid_db=_SNRS.map(lambda s: s[:1]),
        p_eq_list=_P_EQS.map(lambda p: p[:1]),
        use_shor=st.booleans(), trials_per_point=st.integers(1, 12),
        eve=st.sampled_from(["none", "swap:0.3", "boost:0.1"]).map(parse_eve),
        n_pairs=_N_PAIRS, m_virtual=st.integers(20, 40),
        threshold=st.sampled_from([None, 0.5]),
        payload_per_session=_N_PAIRS.flatmap(lambda n: st.integers(0, n)),
    ),
}


@pytest.mark.parametrize("kind", sorted(_SMALL_SPECS))
def test_small_specs_are_bytes_identical_across_threads(kind, monkeypatch):
    assert set(_SMALL_SPECS) == set(SWEEP_KINDS)
    # Small chunks, so that even small specs run several chunks on the pool.
    for name, size in [("UNCODED_CHUNK_BITS", 1024), ("CODED_CHUNK_BLOCKS", 16),
                       ("QBER_CHUNK_TRIALS", 1024), ("SHOR_CHUNK_TRIALS", 2048),
                       ("SESSION_CHUNK", 3)]:
        monkeypatch.setattr(sweeps_mod, name, size)

    @settings(max_examples=6, deadline=None)  # each example starts pools
    @given(_SMALL_SPECS[kind], st.integers(0, 2**16))
    def check(values, seed):
        spec = SweepSpec(kind, seed=seed, **values)
        texts = [
            render_csv(spec, run_sweep(dataclasses.replace(spec, threads=threads)))
            for threads in (1, 2)
        ]
        assert texts[0] == texts[1]

    check()


class _InProcessPool:
    """ProcessPoolExecutor stand-in that runs each task when it is submitted or mapped."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        _InProcessPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


# Multi-point specs of every kind, and the pool tasks each makes under the
# chunk sizes of the test below.
_POOL_SPECS = [
    (SweepSpec("classical_ber", snr_grid_db=(0.0, 3.0), trials_per_point=3000,
               turbo=TurboConfig(block_length=64, iterations=1)), 12),
    (SweepSpec("qber_vs_snr", p_eq_list=(0.0, 0.1), trials_per_point=2000,
               use_turbo=False), 4),
    (SweepSpec("shor_curve", p_eq_list=(0.01, 0.1), trials_per_point=3000), 4),
    (SweepSpec("qsdc_batch", trials_per_point=5, n_pairs=4, m_virtual=20,
               payload_per_session=2), 3),
]


@pytest.mark.parametrize("cpus", [3, 64])
@pytest.mark.parametrize("spec,n_tasks", _POOL_SPECS, ids=[s.sweep_kind for s, _ in _POOL_SPECS])
def test_one_pool_per_sweep_bounded_by_tasks_and_cpus(monkeypatch, spec, n_tasks, cpus):
    for name, size in [("UNCODED_CHUNK_BITS", 1024), ("CODED_CHUNK_BLOCKS", 16),
                       ("QBER_CHUNK_TRIALS", 1024), ("SHOR_CHUNK_TRIALS", 2048),
                       ("SESSION_CHUNK", 2)]:
        monkeypatch.setattr(sweeps_mod, name, size)
    monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcessPool, "max_workers", [])
    serial = render_csv(spec, run_sweep(spec))
    assert _InProcessPool.max_workers == []
    wide = render_csv(spec, run_sweep(dataclasses.replace(spec, threads=10_000)))
    assert _InProcessPool.max_workers == [min(n_tasks, cpus)]
    assert wide == serial


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask here")
def test_an_affinity_mask_of_one_cpu_starts_no_pool(monkeypatch):
    # os.cpu_count() counts the host's CPUs, not the ones this process may run
    # on: pinned to one of two (taskset -c 0), --threads 2 runs serially, to
    # the same bytes, and a mask of both CPUs starts a pool of two
    spec, _ = _POOL_SPECS[0]
    for name, size in [("UNCODED_CHUNK_BITS", 1024), ("CODED_CHUNK_BLOCKS", 16)]:
        monkeypatch.setattr(sweeps_mod, name, size)
    monkeypatch.setattr(sweeps_mod, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "max_workers", [])
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 2 if name == "SC_NPROCESSORS_ONLN"
                        else sysconf(name))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = render_csv(spec, run_sweep(spec))
    pinned = render_csv(spec, run_sweep(dataclasses.replace(spec, threads=2)))
    assert _InProcessPool.max_workers == []
    assert pinned == serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert render_csv(spec, run_sweep(dataclasses.replace(spec, threads=2))) == serial
    assert _InProcessPool.max_workers == [2]


def test_import_leaves_the_process_pool_unloaded():
    # sweeps imports ProcessPoolExecutor when a sweep starts a pool, not before
    src = pathlib.Path(sweeps_mod.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, qtsim; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert loaded.strip() == "False"


_TEST_PID = os.getpid()
_PAULI_FRAME_BATCH = sweeps_mod.pauli_frame_batch


def _worker_dies_at_p_eq_0p02(params, rng, n_trials):
    """pauli_frame_batch whose pool worker exits at P_eq = 0.02."""
    if params == DepolarizingParams.from_total(0.02):
        if os.getpid() == _TEST_PID:
            raise RuntimeError("the chunk ran in the test process, not on the pool")
        os._exit(3)
    return _PAULI_FRAME_BATCH(params, rng, n_trials)


def test_a_dying_pool_worker_gives_error_rows(monkeypatch):
    monkeypatch.setattr(sweeps_mod, "SHOR_CHUNK_TRIALS", 2048)  # three chunks per point
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = SweepSpec("shor_curve", p_eq_list=(0.01, 0.02, 0.03), trials_per_point=5000, seed=4)
    serial = run_sweep(spec)
    monkeypatch.setattr(sweeps_mod, "pauli_frame_batch", _worker_dies_at_p_eq_0p02)
    rows = run_sweep(dataclasses.replace(spec, threads=2))
    assert [row["p_eq"] for row in rows] == [0.01, 0.02, 0.03]
    assert rows[1]["error"].startswith("BrokenProcessPool: ")
    assert rows[1]["p_shor"] == ""
    for row, done in zip(rows, serial):  # a point either lost its chunks or is whole
        assert row == done or row["error"].startswith("BrokenProcessPool: ")
    assert multiprocessing.active_children() == []


_RUN_SESSION = sweeps_mod.run_session


def _worker_dies_in_session_4(cfg, session_id=0, **kwargs):
    """run_session whose pool worker exits in session 4."""
    if session_id == 4:
        if os.getpid() == _TEST_PID:
            raise RuntimeError("the session ran in the test process, not on the pool")
        os._exit(3)
    return _RUN_SESSION(cfg, session_id=session_id, **kwargs)


@pytest.mark.parametrize("spec,chunk,dies,lost", [
    (SweepSpec("shor_curve", p_eq_list=(0.01, 0.02, 0.03, 0.04), trials_per_point=5000, seed=4),
     ("SHOR_CHUNK_TRIALS", 2048), ("pauli_frame_batch", _worker_dies_at_p_eq_0p02), 1),
    (SweepSpec("qsdc_batch", trials_per_point=9, n_pairs=4, m_virtual=20,
               payload_per_session=2, seed=5),
     ("SESSION_CHUNK", 3), ("run_session", _worker_dies_in_session_4), 4),
], ids=["shor_curve", "qsdc_batch"])
def test_a_dead_worker_fails_only_its_point(monkeypatch, spec, chunk, dies, lost):
    """The points that share the dead worker's pool run again on a fresh one."""
    monkeypatch.setattr(sweeps_mod, *chunk)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_sweep(spec)
    monkeypatch.setattr(sweeps_mod, *dies)
    rows = run_sweep(dataclasses.replace(spec, threads=2))
    assert len(rows) == len(serial)
    assert rows[lost]["error"].startswith("BrokenProcessPool: ")
    assert rows[:lost] + rows[lost + 1:] == serial[:lost] + serial[lost + 1:]
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_unknown_flag_exits_1(capsys):
    assert main(["sweep", "--bogus-flag"]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_no_command_exits_1(capsys):
    assert main([]) == 1


@pytest.mark.parametrize("value,reason", [
    ("mitm", "bad --eve value"),
    ("boost:0.05", "at least 0.1"),
    ("swap:1.5", "intercept_fraction"),
    ("swap:x", "could not convert"),
], ids=["mitm", "boost_below_min", "swap_above_1", "swap_not_a_number"])
def test_cli_bad_eve_value_exits_1(capsys, value, reason):
    assert main(["qsdc", "--eve", value]) == 1
    assert reason in capsys.readouterr().err


# Every float flag of each command, at values at and beyond the float range's
# edges; a tiny base run, and no --block-length where --bypass-ber leaves the
# link flags unread.  Each case must end in an exit code, never a traceback.
_EXTREME_BASES = {
    "sweep": ["sweep", "--trials", "1000", "--block-length", "40"],
    "qsdc": ["qsdc", "-n", "2", "-m", "20", "--payload", "1", "--block-length", "40"],
    "shor-curve": ["shor-curve", "--trials", "1000"],
    "teleport-demo": ["teleport-demo"],
}
_EXTREME_FLAGS = [
    *(("sweep", flag) for flag in
      ("--zeta", "--p0", "--d", "--bypass-ber", "--snr-grid", "--p-eq")),
    *(("qsdc", flag) for flag in
      ("--zeta", "--p0", "--d", "--threshold", "--p-e", "--snr-db", "--bypass-ber")),
    ("shor-curve", "--p-eq"),
    ("teleport-demo", "--p-e"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e-200", "1e308"])
@pytest.mark.parametrize("command,flag", _EXTREME_FLAGS)
def test_cli_float_flags_at_extreme_values_end_in_an_exit_code(capsys, command, flag, value):
    base = _EXTREME_BASES[command]
    if flag == "--bypass-ber":
        base = base[:-2]  # drop --block-length
    assert main([*base, f"{flag}={value}"]) in (0, 1, 2)


@pytest.mark.parametrize("command", list(_EXTREME_BASES))
def test_cli_negative_seed_exits_1_naming_the_flag(capsys, command):
    assert main([*_EXTREME_BASES[command], "--seed", "-1"]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qsdc", "--sessions", "0", "-m", "20"],
    ["sweep", "--trials", "0"],
    ["shor-curve", "--trials", "0"],
    ["teleport-demo", "--trials", "0"],
    ["qsdc", "--sessions", "2.5", "-m", "20"],
], ids=lambda argv: "_".join(argv[:3]))
def test_cli_bad_count_exits_1_naming_the_flag(capsys, argv):
    message = "must be >= 1, got 0" if argv[2] == "0" else "expected an integer, got '2.5'"
    assert main(argv) == 1
    assert f"argument {argv[1]}: {message}" in capsys.readouterr().err


def test_cli_out_of_range_p_eq_exits_1(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for p_eq in ("1.5", "-0.1", "nan"):
        code = main([
            "sweep", "--kind", "qber_vs_snr", f"--p-eq={p_eq}", "--snr-grid=4",
            "--trials", "1000", "--out", str(out),
        ])
        assert code == 1
        assert "p_eq" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main([
        "sweep", "--kind", "qber_vs_snr", "--trials", "1000",
        "--out", str(missing),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["sweep", "teleport-demo"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, command, where):
    path = tmp_path / "no_such.cfg" if where == "missing" else tmp_path
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: cannot read config {path}")
    assert "usage" not in err


def test_cli_qsdc_trace_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main([
        "qsdc", "-n", "2", "-m", "20", "--trace", str(tmp_path / "trace.txt"),
        "--out", str(missing),
    ])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--kind", "classical_ber", "--snr-grid", "0", "--trials", "1000"], "out"),
    (["shor-curve", "--p-eq", "0.01", "--trials", "1000"], "out"),
    (["qsdc", "--sessions", "2", "-m", "20"], "out"),
    (["qsdc", "--sessions", "2", "-m", "20"], "trace"),
], ids=["sweep_out", "shor_curve_out", "qsdc_out", "qsdc_trace"])
def test_empty_output_path_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                      argv, flag, via):
    # an empty path is a path that cannot be written, not a request for stdout
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv = [*argv, f"--{flag}="]
    else:
        pathlib.Path("run.cfg").write_text(f"{flag} =\n")
        argv = [*argv[:1], "--config", "run.cfg", *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: ") and captured.out == ""
    assert sorted(os.listdir()) == ([] if via == "flag" else ["run.cfg"])


@pytest.mark.parametrize("command", ["sweep", "qsdc", "shor-curve", "teleport-demo"])
def test_empty_config_path_exits_2(capsys, command):
    assert main([command, "--config="]) == 2
    assert capsys.readouterr().err.startswith("i/o error: cannot read config ")


@pytest.mark.parametrize("argv,worker", [
    (["sweep", "--kind", "classical_ber", "--trials", "200000", "--snr-grid", "0,2",
      "--out", "{bad}"], "_ber_chunk"),
    (["qsdc", "-n", "2", "-m", "20", "--trace", "{good}", "--out", "{bad}"], "_session_chunk"),
    (["qsdc", "-n", "2", "-m", "20", "--trace", "{bad}", "--out", "{good}"], "_session_chunk"),
], ids=["sweep_out", "qsdc_out", "qsdc_trace"])
def test_unwritable_output_exits_2_before_any_chunk_runs(tmp_path, capsys, monkeypatch,
                                                         argv, worker):
    ran = []  # a raising chunk would only fail its point, so record the calls
    monkeypatch.setattr(sweeps_mod, worker, ran.append)
    paths = {"bad": tmp_path / "no" / "such" / "dir" / "out", "good": tmp_path / "good"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert ran == []


@pytest.mark.parametrize("trace", ["same.txt", "./same.txt", "link.txt"],
                         ids=["same", "dot_slash", "symlink"])
def test_out_and_trace_at_one_file_exit_1_and_write_nothing(tmp_path, capsys, monkeypatch,
                                                            trace):
    # written in turn, the CSV would keep the tail of the longer trace
    monkeypatch.chdir(tmp_path)
    os.symlink("same.txt", "link.txt")  # dangling: names the file --out would write
    argv = ["qsdc", "--sessions", "2", "-m", "20", "--out", "same.txt", "--trace", trace]
    assert main(argv) == 1
    assert "both be written to" in capsys.readouterr().err
    assert sorted(os.listdir()) == ["link.txt"] and not os.path.exists("same.txt")
    assert main(argv[:-2] + ["--trace", "trace.txt"]) == 0


@pytest.mark.parametrize("argv", [
    ["sweep", "--kind", "classical_ber", "--snr-grid", "0", "--trials", "1000", "--out"],
    ["qsdc", "--sessions", "2", "-m", "20", "--trace"],
], ids=["sweep_out", "qsdc_trace"])
def test_output_at_the_config_file_exits_1_and_keeps_it(tmp_path, capsys, monkeypatch, argv):
    # the run would replace the config with its CSV or its pair trace
    monkeypatch.chdir(tmp_path)
    pathlib.Path("run.cfg").write_text("seed = 3\n")
    os.symlink("run.cfg", "link.cfg")
    for target in ("run.cfg", "./link.cfg"):
        assert main([*argv[:1], "--config", "run.cfg", *argv[1:], target]) == 1
        assert "would overwrite the --config file run.cfg" in capsys.readouterr().err
        assert sorted(os.listdir()) == ["link.cfg", "run.cfg"]
        assert pathlib.Path("run.cfg").read_text() == "seed = 3\n"


def test_qsdc_bypass_ber_writes_the_sweep_spec_bytes(tmp_path, capsys):
    # sessions over the i.i.d. bypass run through qsdc, as the equal SweepSpec does
    out = tmp_path / "cli.csv"
    assert main(["qsdc", "--bypass-ber", "0.1", "--sessions", "3", "-n", "4", "-m", "20",
                 "--payload", "2", "--p-e", "0.01", "--seed", "2", "--out", str(out)]) == 0
    spec = SweepSpec("qsdc_batch", classical_bypass_ber=0.1, use_shor=True, p_eq_list=(0.01,),
                     trials_per_point=3, n_pairs=4, m_virtual=20, payload_per_session=2,
                     seed=2, output_path=str(tmp_path / "spec.csv"))
    run_sweep(spec)
    assert out.read_bytes() == (tmp_path / "spec.csv").read_bytes()
    assert "# classical_bypass_ber=0.1\n" in out.read_text()
    for ber in ("1.5", "-0.5", "nan"):
        assert main(["qsdc", f"--bypass-ber={ber}", "-m", "20"]) == 1
        assert "classical_bypass_ber must lie in [0, 1]" in capsys.readouterr().err


def test_cli_qsdc_trace_bytes_fixed_seed(tmp_path, capsys):
    # The trace was recorded before trace rows became opt-in inside sessions;
    # untraced sessions draw the same numbers, so their CSV rows match too.
    args = [
        "qsdc", "--sessions", "4", "-n", "8", "-m", "20", "--payload", "4",
        "--p-e", "0.02", "--eve", "boost:0.1", "--snr-db", "0", "--seed", "17",
    ]
    trace = tmp_path / "trace.txt"
    assert main(args + ["--trace", str(trace), "--out", str(tmp_path / "traced.csv")]) == 0
    data = pathlib.Path(__file__).parent / "data" / "qsdc_trace_seed17.txt"
    assert trace.read_bytes() == data.read_bytes()
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("golden, flags", [
    ("qsdc_golden_boost.csv", ["--eve", "boost:0.1"]),
    ("qsdc_golden_swap.csv", ["--eve", "swap:0.3"]),
    ("qsdc_golden_boost_noshor.csv", ["--eve", "boost:0.1", "--no-shor"]),
], ids=["boost", "swap", "boost_no_shor"])
def test_attack_sessions_match_golden_csv(tmp_path, capsys, golden, flags, threads):
    # the README attack command and two variants: 100 sessions of up to three
    # attempts pin the decoy positions, the transit draws and the verdicts
    out = tmp_path / "sessions.csv"
    assert main([
        "qsdc", "--sessions", "100", "-n", "16", "-m", "100", "--p-e", "0.005",
        *flags, "--threads", str(threads), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (pathlib.Path(__file__).parent / "data" / golden).read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_shor_curve_matches_golden_csv(tmp_path, threads):
    # the default axis grid pins both the Monte Carlo and the p_shor_exact column
    out = tmp_path / "shor.csv"
    args = parse_command(build_parser(), [
        "shor-curve", "--trials", "20000", "--seed", "3", "--threads", str(threads),
        "--out", str(out),
    ])
    run_sweep(_sweep_spec(args))
    golden = pathlib.Path(__file__).parent / "data" / "shor_curve_golden.csv"
    assert out.read_bytes() == golden.read_bytes()


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


@pytest.mark.parametrize("spec", [
    SweepSpec("classical_ber", snr_grid_db=(0.0, 3.0), trials_per_point=3000, seed=3,
              turbo=TurboConfig(block_length=64, iterations=1)),
    SweepSpec("qsdc_batch", trials_per_point=5, n_pairs=4, m_virtual=20,
              payload_per_session=2, seed=3),
], ids=["classical_ber", "qsdc_batch"])
def test_timing_fills_wall_ms_through_the_pool(monkeypatch, spec):
    for name, size in [("UNCODED_CHUNK_BITS", 1024), ("CODED_CHUNK_BLOCKS", 16),
                       ("SESSION_CHUNK", 2)]:
        monkeypatch.setattr(sweeps_mod, name, size)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = dataclasses.replace(spec, threads=2)
    untimed = run_sweep(spec)
    timed = run_sweep(dataclasses.replace(spec, timing=True))
    assert all(row["wall_ms"] > 0 for row in timed)
    assert [{**row, "wall_ms": 0} for row in timed] == untimed
    if spec.sweep_kind == "classical_ber":  # a point's variant rows carry its summed time
        assert [row["variant"] for row in timed] == ["uncoded", "turbo"] * 2
        assert timed[0]["wall_ms"] == timed[1]["wall_ms"]
        assert timed[2]["wall_ms"] == timed[3]["wall_ms"]


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code = main([
        "sweep", "--kind", "qber_vs_snr", "--trials", "1000", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    rows = _parse(out.read_text())
    assert rows[0]["sweep_kind"] == "qber_vs_snr"


def test_cli_seed_repeatability(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main([
            "sweep", "--kind", "qber_vs_snr", "--trials", "1000",
            "--seed", "7", "--out", str(p),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_qsdc_swap_attack_aborts(capsys):
    code = main(["qsdc", "--eve", "swap:1.0", "-m", "100", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "decision=abort" in out


def test_cli_qsdc_refuses_a_derived_threshold_of_one(capsys):
    # one decoy derives a threshold of 1, at which even a full swap attack never aborts
    argv = ["qsdc", "--sessions", "20", "-n", "2", "--eve", "swap:1.0"]
    with pytest.warns(UserWarning, match="coarse detection"):
        assert main([*argv, "-m", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "m_virtual = 1" in err and "explicit threshold" in err
    with pytest.warns(UserWarning, match="coarse detection"):
        assert main([*argv, "-m", "2"]) == 0
    assert "threshold=0.5\n" in capsys.readouterr().out


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\ntrials=1000\nkind=qber_vs_snr  # comment\n")
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


def test_cli_teleport_demo_exact_count_fits_one_minus_p_eq(capsys):
    # a qubit is exact iff its pair's frame is I, with probability 1 - P_eq
    n, p_eq = 10_000, 0.1
    assert main(["teleport-demo", "--trials", str(n), "--p-e", str(p_eq), "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n + 2
    exact = sum(float(line.rsplit("fidelity=", 1)[1]) == 1.0 for line in lines[1:-1])
    assert lines[-1] == f"exact reconstructions: {exact}/{n}"
    assert abs(exact - n * (1 - p_eq)) < 4 * math.sqrt(n * p_eq * (1 - p_eq))


def test_env_var_sets_default_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("QTSIM_THREADS", "2")
    out = tmp_path / "env.csv"
    assert main([
        "sweep", "--kind", "qber_vs_snr", "--trials", "1000", "--out", str(out),
    ]) == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# one config path: a --config file is read as the subcommand's own flags
# ---------------------------------------------------------------------------

def _floats_text(lo, hi):
    return st.floats(lo, hi).map(repr)


def _float_list_text(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=3).map(
        lambda values: ",".join(map(repr, values))
    )


_BOOLEAN = st.sampled_from(["true", "false", "1", "0", "yes", "no", "on", "off", "TRUE", "Off"])
_RUN_VALUES = {
    "seed": st.integers(0, 2**32).map(str),
    "out": st.sampled_from(["a.csv", "dir/b.csv"]),
    "threads": st.integers(1, 4).map(str),
    "timing": _BOOLEAN,
}
_LINK_VALUES = {
    "no_turbo": _BOOLEAN,
    "zeta": _floats_text(0.0, 50.0),
    "p0": _floats_text(0.1, 10.0),
    "d": _floats_text(0.1, 10.0),
    "block_length": st.integers(40, 4096).map(str),
    "iterations": st.integers(1, 16).map(str),
    "decoder": st.sampled_from(["log_map", "max_log_map"]),
}
# Values each subcommand's flags accept, keyed by flag dest (= config key).
_FLAG_VALUES = {
    "sweep": {
        **_RUN_VALUES, **_LINK_VALUES,
        "kind": st.sampled_from(["classical_ber", "qber_vs_snr"]),
        "trials": st.integers(1000, 10**6).map(str),
        "snr_grid_db": _float_list_text(-10.0, 20.0),
        "p_eq_list": _float_list_text(0.0, 0.3),
        "use_shor": _BOOLEAN,
        "coherence": st.sampled_from(["per_symbol", "per_frame"]),
        "bypass_ber": _floats_text(0.0, 0.5),
    },
    "qsdc": {
        **_RUN_VALUES, **_LINK_VALUES,
        "eve": st.sampled_from(["none", "swap", "swap:0.25", "boost", "boost:0.3"]),
        "no_shor": _BOOLEAN,
        "bypass_ber": _floats_text(0.0, 0.5),
        "n_pairs": st.integers(0, 64).map(str),
        "m_virtual": st.integers(20, 400).map(str),
        "threshold": _floats_text(0.01, 0.99),
        "sessions": st.integers(1, 100).map(str),
        "payload": st.integers(0, 16).map(str),
        "p_eq": _floats_text(0.0, 1.0),
        "snr_db": _floats_text(-10.0, 20.0),
        "trace": st.sampled_from(["trace.txt"]),
    },
    "shor-curve": {
        **_RUN_VALUES,
        "trials": st.integers(1000, 10**7).map(str),
        "p_eq_list": _float_list_text(0.0, 0.3),
        "axis_convention": st.sampled_from(["total", "per_pauli"]),
    },
    "teleport-demo": {
        "seed": st.integers(0, 2**32).map(str),
        "trials": st.integers(1, 100).map(str),
        "p_eq": _floats_text(0.0, 1.0),
    },
}
_BOOLEAN_FLAGS = {"timing", "no_shor", "no_turbo", "use_shor"}


def _parsed(argv):
    """Parsed flags (without --config) and the SweepSpec, or its error."""
    args = parse_command(build_parser(), argv)
    flags = {k: v for k, v in vars(args).items() if k != "config"}
    if args.command == "teleport-demo":
        return flags, None
    try:
        return flags, _sweep_spec(args)
    except ValueError as exc:
        return flags, repr(exc)


@pytest.mark.parametrize("command", sorted(_FLAG_VALUES))
def test_config_file_parses_as_the_same_flags(command, tmp_path, monkeypatch):
    monkeypatch.delenv("QTSIM_THREADS", raising=False)
    options = {
        action.dest: action.option_strings[-1]
        for action in build_parser().commands[command]._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    assert set(options) == set(_FLAG_VALUES[command])
    cfg = tmp_path / "run.cfg"

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_FLAG_VALUES[command]))
    def check(values):
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        flags = []
        for key, value in values.items():
            if key not in _BOOLEAN_FLAGS:
                flags.append(f"{options[key]}={value}")
            elif value.lower() in ("true", "1", "yes", "on"):
                flags.append(options[key])
        assert _parsed([command, "--config", str(cfg)]) == _parsed([command, *flags])

    check()


def _config(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_config_booleans_and_negative_grid(tmp_path):
    out = tmp_path / "out.csv"
    cfg = _config(tmp_path, "kind=qber_vs_snr\ntrials=1000\nno_turbo=true\nsnr_grid_db=-2,0\n")
    assert main(["sweep", "--config", cfg, "--out", str(out), "--trials", "1200"]) == 0
    text = out.read_text()
    assert "use=False" in text.split("# turbo=", 1)[1].splitlines()[0]
    assert "# snr_grid_db=-2,0" in text
    rows = _parse(text)
    assert [float(row["snr_db"]) for row in rows] == [-2.0, 0.0]
    assert {row["trials"] for row in rows} == {"1200"}  # the command line wins

    cfg = _config(tmp_path, "kind=qber_vs_snr\ntrials=1000\nno_turbo=off\n")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "use=True" in out.read_text().split("# turbo=", 1)[1].splitlines()[0]


@pytest.mark.parametrize("command, text", [
    ("sweep", "interleaver_seed=5\n"),  # no subcommand has this flag
    ("qsdc", "snr_grid_db=1,2\n"),  # a sweep flag
    ("sweep", "p_eq=0.5\n"),  # the sweep's key is p_eq_list
    ("qsdc", "kind=qsdc_batch\n"),
    ("teleport-demo", "eve=swap:1\n"),
    ("sweep", "no_turbo=flase\n"),
    ("sweep", "config=other.cfg\n"),
    ("shor-curve", "seed=1.5\n"),
    ("sweep", "seed=1\nseed=2\n"),  # a repeated key
])
def test_cli_config_input_it_cannot_read_exits_1(tmp_path, capsys, command, text):
    assert main([command, "--config", _config(tmp_path, text)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["qsdc", "--trials", "5"],  # --sessions is the qsdc count
    ["teleport-demo", "--snr-db", "0"],
    ["teleport-demo", "--eve", "swap:1"],
    ["teleport-demo", "--no-shor"],
    ["selftest", "--seed", "1"],
    ["teleport-demo", "--trials", "-1"],
    ["qsdc", "--payload", "-1"],
    ["sweep", "--kind", "qsdc_batch", "--p-eq", "0.1,0.2"],
    ["sweep", "--kind", "qsdc_batch", "--snr-grid", "0,4"],
    ["shor-curve", "--axis-convention", "per_pauli", "--p-eq", "0.5"],
    ["sweep", "--kind", "classical_ber", "--snr-grid=-inf", "--no-turbo", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--snr-grid", "nan", "--no-turbo", "--trials", "1000"],
    ["qsdc", "--snr-db", "nan", "--payload", "2", "-n", "4"],
    ["qsdc", "--snr-db=-inf", "--payload", "2", "-n", "4"],
    ["sweep", "--kind", "classical_ber", "--zeta", "nan", "--no-turbo", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--zeta", "inf", "--no-turbo", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--p0", "nan", "--no-turbo", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--d", "inf", "--no-turbo", "--trials", "1000"],
    ["sweep", "--bypass-ber", "1.5", "--trials", "1000"],
    ["sweep", "--bypass-ber=-0.5", "--trials", "1000"],
    ["sweep", "--bypass-ber", "nan", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--snr-grid", "4000", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--snr-grid=-4000", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--snr-grid=-3100", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--d", "1e200", "--trials", "1000"],
    ["sweep", "--kind", "classical_ber", "--snr-grid", "3000", "--d", "1e7",
     "--trials", "1000"],
    ["qsdc", "--snr-db=-1e308", "--payload", "1", "-n", "2", "-m", "20"],
    ["qsdc", "--snr-db", "3001", "--payload", "1", "-n", "2", "-m", "20"],
    ["qsdc", "--d", "1e200", "--payload", "1", "-n", "2", "-m", "20"],
    ["sweep", "--kind", "classical_ber", "--trials", "1000", "--seed", "-1", "--snr-grid", "0"],
    ["qsdc", "--seed", "-3", "-m", "20"],
    ["shor-curve", "--seed", "-1", "--trials", "1000", "--p-eq", "0.1"],
])
def test_cli_input_that_would_be_dropped_exits_1(capsys, argv):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_cli_snr_limits_run_clean(capsys):
    # +-3000 dB are the widest Es/N0 the link runs (cchannel.noise_variance)
    assert main(["sweep", "--kind", "classical_ber", "--snr-grid=-3000,3000",
                 "--trials", "1000", "--block-length", "40"]) == 0
    rows = _parse(capsys.readouterr().out)
    assert [row["error"] for row in rows] == [""] * 4
    assert [float(row["ber"]) for row in rows[2:]] == [0.0, 0.0]
    for snr_db in ("-3000", "3000"):
        assert main(["qsdc", f"--snr-db={snr_db}", "--payload", "1", "-n", "2", "-m", "20",
                     "--block-length", "40"]) == 0
        out = capsys.readouterr().out
        assert "error=" not in out and "failed=" not in out


def test_turbo_ber_at_a_fixed_es_n0_does_not_depend_on_the_distance():
    # Es/N0 folds in the mean gain p0/d^2, so d = 1e7 (gain 1e-14) decodes as d = 1
    rows = {
        d: run_sweep(SweepSpec(
            "classical_ber", snr_grid_db=(0.0,), trials_per_point=4000, seed=3,
            rician=sweeps_mod.RicianParams(d=d), turbo=TurboConfig(block_length=200),
        ))
        for d in (1.0, 1e7)
    }
    assert [row["variant"] for row in rows[1e7]] == ["uncoded", "turbo"]
    assert [row["ber"] for row in rows[1e7]] == [row["ber"] for row in rows[1.0]]
    assert rows[1e7][1]["ber"] < rows[1e7][0]["ber"] / 10


@pytest.mark.parametrize("flag", ["--snr-grid=1,,2", "--snr-grid=1,2,", "--snr-grid=0;;4",
                                  "--p-eq=0.1,,0.2", "--p-eq="])
def test_cli_empty_list_element_exits_1(capsys, flag):
    # an empty element is named, never dropped from the grid
    argv = ["sweep", "--kind", "qber_vs_snr", "--trials", "1000", "--no-turbo", flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"empty element in list {flag.split('=', 1)[1]!r}" in err


@pytest.mark.parametrize("key,value", [("snr_grid_db", "1,,2"), ("p_eq_list", "0.1,,0.2")])
def test_cli_config_empty_list_element_exits_1(tmp_path, capsys, key, value):
    cfg = _config(tmp_path, f"kind=qber_vs_snr\ntrials=1000\nno_turbo=true\n{key}={value}\n")
    assert main(["sweep", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"empty element in list {value!r}" in err and cfg in err


@pytest.mark.parametrize("argv,message", [
    (["qsdc", "-n", "2", "--payload", "5"], "payload_per_session (5) exceeds n_pairs (2)"),
    # every session aborts, so the impossible payload would never surface
    (["qsdc", "-n", "2", "--payload", "5", "--eve", "swap:1.0"], "exceeds n_pairs (2)"),
    (["qsdc", "-m", "0"], "at least one virtual pair"),  # from the session config
])
def test_qsdc_configuration_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    SweepSpec("qsdc_batch", n_pairs=2, payload_per_session=2)  # a payload may fill every pair


@pytest.mark.parametrize("value", ["two", "0"])
def test_bad_env_threads_exits_1(monkeypatch, capsys, value):
    monkeypatch.setenv("QTSIM_THREADS", value)
    build_parser()  # reads no environment
    assert main(["sweep", "--kind", "qber_vs_snr", "--trials", "1000"]) == 1
    assert "threads" in capsys.readouterr().err


def test_spec_refuses_unknown_modes():
    # each would otherwise write the same ValueError in every row
    with pytest.raises(ValueError, match="coherence"):
        SweepSpec(sweep_kind="classical_ber", coherence="bogus")
    with pytest.raises(ValueError, match="axis convention"):
        SweepSpec(sweep_kind="shor_curve", axis_convention="bogus")
    SweepSpec(sweep_kind="qber_vs_snr", coherence="per_frame")
    SweepSpec(sweep_kind="shor_curve", axis_convention="per_pauli")


def test_spec_rejects_input_it_would_drop():
    with pytest.raises(ValueError, match="one snr_db and one p_eq"):
        SweepSpec(sweep_kind="qsdc_batch", p_eq_list=(0.1, 0.2))
    with pytest.raises(ValueError, match="one snr_db and one p_eq"):
        SweepSpec(sweep_kind="qsdc_batch", snr_grid_db=(0.0, 4.0))
    with pytest.raises(ValueError, match="payload_per_session"):
        SweepSpec(sweep_kind="qsdc_batch", payload_per_session=-1)
    with pytest.raises(ValueError, match="p_eq"):
        SweepSpec(sweep_kind="shor_curve", p_eq_list=(0.34,), axis_convention="per_pauli")
    SweepSpec(sweep_kind="shor_curve", p_eq_list=(1 / 3,), axis_convention="per_pauli")
    with pytest.raises(ValueError, match="does not read axis_convention"):
        SweepSpec(sweep_kind="qber_vs_snr", p_eq_list=(0.5,), axis_convention="per_pauli")
    with pytest.raises(ValueError, match="qsdc_batch"):
        run_sweep(SweepSpec(sweep_kind="qber_vs_snr", trials_per_point=1000),
                  trace_path="t.txt")
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            SweepSpec(sweep_kind="classical_ber", snr_grid_db=(0.0, snr_db))
    for ber in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="classical_bypass_ber"):
            SweepSpec(sweep_kind="qber_vs_snr", classical_bypass_ber=ber)
    SweepSpec(sweep_kind="qber_vs_snr", classical_bypass_ber=1.0)


def test_qsdc_trace_bytes_identical_across_threads(tmp_path):
    traces = []
    for threads in (1, 2):
        spec = SweepSpec(
            sweep_kind="qsdc_batch", p_eq_list=(0.05,), trials_per_point=12, seed=5,
            n_pairs=4, m_virtual=20, use_shor=True, payload_per_session=2, threads=threads,
        )
        path = tmp_path / f"trace{threads}.txt"
        rows = run_sweep(spec, trace_path=str(path))
        traces.append(path.read_bytes())
        assert rows == run_sweep(spec)
    assert traces[0] == traces[1]
    assert {int(line.split()[0]) for line in traces[0].decode().splitlines()[1:]} == set(range(12))


# ---------------------------------------------------------------------------
# each sweep kind takes only the fields it reads
# ---------------------------------------------------------------------------

_NOT_ON_SWEEP = "invalid choice: '{}'"  # the kind runs through its own command


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--kind", "shor_curve", "--p-eq", "0.1", "--trials", "1000", "--zeta", "3",
      "--eve", "boost:0.2", "--no-turbo"], _NOT_ON_SWEEP.format("shor_curve")),
    (["sweep", "--kind", "shor_curve", "--trials", "1000", "--snr-grid", "4"],
     _NOT_ON_SWEEP.format("shor_curve")),
    (["sweep", "--kind", "classical_ber", "--trials", "1000", "--p-eq", "0.1"],
     "does not read p_eq_list"),
    (["sweep", "--kind", "classical_ber", "--trials", "1000", "--bypass-ber", "0.1"],
     "does not read classical_bypass_ber"),
    (["sweep", "--kind", "classical_ber", "--trials", "1000", "--use-shor"],
     "does not read use_shor"),
    (["sweep", "--kind", "qber_vs_snr", "--trials", "1000", "--eve", "swap:0.5"],
     "unrecognized arguments: --eve swap:0.5"),
    (["sweep", "--kind", "qber_vs_snr", "--eve", "boost:0.1"],
     "unrecognized arguments: --eve boost:0.1"),
    (["sweep", "--kind", "qsdc_batch", "--coherence", "per_frame"],
     _NOT_ON_SWEEP.format("qsdc_batch")),
    (["sweep", "--kind", "qsdc_batch", "--axis-convention", "per_pauli"],
     _NOT_ON_SWEEP.format("qsdc_batch")),
    (["sweep", "--kind", "qber_vs_snr", "--axis-convention", "per_pauli"],
     "unrecognized arguments: --axis-convention per_pauli"),
    (["sweep", "--kind", "qber_vs_snr", "--snr-grid", "0,4", "--p-eq", "0.1", "--trials",
      "2000", "--bypass-ber", "0.01", "--zeta", "3", "--iterations", "2"],
     "qber_vs_snr with classical_bypass_ber does not read snr_grid_db, rician, turbo"),
    (["sweep", "--kind", "classical_ber", "--no-turbo", "--iterations", "3",
      "--block-length", "64", "--snr-grid", "0", "--trials", "1000"],
     "classical_ber without use_turbo does not read turbo"),
    (["qsdc", "--no-turbo", "--iterations", "3", "-m", "20"],
     "qsdc_batch without use_turbo does not read turbo"),
    (["qsdc", "--bypass-ber", "0.1", "--snr-db", "0", "--zeta", "3", "-m", "20"],
     "qsdc_batch with classical_bypass_ber does not read snr_grid_db, rician"),
], ids=[f"argv{i}" for i in range(14)])
def test_flag_the_sweep_kind_does_not_read_exits_1(capsys, argv, message):
    # a flag that no kind of sweep reads is not a sweep flag at all; bit flips
    # replace the whole link (argv10, argv13), and the uncoded link has no
    # turbo code (argv11, argv12)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error" in err and message in err


# A value away from the default for each sweep flag that takes one.
_SWEEP_FLAG_VALUE = {
    "snr_grid_db": "4", "p_eq_list": "0.1", "bypass_ber": "0.1", "eve": "swap:0.5",
    "zeta": "3", "p0": "2", "d": "2", "block_length": "40", "iterations": "2",
}


def test_every_sweep_flag_sets_a_field_a_sweep_kind_reads(monkeypatch):
    """A sweep flag is a run flag, or some kind of sweep reads what it sets."""
    monkeypatch.delenv("QTSIM_THREADS", raising=False)
    kinds = ("classical_ber", "qber_vs_snr")
    run_flags = {"help", "config", "seed", "out", "threads", "timing", "kind", "trials"}
    unread = []
    for action in build_parser().commands["sweep"]._actions:
        if action.dest in run_flags:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            token = flag
        elif action.choices:
            token = f"{flag}={next(c for c in action.choices if c != action.default)}"
        else:
            token = f"{flag}={_SWEEP_FLAG_VALUE[action.dest]}"
        specs = []
        for kind in kinds:
            try:
                specs.append((kind, _sweep_spec(parse_command(
                    build_parser(), ["sweep", "--kind", kind, "--trials", "1000", token]))))
            except ValueError:  # the kind does not read the field
                continue
        if all(spec == SweepSpec(kind, trials_per_point=1000) for kind, spec in specs):
            unread.append(flag)
    assert unread == []
    sweep = build_parser().commands["sweep"]
    assert next(a for a in sweep._actions if a.dest == "kind").choices == kinds


def test_teleport_demo_is_not_a_sweep_kind(capsys):
    # qber_vs_snr is the one sweep kind of the teleport curve
    with pytest.raises(ValueError, match="unknown sweep kind 'teleport_demo'"):
        SweepSpec("teleport_demo", p_eq_list=(0.1,), trials_per_point=1000)
    assert main(["sweep", "--kind", "teleport_demo"]) == 1
    assert "invalid choice: 'teleport_demo'" in capsys.readouterr().err


def test_qsdc_has_no_coherence_flag(capsys):
    # sessions never read the link's coherence mode, so qsdc does not take it
    assert main(["qsdc", "--coherence", "per_frame"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_spec_names_every_field_its_kind_does_not_read():
    with pytest.raises(ValueError, match="shor_curve does not read rician, eve, use_turbo"):
        SweepSpec("shor_curve", rician=sweeps_mod.RicianParams(zeta=3.0),
                  eve=parse_eve("boost:0.2"), use_turbo=False)
    # a field left at its default is not an input, whatever the kind
    SweepSpec("shor_curve", snr_grid_db=[math.inf], turbo=TurboConfig(), use_shor=False)
    # each kind's default count is the default of its one command
    commands = {"shor_curve": ["shor-curve"], "qsdc_batch": ["qsdc"]}
    for kind, reads in sweeps_mod.SWEEP_KIND_READS.items():
        assert set(reads.fields) <= {f.name for f in dataclasses.fields(SweepSpec)}
        argv = commands.get(kind, ["sweep", "--kind", kind])
        spec = _sweep_spec(parse_command(build_parser(), argv))
        assert (spec.sweep_kind, spec.trials_per_point) == (kind, reads.trials)
    assert [sweeps_mod.SWEEP_KIND_READS[kind].trials for kind in commands] == [1_000_000, 1]


# ---------------------------------------------------------------------------
# a failing session becomes an error row
# ---------------------------------------------------------------------------

def test_session_failure_is_recorded_not_raised(monkeypatch, tmp_path, capsys):
    args = ["qsdc", "--sessions", "11", "-n", "8", "-m", "20", "--payload", "2",
            "--p-e", "0.02", "--snr-db", "0", "--seed", "23"]
    assert main(args + ["--out", str(tmp_path / "good.csv")]) == 0
    capsys.readouterr()
    real = sweeps_mod.run_session

    def fail_session_9(cfg, session_id=0, **kwargs):
        if session_id == 9:
            raise RuntimeError("synthetic session failure")
        return real(cfg, session_id=session_id, **kwargs)

    monkeypatch.setattr(sweeps_mod, "run_session", fail_session_9)
    assert main(args + ["--out", str(tmp_path / "bad.csv")]) == 0
    assert "failed=1" in capsys.readouterr().out
    good = (tmp_path / "good.csv").read_text().splitlines()
    bad = (tmp_path / "bad.csv").read_text().splitlines()
    changed = [i for i, (a, b) in enumerate(zip(good, bad)) if a != b]
    assert len(good) == len(bad) and len(changed) == 1
    row = _parse((tmp_path / "bad.csv").read_text())[9]
    assert row["session_id"] == "9" and row["error"] == "RuntimeError: synthetic session failure"
    assert row["decision"] == row["virtual_qber"] == row["attempts"] == ""
    assert row["seed"] == "23" and row["n_pairs"] == "8"
