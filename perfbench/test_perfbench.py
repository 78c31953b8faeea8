"""Tests of the benchmark itself: its declared metrics, tracer and checks."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as W
from tracer import Tracer, leftover_wrappers

import qtsim
import qtsim.qchannel
import qtsim.qstate
import qtsim.shor
import qtsim.teleport

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_and_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    for key in ("end_to_end", "per_layer"):
        listed = [m["name"] for m in BENCHMARK[key]]
        assert len(listed) == len(set(listed))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in BENCHMARK["end_to_end"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in W.WORKLOADS.items()}


def _tiny_attack(monkeypatch):
    """qsdc_attack shrunk to one small session per unit."""
    wl = W.WORKLOADS["qsdc_attack"]
    base = dataclasses.replace(wl.base, trials_per_point=1, n_pairs=2, m_virtual=20)
    monkeypatch.setitem(W.WORKLOADS, "qsdc_attack", dataclasses.replace(wl, base=base))


def _run(monkeypatch, tmp_path, capsys, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "qsdc_attack", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(monkeypatch, tmp_path, capsys, trace, key):
    _tiny_attack(monkeypatch)
    result = _run(monkeypatch, tmp_path, capsys, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        attempts = result["metrics"]["qsdc.attempts"]["value"]
        assert 1 <= attempts <= 3
        assert result["metrics"]["qsdc.pairs_transited"]["value"] == 22 * attempts
        assert leftover_wrappers() == []


def test_wall_times_are_divided_by_the_readings_around_them(monkeypatch):
    _tiny_attack(monkeypatch)
    wl = W.WORKLOADS["qsdc_attack"]
    readings = iter([{part: 0.01 for part in run.reference.PARTS},
                     {part: 0.03 for part in run.reference.PARTS}])
    monkeypatch.setattr(run.reference, "reading", lambda: next(readings))
    units, normalised, _ = run.closed_loop(wl, seed=3, seconds=0)
    nominal = sum(run.reference.NOMINAL_S[part] for part in wl.reference_parts)
    measured = 0.02 * len(wl.reference_parts)  # mean of the two readings
    assert len(units) == 1
    assert normalised == [pytest.approx(units[0].wall * nominal / measured)]


def test_wrappers_cover_every_binding_and_are_removed_after_an_error():
    original = qtsim.qstate.apply_gate
    bound_in = [m for m in (qtsim, qtsim.qstate, qtsim.qchannel, qtsim.shor, qtsim.teleport)
                if getattr(m, "apply_gate", None) is original]
    assert len(bound_in) == 5  # copied by ``from .qstate import apply_gate``
    bell = qtsim.qstate.make_bell(qtsim.qstate.PHI_PLUS)
    with pytest.raises(ValueError):
        with Tracer(["qstate.apply_gate"]):
            wrapper = qtsim.qstate.apply_gate
            assert wrapper is not original
            assert all(module.apply_gate is wrapper for module in bound_in)
            qtsim.qstate.apply_gate(bell, "nope", 0)
    assert all(module.apply_gate is original for module in bound_in)
    assert leftover_wrappers() == []


def test_self_time_excludes_child_spans():
    bell = qtsim.qstate.make_bell(qtsim.qstate.PHI_PLUS)
    tracer = Tracer(["qstate.apply_pauli", "qstate.apply_gate"], op_roots=["qstate.apply_pauli"])
    with tracer:
        qtsim.qstate.apply_pauli(bell, 1, qtsim.qstate.PauliError.Y)
    names = [span[0] for span in tracer.spans]
    assert names == ["qstate.apply_pauli", "qstate.apply_gate", "qstate.apply_gate"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert {span[4] for span in tracer.spans} == {1}
    summary = tracer.summary()
    children = summary["qstate.apply_gate"]["s"]
    assert summary["qstate.apply_gate"]["calls"] == 2
    assert summary["qstate.apply_pauli"]["self_s"] == pytest.approx(
        summary["qstate.apply_pauli"]["s"] - children)


def test_virtual_qber_expectation_matches_exhaustive_decoder():
    p_eq = W.P_EQ + W.BOOST
    p = p_eq / 3.0
    idx = np.arange(4**9)
    digits = (idx[:, None] >> (2 * np.arange(9))) & 3  # 0=I 1=X 2=Z 3=Y
    xs = (digits == 1) | (digits == 3)
    zs = (digits == 2) | (digits == 3)
    n_identity = np.count_nonzero(digits == 0, axis=1)
    prob = p ** (9 - n_identity) * (1.0 - p_eq) ** n_identity
    logical_x, _ = qtsim.shor._logical_flags(xs, zs)
    assert W.virtual_qber_expected(p_eq) == pytest.approx(prob[logical_x].sum(), rel=1e-12)
