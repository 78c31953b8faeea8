"""qtsim benchmark: one workload per invocation, driven through run_sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md`` in this directory):
``ber_curve``, ``ber_curve_2w``, ``qsdc_attack``, ``qsdc_payload``.

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
runs a closed loop of ``run_sweep`` calls for ``--seconds`` seconds and
prints the end-to-end metrics.  Between any two calls it reads the host's
speed from a fixed reference loop (``reference.py``), and the timed metrics
are normalised by it.  With ``--trace 1`` it runs the same closed loop
untraced, then runs its first units again with every listed layer function
wrapped from outside, and prints the per-layer metrics.  Every run checks
the program's outputs; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record (the
environment, checks, raw wall times, tail latency, layer shares, and spans
for traced runs) goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 6  # fresh interpreters timed before the loop; setup_s is their median
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

import reference  # noqa: E402
import workloads as W  # noqa: E402  (exits if the qtsim source is missing)
from tracer import Tracer, leftover_wrappers  # noqa: E402

import qtsim.sweeps  # noqa: E402
from qtsim.sweeps import render_csv  # noqa: E402


@dataclasses.dataclass
class Unit:
    spec: object
    rows: list
    wall: float
    error: str | None = None


def run_unit(spec) -> Unit:
    t0 = time.perf_counter()
    try:
        rows = qtsim.sweeps.run_sweep(spec)  # via the module, so a tracer sees it
    except Exception:  # a failing unit is counted, and the loop goes on
        traceback.print_exc()
        return Unit(spec, [], time.perf_counter() - t0, traceback.format_exc(limit=1))
    return Unit(spec, rows, time.perf_counter() - t0)


def closed_loop(wl, seed: int, seconds: float):
    """Run units back to back until ``seconds`` have passed (at least one).

    The host's speed is read before the first unit and after each unit.
    Returns the units, each unit's normalised wall time and the readings.
    A unit's normalised time is its wall time scaled by the nominal over the
    measured time of the workload's reference parts, the measured time being
    the mean of the readings before and after the unit; a workload without
    reference parts keeps its wall times.
    """
    units, readings = [], [reference.reading()]
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(run_unit(wl.spec(seed, len(units))))
        readings.append(reference.reading())
    parts = wl.reference_parts
    normalised = [unit.wall for unit in units]
    if parts:
        nominal = sum(reference.NOMINAL_S[part] for part in parts)
        speed = [sum(r[part] for part in parts) for r in readings]
        normalised = [wall * nominal / ((before + after) / 2)
                      for wall, before, after in zip(normalised, speed, speed[1:])]
    return units, normalised, readings


def time_to_ready(args: list[str]) -> float:
    """Seconds from starting an interpreter to reading its ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{args[1]} failed (exit {code}, said {line!r})")
    return elapsed


def measure_setup(wl, seed: int) -> list[tuple[float, float]]:
    """Time for a fresh interpreter to import qtsim, build the spec and warm caches.

    Returns (wall, normalised) seconds per probe.  Probes alternate with a
    baseline interpreter that only imports numpy, and a probe's normalised
    time is its wall time scaled by ``reference.NOMINAL_START_S`` over the
    mean baseline around it.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)]
    times = []
    before = time_to_ready(reference.START_BASELINE)
    for _ in range(SETUP_RUNS):
        elapsed = time_to_ready(probe)
        after = time_to_ready(reference.START_BASELINE)
        times.append((elapsed, elapsed * reference.NOMINAL_START_S / ((before + after) / 2)))
        before = after
    return times


def same_csv(a: Unit, b: Unit) -> bool:
    """Both units succeeded and wrote the same CSV bytes."""
    return (a.error is None and b.error is None
            and render_csv(a.spec, a.rows) == render_csv(b.spec, b.rows))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail(latencies: list[float]) -> dict:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value_s": statistics.quantiles(latencies, n=100)[p - 1],
                    "samples": n}
    return {"percentile": None, "samples": n}


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer: Tracer, n_ops: int, traced_wall: float,
                  overhead_per_op: float, parallel_efficiency: float) -> dict:
    """Per-layer metrics of the traced units, per operation where additive."""
    summary = tracer.summary()
    counts = tracer.counts
    out = {}
    for target in W.TRACED:
        entry = summary.get(target, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{target}.calls"] = (entry["calls"] / n_ops, "count/op")
        out[f"{target}.s"] = (entry["s"] / n_ops, "s/op")
        out[f"{target}.self_s"] = (entry["self_s"] / n_ops, "s/op")
    for name, unit in W.COUNTERS.items():
        out[name] = (counts.get(name, 0) / n_ops, unit)

    def s(target, key="s"):
        return summary.get(target, {}).get(key, 0)

    attempts = counts.get("qsdc.attempts", 0)
    encodes = s("shor.shor_encode", "calls")
    blocks = counts.get("turbo.decode_blocks", 0)
    decodes = s("turbo.turbo_decode_batch", "calls")
    transit = s("shor.shor_encode") + s("shor.shor_decode") + s("qchannel.depolarize_qubit")
    out["sweeps.parallel_efficiency"] = (parallel_efficiency, "ratio")
    out["qsdc.accepted_attempt_ratio"] = (
        (attempts - counts.get("qsdc.aborts", 0)) / attempts if attempts else 0.0, "ratio")
    out["shor.transit_ms_per_pair"] = (1000 * transit / encodes if encodes else 0.0, "ms")
    out["turbo.blocks_per_call"] = (blocks / decodes if decodes else 0.0, "blocks/call")
    out["turbo.decode_ms_per_block"] = (
        1000 * s("turbo.turbo_decode_batch") / blocks if blocks else 0.0, "ms")
    for layer, fns in W.LAYERS.items():
        self_s = sum(s(f"{layer}.{fn}", "self_s") for fn in fns)
        out[f"{layer}.self_share"] = (self_s / traced_wall, "ratio")
    out["bench.trace_overhead_s"] = (overhead_per_op, "s/op")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    record = {"workload": wl.name, "why": wl.why, "trace": args.trace,
              "environment": environment(args.seed)}

    if not args.trace:
        setup_times = measure_setup(wl, args.seed)
        record["setup_runs_s"] = [wall for wall, _ in setup_times]
        record["setup_runs_normalised_s"] = [norm for _, norm in setup_times]
    W.warm(wl.spec(args.seed, 0))

    units, normalised, readings = closed_loop(wl, args.seed, args.seconds)
    attempted = sum(W.ops_in(u.spec) for u in units)
    failed, notes = W.CHECKS[wl.name](units)

    parallel_efficiency = 1.0
    if wl.base.threads > 1:
        # The determinism contract: a serial run writes the same CSV bytes.
        serial = run_unit(dataclasses.replace(units[0].spec, threads=1))
        if not same_csv(serial, units[0]):
            failed = max(failed, W.ops_in(units[0].spec))
            notes.append("threads=2 CSV differs from the threads=1 CSV")
        parallel_efficiency = serial.wall / (wl.base.threads * units[0].wall)
        record["serial_unit0_wall_s"] = serial.wall

    metrics = {}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = Tracer(W.traced_targets(wl), W.HOOKS, op_roots=(W.op_root(wl),))
        with tracer:
            traced = [run_unit(wl.spec(args.seed, i)) for i in range(wl.traced_units)]
        n_ops = sum(W.ops_in(u.spec) for u in traced)
        attempted += n_ops
        t_failed, t_notes = W.CHECKS[wl.name](traced)
        failed += t_failed
        notes += [f"traced units: {n}" for n in t_notes]
        pairs = list(zip(traced, units))  # units the untimed loop also ran
        changed = [t for t, u in pairs if not same_csv(t, u)]
        if changed:
            failed += sum(W.ops_in(t.spec) for t in changed)
            notes.append(f"tracing changed the output of {len(changed)} units")
        leftovers = leftover_wrappers()
        if leftovers:
            failed += n_ops
            notes.append(f"wrappers left installed: {leftovers}")
        traced_wall = sum(t.wall for t in traced)
        overhead = sum(t.wall - u.wall for t, u in pairs) / sum(W.ops_in(t.spec) for t, _ in pairs)
        layer = layer_metrics(tracer, n_ops, traced_wall, overhead, parallel_efficiency)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
        shares = {k[: -len(".self_share")]: v for k, (v, _) in layer.items()
                  if k.endswith(".self_share")}
        dominant = max(shares, key=shares.get)
        record["dominant_layer"] = {"observed": dominant, "predicted": wl.dominant_layer}
        record["traced_wall_s"] = traced_wall
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans_path)
        record["spans"] = spans_path.name

    completed = sum(W.ops_in(u.spec) for u in units if u.error is None)
    latencies = [n / W.ops_in(u.spec) for u, n in zip(units, normalised)]
    end_to_end = {
        "ops_per_s": (completed / sum(normalised), "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if not args.trace:
        setup_s = statistics.median(norm for _, norm in setup_times)
        end_to_end = {"setup_s": (setup_s, "s"), **end_to_end}
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in end_to_end.items()}

    walls = [u.wall for u in units]
    record.update(
        units=len(units), unit_walls_s=walls, unit_normalised_s=normalised,
        reference_parts=wl.reference_parts, reference_readings_s=readings,
        reference_nominal_s=reference.NOMINAL_S,
        raw_ops_per_s=completed / sum(walls),
        raw_op_s_p50=statistics.median(w / W.ops_in(u.spec) for u, w in zip(units, walls)),
        op_tail=tail(latencies),
        end_to_end={k: v for k, (v, _) in end_to_end.items()},
        checks=notes, parallel_efficiency=parallel_efficiency,
    )
    if not wl.is_session:
        record["coded_bits_per_s"] = W.BER_TRIALS * completed / sum(normalised)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name}: {len(units)} units, {failed}/{attempted} operations failed")
    for note in notes:
        print(f"  check: {note}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name in ("raw_ops_per_s", "raw_op_s_p50", "coded_bits_per_s", "serial_unit0_wall_s"):
        if name in record:
            print(f"  {name} = {record[name]:.6g}")
    tail_info = record["op_tail"]
    if tail_info["percentile"] is not None:
        print(f"  op_s.p{tail_info['percentile']} = {tail_info['value_s']:.6g} s "
              f"({tail_info['samples']} ops)")
    if args.trace:
        print(f"  dominant layer: {record['dominant_layer']['observed']} "
              f"(predicted {wl.dominant_layer})")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name}.self_share = {share:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
