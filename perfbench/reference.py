"""Fixed reference work that measures the host's current speed.

A shared host's speed drifts: the same session takes from 0.3 s to 0.6 s
within a minute on a 2-vCPU guest, without any CPU time being stolen.  The
benchmark therefore times reference work between consecutive operations and
divides each operation's wall time by it, for the workloads whose work the
reference resembles (``Workload.reference_parts``).  The reference is the
benchmark's own code and calls nothing in qtsim, so a change to the program
cannot move it.  It has two parts:

- ``gates``: gate applications on an 11-qubit state vector (``tensordot``
  and ``moveaxis``, as in ``qstate``),
- ``interpreter``: a pure-Python loop (as in the protocol code).

Both allocate nothing larger than 32 KiB.  Larger numpy temporaries are each
a fresh ``mmap`` until glibc raises its mmap threshold, which happens once
the process frees a larger block; an element-wise loop on 64 x 1027 arrays
ran twice as fast after freeing an 8 MB array as before.
"""
from __future__ import annotations

import statistics
import sys
import time

import numpy as np

PASSES = 3  # a part's reading is the median of this many passes
# Seconds per part on the host the bounds were set on (Intel Xeon vCPU).  A
# normalised time is the wall time this host would give at that speed:
# wall_s * sum(NOMINAL_S[parts]) / sum(reading[parts]).
NOMINAL_S = {"gates": 0.007, "interpreter": 0.005}

# Set-up is timed in fresh interpreters, whose start-up (loading shared
# libraries and byte code) the parts above do not exercise.  Its reference
# is a fresh interpreter that imports numpy and nothing of qtsim; a set-up
# probe's normalised time is its wall time * NOMINAL_START_S / baseline_s.
START_BASELINE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
NOMINAL_START_S = 0.2

_rng = np.random.default_rng(20241017)
_STATE = (_rng.standard_normal(1 << 11) + 1j * _rng.standard_normal(1 << 11)).reshape((2,) * 11)
_GATE = np.array([[0, 1], [1, 0]], dtype=complex)


def _gates() -> None:
    state = _STATE
    for qubit in range(11):
        for _ in range(20):
            state = np.moveaxis(np.tensordot(_GATE, state, axes=([1], [qubit])), 0, qubit)


def _interpreter() -> None:
    acc = 0
    for i in range(60000):
        acc += i * i


PARTS = {"gates": _gates, "interpreter": _interpreter}


def reading() -> dict[str, float]:
    """The host's current speed: per part, the median wall time of a few passes."""
    out = {}
    for name, part in PARTS.items():
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    return out
