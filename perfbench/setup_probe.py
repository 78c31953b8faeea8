"""Set-up probe: a fresh interpreter reaches a workload's first unit of work.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports qtsim, builds the workload's first ``SweepSpec`` and fills the lazy
caches the first ``run_sweep`` call would fill, then prints ``ready``.  The
parent times the interval from starting the process to reading that line.
"""
import sys

import workloads

workloads.warm(workloads.WORKLOADS[sys.argv[1]].spec(int(sys.argv[2]), 0))
print("ready", flush=True)
