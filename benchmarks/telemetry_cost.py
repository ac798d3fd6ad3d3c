#!/usr/bin/env python
"""End-to-end cost of default-on telemetry on the benchmark workloads.

Builds each workload of ``perfbench`` with its default ``Telemetry()``
and times ``run()`` with the gate on and with it switched off before the
run (what ``Telemetry(enabled=False)`` gives), in interleaved pairs that
alternate which side runs first.  Prints, per workload, the median and
quartiles of each side and the median on/off ratio.

The dark runs mint no span contexts, so their messages are a little
smaller on the wire: the ratio includes that codec saving, not only the
counters and trace records.  The always-on flight recorder runs in both.

Usage, from the repository root::

    python benchmarks/telemetry_cost.py [--pairs 7] [--seed 7] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import BENCHMARKED, WORKLOADS  # noqa: E402


def timed_run(workload, enabled: bool) -> float:
    system = workload.build()
    if not enabled:
        system.telemetry.disable()
    gc.collect()
    start = time.perf_counter()
    workload.run(system)
    return time.perf_counter() - start


def quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(BENCHMARKED))
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name in args.workloads:
        workload = WORKLOADS[name](args.seed)
        timed_run(workload, True)           # warm caches and imports
        on, off = [], []
        for pair in range(args.pairs):
            order = (True, False) if pair % 2 == 0 else (False, True)
            for enabled in order:
                (on if enabled else off).append(timed_run(workload, enabled))
        q_on, q_off = quartiles(on), quartiles(off)
        print(f"{name:22s} on {q_on[1]:.3f} s (q1 {q_on[0]:.3f} "
              f"q3 {q_on[2]:.3f})  off {q_off[1]:.3f} s (q1 {q_off[0]:.3f} "
              f"q3 {q_off[2]:.3f})  on/off {q_on[1] / q_off[1]:.3f}  "
              f"n={args.pairs}")
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
