#!/usr/bin/env python3
"""End-to-end co-simulation benchmark with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload wubbleu_remote_word --seed 7 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, one process each

``--trace 0`` times untraced repetitions and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(every repetition, quartiles, exact counts, host fingerprint) and the
traced spans are written under ``perfbench/out/``.

The program is imported from ``src/`` of the same checkout and is never
modified or built; the benchmark exits with status 2 when that source is
missing.  See ``perfbench/README.md`` for the workloads, the metrics and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 7
DEFAULT_SECONDS = 20
#: Untraced repetitions per run at least, however long they take.
MIN_REPS = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` and keep every
    file it might write inside ``perfbench/out/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no program source at {SRC}; run from a repository checkout")
    # The script's own directory would make ``workloads`` and ``metrics``
    # importable as top-level names; the package path replaces it.
    sys.path[:] = [SRC, ROOT] + [
        entry for entry in sys.path
        if os.path.abspath(entry or os.curdir) != HERE]
    os.makedirs(OUT, exist_ok=True)
    # Benchmark helpers of the program rewrite committed result files
    # unless these point elsewhere; the flight recorder dumps here too.
    os.environ["PIA_BENCH_JSON"] = os.path.join(OUT, "bench_record.json")
    os.environ["PIA_BENCH_RESULTS"] = OUT
    os.environ["PIA_FLIGHT_DIR"] = OUT
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def check_spec() -> None:
    """The metrics this script reports must be the ones BENCHMARK.json
    declares."""
    from perfbench.metrics import END_TO_END, OVERHEAD, per_layer
    from perfbench.workloads import BENCHMARKED

    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"], m["better"])
                for m in spec["end_to_end"]]
    if declared != [tuple(m) for m in END_TO_END]:
        fail(f"end_to_end in {path} does not match perfbench.metrics")
    declared = [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer"]]
    mine = [(m.name, m.unit, m.better)
            for m in per_layer(False)] + [tuple(OVERHEAD)]
    if declared != mine:
        fail(f"per_layer in {path} does not match perfbench.metrics")
    if [w["name"] for w in spec["workloads"]] != list(BENCHMARKED):
        fail(f"workloads in {path} do not match perfbench.workloads")


def fingerprint() -> dict:
    import numpy

    from repro import _native

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _native.BACKEND,
        "pia_pure_set": os.environ.get("PIA_PURE", "") not in ("", "0"),
    }


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor gave to other guests since boot, summed
    over this machine's CPUs (Linux ``/proc/stat``); None elsewhere."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _vmhwm_kb(pid) -> int:
    """Peak resident set of ``pid`` ("self" for this process), in kB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0


def peak_rss_mb(pids: List[int]) -> float:
    return (_vmhwm_kb("self") + sum(_vmhwm_kb(pid) for pid in pids)) / 1024


def quartiles(values: List[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Rep(NamedTuple):
    run_s: Optional[float]
    counts: Optional[dict]
    report: Optional[dict]
    outputs: object
    problems: List[str]


def one_rep(workload, tracer=None, run_id: int = 0) -> Rep:
    """Build a fresh system, time ``run()``, read counts and outputs."""
    system = workload.build()
    gc.collect()
    try:
        if tracer is not None:
            tracer.begin(run_id)
        started = time.perf_counter()
        if tracer is not None:
            tracer.root(lambda: workload.run(system))
        else:
            workload.run(system)
        elapsed = time.perf_counter() - started
        report = system.report()
        counts = workload.counts(system, report)
    except Exception as exc:  # a failed repetition is counted, not fatal
        return Rep(None, None, None, None, [f"{type(exc).__name__}: {exc}"])
    finally:
        if tracer is not None:
            tracer.finish()
    return Rep(elapsed, counts, report.to_dict(),
               workload.outputs(system, report),
               workload.check(system, report))


def differences(a, b, path: str = "") -> List[str]:
    """Paths at which two JSON-like values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [found for key in sorted(set(a) | set(b), key=str)
                for found in differences(a.get(key), b.get(key),
                                         f"{path}.{key}")]
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) \
            and len(a) == len(b):
        return [found for index, (x, y) in enumerate(zip(a, b))
                for found in differences(x, y, f"{path}[{index}]")]
    return [] if a == b else [f"{path or '.'}: {a!r} != {b!r}"]


def judge(reps: List[Rep]) -> List[List[str]]:
    """Per-repetition problems, including disagreement with the other
    repetitions: exact counts, RunReport and outputs must repeat.  The
    result most repetitions agree on is the reference, so one odd
    repetition fails alone, whichever comes first."""
    def key(rep):
        return repr((rep.counts, rep.report, rep.outputs))

    good = [rep for rep in reps if not rep.problems]
    keys = [key(rep) for rep in good]
    reference = max(good, key=lambda rep: keys.count(key(rep)),
                    default=None)
    verdicts = []
    for index, rep in enumerate(reps):
        problems = list(rep.problems)
        if not problems:
            for what in ("counts", "report", "outputs"):
                found = differences(getattr(reference, what),
                                    getattr(rep, what))
                if found:
                    problems.append(
                        f"repetition {index}: {what} differ from most "
                        f"repetitions at {'; '.join(found[:4])}")
        verdicts.append(problems)
    return verdicts


def reference_problems(workload, reps: List[Rep]) -> List[str]:
    good = next((rep for rep in reps if not rep.problems), None)
    if good is None:
        return ["no repetition succeeded"]
    try:
        return workload.reference(good.outputs)
    except Exception as exc:
        return [f"reference run: {type(exc).__name__}: {exc}"]


def timed_setups(workload) -> List[float]:
    times = []
    for __ in range(workload.setups_per_rep):
        gc.collect()
        started = time.perf_counter()
        system = workload.setup()
        times.append(time.perf_counter() - started)
        del system
    return times


def run_plain(workload, seconds: float) -> dict:
    from perfbench.metrics import END_TO_END

    setups: List[float] = []
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Stop once another repetition would end further past the deadline
    # than halfway, so a run measures about ``seconds``.
    while len(reps) < MIN_REPS or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        # Set-ups are timed throughout the run, not in a burst at its
        # start, so that they see the same host as the repetitions.
        setups += timed_setups(workload)
        reps.append(one_rep(workload))
        last = time.perf_counter() - started
        if len(reps) == MIN_REPS:
            # After a fixed amount of work, so that memory a process
            # keeps per repetition does not depend on host speed.
            rss = peak_rss_mb(workload.child_pids())
    verdicts = judge(reps)
    reference = reference_problems(workload, reps)
    good = [rep for rep, problems in zip(reps, verdicts) if not problems]
    run_times = [rep.run_s for rep in good]
    paper_times = [rep.run_s + rep.counts["network_delay_s"] for rep in good]
    stats = {
        "run_s": quartiles(run_times) if good else None,
        "setup_s": quartiles(setups),
        "paper_time_s": quartiles(paper_times) if good else None,
        "peak_rss_mb": {"median": rss, "q1": rss, "q3": rss, "n": 1},
    }
    metrics = {m.name: {"value": stats[m.name]["median"]
                        if stats[m.name] else 0.0, "unit": m.unit}
               for m in END_TO_END}
    return {
        "metrics": metrics,
        "stats": stats,
        "attempted": len(reps) + 1,
        "failed": sum(1 for p in verdicts if p) + (1 if reference else 0),
        "problems": [p for v in verdicts for p in v] + reference,
        "counts": good[0].counts if good else None,
        "run_times": [rep.run_s for rep in reps],
        "setup_times": setups,
    }


def run_traced(workload, seconds: float) -> dict:
    from perfbench.metrics import OVERHEAD, per_layer
    from perfbench.tracing import Tracer

    tracer = Tracer()
    # One traced set-up (run id 0): where a pool spawns its workers.
    tracer.install()
    try:
        tracer.begin(0)
        try:
            workload.setup()
        finally:
            tracer.finish()
    finally:
        tracer.uninstall()
    setup_summary = tracer.summary(0)
    untraced: List[Rep] = []
    traced: List[Rep] = []
    summaries = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not traced or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        untraced.append(one_rep(workload))
        tracer.install()
        try:
            rep = one_rep(workload, tracer, len(traced) + 1)
        finally:
            tracer.uninstall()
        traced.append(rep)
        summaries.append(tracer.summary(len(traced)))
        last = time.perf_counter() - started
    reps = untraced + traced
    verdicts = judge(reps)
    reference = reference_problems(workload, reps)
    ok = [not problems for problems in verdicts]
    ok_traced = ok[len(untraced):]
    metrics = {}
    for metric in per_layer(workload.multiprocess):
        values = [metric.value(summary, rep.counts, setup_summary)
                  for summary, rep, fine in zip(summaries, traced, ok_traced)
                  if fine]
        metrics[metric.name] = {
            "value": statistics.median(values) if values else 0.0,
            "unit": metric.unit}
    plain = [rep.run_s for rep, fine in zip(untraced, ok) if fine]
    slow = [rep.run_s for rep, fine in zip(traced, ok_traced) if fine]
    ratio = (statistics.median(slow) / statistics.median(plain)
             if plain and slow else 0.0)
    metrics[OVERHEAD.name] = {"value": ratio, "unit": OVERHEAD.unit}
    spans = tracer.save(os.path.join(OUT, f"{workload.name}-spans.npz"))
    return {
        "metrics": metrics,
        "stats": {"untraced_run_s": quartiles(plain) if plain else None,
                  "traced_run_s": quartiles(slow) if slow else None},
        "attempted": len(reps) + 1,
        "failed": sum(1 for fine in ok if not fine) + (1 if reference else 0),
        "problems": [p for v in verdicts for p in v] + reference,
        "counts": next((rep.counts for rep, fine in zip(reps, ok) if fine),
                       None),
        "spans_written": spans,
        "run_times": {"untraced": [rep.run_s for rep in untraced],
                      "traced": [rep.run_s for rep in traced]},
    }


def run_one(args) -> int:
    bootstrap()
    check_spec()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    host = fingerprint()
    print(f"# workload {workload.name}  seed {args.seed} "
          f"({workload.seed_use})  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    stolen = steal_seconds()
    try:
        if args.trace:
            result = run_traced(workload, args.seconds)
        else:
            result = run_plain(workload, args.seconds)
    finally:
        workload.close()
    if stolen is not None:
        # Host noise: CPU time other guests took while this run ran.
        host["steal_s"] = steal_seconds() - stolen
        print(f"# host steal during the run: {host['steal_s']:.2f} s")
    stats = result["stats"]
    for name, metric in result["metrics"].items():
        spread = stats.get(name)
        detail = (f"  (median; q1 {spread['q1']:.6g}  q3 {spread['q3']:.6g}"
                  f"  n={spread['n']})" if spread else "")
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}{detail}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':40s} {failed_frac:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} repetitions "
          "and reference checks)")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    record = dict(result, workload=workload.name, seed=args.seed,
                  seed_use=workload.seed_use, seconds=args.seconds,
                  trace=args.trace, host=host)
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    bootstrap()
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        ok = done.returncode == 0 and lines
        results[name] = json.loads(lines[-1]) if ok else None
    finished = [result for result in results.values() if result]
    order = list(finished[0]["metrics"]) if finished else []
    print()
    print(f"{'metric':36s} {'unit':6s} "
          + " ".join(f"{name:>20s}" for name in results))
    rows = [(metric, finished[0]["metrics"][metric]["unit"],
             lambda r, metric=metric: r["metrics"][metric]["value"])
            for metric in order]
    rows.append(("failed_frac", "ratio",
                 lambda r: r["failed"] / r["attempted"]))
    for metric, unit, value in rows:
        cells = [f"{value(r):20.6g}" if r else f"{'FAILED':>20s}"
                 for r in results.values()]
        print(f"{metric:36s} {unit:6s} " + " ".join(cells))
    print(json.dumps(results))
    good = all(r is not None and r["correct"] for r in results.values())
    return 0 if good else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name (see README)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
