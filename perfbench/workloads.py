"""The benchmark's four workloads, built through the program's public API.

Each workload is a closed loop driven from one process: a repetition
builds a fresh system (untimed), times ``run()`` to quiescence, then
reads its exact counts and ``RunReport``.  Output checks and reference
runs happen outside the timed region.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import zlib
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

from repro.apps.wubbleu import WubbleUConfig, build_local, build_split
from repro.bench.workloads import (
    compute_star,
    compute_star_multiprocess,
    make_compute_hub,
)
from repro.core import Advance, FunctionComponent, Receive, Send, WaitUntil
from repro.distributed import (
    CoSimulation,
    MultiprocessCoSimulation,
    WorkerPool,
)
from repro.transport.latency import INTERNET

#: Size of the Fig. 4 scenario: SS1 steps (18,000 events, 40,000 frames).
FIG4_STEPS = 2000
#: SS1's step gaps are drawn from these; all are exact binary fractions,
#: so virtual times add up exactly whatever the draw.
FIG4_GAPS = (0.5, 0.75, 1.0, 1.25, 1.5)
#: The star: one hub, one spoke, ``STAR_ROUNDS`` rounds of
#: ``STAR_WORDS``-word checksums (2,400 events, 1,202 frames).
STAR_ROUNDS = 600
STAR_WORDS = 4000
#: The multiprocess run gives up after this long (a deadlock is a
#: failure, not a hang).
MP_TIMEOUT = 60.0


def exact_counts(report, rounds: int, mp_rounds: int = 0) -> Dict[str, float]:
    """The counts that repeat exactly for a given seed.  ``rounds`` are
    cooperative executor rounds, ``mp_rounds`` the star's hub rounds."""
    links = report.link_totals()
    return {
        "events": report.counter("scheduler.dispatched"),
        "rounds": rounds,
        "mp.rounds": mp_rounds,
        "frames": links["frames"],
        "messages": links["messages"],
        "wire_bytes": links["bytes"],
        "network_delay_s": links["delay"],
        "safetime.requests": report.counter("safetime.requests"),
        "safetime.piggybacked": report.counter("safetime.piggybacked"),
        "safetime.pushed": report.counter("safetime.pushed"),
        "scheduler.stalls": report.counter("scheduler.stalls"),
        "shm.frames": report.counter("transport.shm_frames"),
    }


def progress_rows(report) -> list:
    """Per-subsystem (name, virtual time, events dispatched)."""
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


class Workload:
    """One set of inputs the benchmark runs."""

    name = ""
    why = ""
    #: What the seed generates, or why there is nothing to generate.
    seed_use = ""
    #: Set-ups timed before each repetition (their median over the run
    #: is reported as ``setup_s``).
    setups_per_rep = 5
    #: Whether the workload runs on the multiprocess backplane, so the
    #: ``distributed.multiprocess`` and ``transport.shm`` metrics apply.
    multiprocess = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        """Everything from starting to build the system to calling
        ``run()``; timed as ``setup_s``."""
        return self.build()

    def build(self):
        """An untimed fresh system for one timed repetition."""
        raise NotImplementedError

    def run(self, system) -> None:
        system.run()

    def counts(self, system, report) -> Dict[str, float]:
        return exact_counts(report, system.rounds)

    def outputs(self, system, report):
        """What the system computed; must repeat exactly."""
        return progress_rows(report)

    def check(self, system, report) -> List[str]:
        """Problems with one repetition's outputs."""
        return []

    def reference(self, outputs) -> List[str]:
        """Compare ``outputs`` with an untimed reference run."""
        return []

    def child_pids(self) -> List[int]:
        """Processes whose memory counts towards this workload."""
        return []

    def close(self) -> None:
        """Stop every process the workload started."""


class _WubbleU(Workload):
    config: WubbleUConfig

    def outputs(self, system, report):
        ui = system.component("UI")
        browser = system.component("Browser")
        return {"rows": progress_rows(report),
                "loaded_at": ui.page_loaded_at,
                "pages": browser.pages_loaded,
                "bytes": browser.bytes_received}

    def check(self, system, report) -> List[str]:
        out = self.outputs(system, report)
        page_bytes = self._page.total_bytes
        problems = []
        if out["loaded_at"] is None:
            problems.append("the page never finished loading")
        if out["pages"] != self.config.page_loads:
            problems.append(f"{out['pages']} page loads, expected "
                            f"{self.config.page_loads}")
        if out["bytes"] != page_bytes * self.config.page_loads:
            problems.append(f"browser received {out['bytes']} bytes, "
                            f"expected {page_bytes * self.config.page_loads}")
        return problems


class WubbleURemoteWord(_WubbleU):
    name = "wubbleu_remote_word"
    why = ("Table 1 remote word row: executor rounds, in-memory transport, "
           "batching, codec and telemetry dominate")
    seed_use = "WubbleUConfig.seed: page content"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = WubbleUConfig(level="word", seed=seed)

    def build(self):
        cosim, __, self._page = build_split(
            dataclasses.replace(self.config), network=INTERNET,
            batching=True)
        return cosim

    def reference(self, outputs) -> List[str]:
        # The paper's promise: distribution changes nothing that is
        # computed, so the same page loads at the same virtual instant
        # on one subsystem.
        local, __, ___ = build_local(dataclasses.replace(self.config))
        local.run()
        expected = local.component("UI").page_loaded_at
        if outputs["loaded_at"] != expected:
            return [f"remote page loaded at {outputs['loaded_at']!r}, "
                    f"local at {expected!r}"]
        return []


class WubbleULocalWord(_WubbleU):
    name = "wubbleu_local_word"
    why = ("the same design on one subsystem: scheduler and model code, "
           "distributed layers bypassed")
    seed_use = "WubbleUConfig.seed: page content"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = WubbleUConfig(level="word", page_loads=4, seed=seed)

    def build(self):
        cosim, __, self._page = build_local(dataclasses.replace(self.config))
        return cosim


def build_fig4(gaps, *, batching: bool = False) -> CoSimulation:
    """Fig. 4: SS1 steps through ``gaps``, sending each step to SS2 and
    SS3 over conservative channels; each echoes it back 0.1 s later."""
    cosim = CoSimulation(batching=batching)
    ss1 = cosim.add_subsystem(cosim.add_node("n1"), "ss1")
    ss2 = cosim.add_subsystem(cosim.add_node("n2"), "ss2")
    ss3 = cosim.add_subsystem(cosim.add_node("n3"), "ss3")

    def stepper(comp):
        for gap in gaps:
            yield WaitUntil(comp.local_time + gap)
            yield Send("to2", comp.local_time)
            yield Send("to3", comp.local_time)

    def echo(comp):
        comp.seen = 0
        while True:
            __, value = yield Receive("in")
            comp.seen += 1
            yield Advance(0.1)
            yield Send("back", value)

    def collect(comp):
        while True:
            yield Receive("back")

    c12 = FunctionComponent("c12", stepper, ports={"to2": "out", "to3": "out"})
    c4a = FunctionComponent("c4a", collect, ports={"back": "in"})
    c4b = FunctionComponent("c4b", collect, ports={"back": "in"})
    e2 = FunctionComponent("e2", echo, ports={"in": "in", "back": "out"})
    e3 = FunctionComponent("e3", echo, ports={"in": "in", "back": "out"})
    for subsystem, component in ((ss1, c12), (ss1, c4a), (ss1, c4b),
                                 (ss2, e2), (ss3, e3)):
        subsystem.add(component)
    ch2 = cosim.connect(ss1, ss2)
    ch3 = cosim.connect(ss1, ss3)
    ch2.split_net(ss1.wire("f2", c12.port("to2")),
                  ss2.wire("f2", e2.port("in")))
    ch3.split_net(ss1.wire("f3", c12.port("to3")),
                  ss3.wire("f3", e3.port("in")))
    ch2.split_net(ss2.wire("ret2", e2.port("back")),
                  ss1.wire("ret2", c4a.port("back")))
    ch3.split_net(ss3.wire("ret3", e3.port("back")),
                  ss1.wire("ret3", c4b.port("back")))
    return cosim


class Fig4SafeTime(Workload):
    name = "fig4_safetime"
    why = ("Fig. 4 unbatched: every advance is a synchronous safe-time "
           "request/reply, so calls, serves and codec dominate")
    seed_use = "SS1 step schedule: gaps drawn from FIG4_GAPS"
    setups_per_rep = 9

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.gaps = [rng.choice(FIG4_GAPS) for __ in range(FIG4_STEPS)]

    def build(self):
        return build_fig4(self.gaps)

    def outputs(self, system, report):
        return {"rows": progress_rows(report),
                "echoes": (system.component("e2").seen,
                           system.component("e3").seen)}

    def check(self, system, report) -> List[str]:
        echoes = self.outputs(system, report)["echoes"]
        if echoes != (len(self.gaps), len(self.gaps)):
            return [f"echo counts {echoes}, expected {len(self.gaps)} each"]
        return []

    def reference(self, outputs) -> List[str]:
        batched = build_fig4(self.gaps, batching=True)
        batched.run()
        expected = progress_rows(batched.report())
        if outputs["rows"] != expected:
            return [f"rows {outputs['rows']} differ from the batched run's "
                    f"{expected}"]
        return []


def hub_with_totals(name: str, **kwargs):
    """``make_compute_hub`` whose hub publishes a digest of its
    ``totals`` as telemetry gauges when it finishes, so the totals
    computed in a node process reach the coordinator's report."""
    subsystem = make_compute_hub(name, **kwargs)
    hub = subsystem.component("hub")
    behaviour = hub.run

    def run_then_publish():
        yield from behaviour()
        telemetry = hub.subsystem.telemetry
        telemetry.gauge("bench.hub_rounds", len(hub.totals))
        telemetry.gauge("bench.hub_totals_crc32", totals_crc32(hub.totals))

    hub.run = run_then_publish
    return subsystem


def totals_crc32(totals) -> int:
    return zlib.crc32(",".join(map(str, totals)).encode())


class StarMpShm(Workload):
    name = "star_mp_shm"
    why = ("compute star, one hub and one spoke in two node processes over "
           "shared-memory rings: per-round multiprocess coordination cost")
    seed_use = "none: the star has no random input"
    setups_per_rep = 1
    multiprocess = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool: Optional[WorkerPool] = None

    def setup(self):
        # A cold pool spawns its node processes inside run(); set-up
        # includes spawning and bootstrapping them with a one-round star
        # so the timed runs see a warm pool.
        if self.pool is not None:
            self.pool.close()
        self.pool = WorkerPool()
        compute_star_multiprocess(1, 1, words=1, transport="shm",
                                  pool=self.pool).run(timeout=MP_TIMEOUT)
        return self.build()

    def build(self):
        return compute_star_multiprocess(1, STAR_ROUNDS, words=STAR_WORDS,
                                         transport="shm", pool=self.pool)

    def run(self, system) -> None:
        system.run(timeout=MP_TIMEOUT)

    def counts(self, system, report) -> Dict[str, float]:
        return exact_counts(report, 0, STAR_ROUNDS)

    def reference(self, outputs) -> List[str]:
        problems = []
        cooperative = compute_star(1, STAR_ROUNDS, words=STAR_WORDS)
        cooperative.run()
        expected_rows = progress_rows(cooperative.report())
        if outputs != expected_rows:
            problems.append(f"rows {outputs} differ from the cooperative "
                            f"star's {expected_rows}")
        totals = cooperative.component("hub").totals
        # The same star declared through the public multiprocess API,
        # with a hub that reports its totals.
        checked = MultiprocessCoSimulation(transport="shm", pool=self.pool)
        checked.add_node("n-hub")
        checked.add_subsystem("n-hub", "hub",
                              "perfbench.workloads:hub_with_totals",
                              workers=1, rounds=STAR_ROUNDS)
        checked.add_node("n-w0")
        checked.add_subsystem("n-w0", "w0",
                              "repro.bench.workloads:make_compute_worker",
                              index=0, rounds=STAR_ROUNDS, words=STAR_WORDS)
        checked.connect("hub", "w0", delay=0.25, nets=("go0", "done0"))
        checked.run(timeout=MP_TIMEOUT)
        report = checked.report()
        if progress_rows(report) != expected_rows:
            problems.append("checked multiprocess star rows differ")
        got = (report.gauges.get("bench.hub_rounds"),
               report.gauges.get("bench.hub_totals_crc32"))
        if got != (len(totals), totals_crc32(totals)):
            problems.append(f"hub totals digest {got} differs from the "
                            f"cooperative star's "
                            f"{(len(totals), totals_crc32(totals))}")
        return problems

    def child_pids(self) -> List[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        # Shared-memory rings start the standard library's resource
        # tracker process; stop it and wait for it to exit.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


WORKLOADS = {cls.name: cls for cls in (WubbleURemoteWord, WubbleULocalWord,
                                       Fig4SafeTime, StarMpShm)}

#: The workloads ``BENCHMARK.json`` lists.  ``star_mp_shm`` runs by name
#: but is left out: its run time is not steady on a two-CPU host and its
#: ``RunReport`` does not repeat under CPU contention (see README).
BENCHMARKED = ("wubbleu_remote_word", "wubbleu_local_word", "fig4_safetime")
