"""One node round, three drivers.

The cooperative, threaded and multiprocess executors all run the same
:class:`~repro.distributed.node.PiaNode` protocol step: pump, advance each
subsystem under its safe-time horizon, flush, push grants; and the node's
one ``SafeTimeService`` answers every safe-time request.  These tests pin
what that sharing must preserve:

* the cooperative executor's wire traffic, exactly, for small runs with
  batching on and off (a shared-round change that alters it would
  otherwise show only as a benchmark timing shift);
* the same computed result from every driver, with every safe-time
  request sent also counted as served.
"""

import random
import sys

import pytest

from repro.bench.workloads import compute_star, compute_star_multiprocess
from repro.core import Advance, FunctionComponent, Receive, Send, WaitUntil
from repro.distributed import CoSimulation


def build_fig4(steps: int, *, batching: bool, seed: int = 7) -> CoSimulation:
    """Fig. 4: SS1 steps at seeded gaps, sending each step to SS2 and SS3
    over conservative channels; each echoes it back 0.1 s later."""
    rng = random.Random(seed)
    gaps = [rng.choice((0.5, 0.75, 1.0, 1.25, 1.5)) for __ in range(steps)]
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
        while True:
            __, value = yield Receive("in")
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


def traffic(cosim) -> dict:
    report = cosim.report()
    return {
        "frames": report.counter("transport.frames_sent"),
        "bytes": report.counter("transport.bytes_on_wire"),
        "safetime.requests": report.counter("safetime.requests"),
        "safetime.piggybacked": report.counter("safetime.piggybacked"),
        "safetime.pushed": report.counter("safetime.pushed"),
        "scheduler.stalls": report.counter("scheduler.stalls"),
        "rounds": cosim.rounds,
    }


def progress_rows(report) -> list:
    return sorted((row["name"], row["time"], row["dispatched"])
                  for row in report.subsystems)


SCENARIOS = {
    "star-batched": lambda: compute_star(2, 6, words=50, batching=True),
    "star-unbatched": lambda: compute_star(2, 6, words=50, batching=False),
    "fig4-batched": lambda: build_fig4(40, batching=True),
    "fig4-unbatched": lambda: build_fig4(40, batching=False),
}


def _counts(*, frames, bytes, requests, piggybacked, pushed, stalls,
            rounds) -> dict:
    return {"frames": frames, "bytes": bytes,
            "safetime.requests": requests,
            "safetime.piggybacked": piggybacked,
            "safetime.pushed": pushed, "scheduler.stalls": stalls,
            "rounds": rounds}


#: The cooperative executor's traffic for each scenario.  Any change here
#: is a change to what the cooperative wire protocol sends.
PINNED = {
    "star-batched": _counts(frames=30, bytes=2548, requests=0, piggybacked=30,
                            pushed=6, stalls=0, rounds=10),
    "star-unbatched": _counts(frames=72, bytes=3862, requests=24,
                              piggybacked=0, pushed=0, stalls=5, rounds=13),
    "fig4-batched": _counts(frames=324, bytes=20321, requests=0,
                            piggybacked=324, pushed=164, stalls=119,
                            rounds=124),
    "fig4-unbatched": _counts(frames=800, bytes=36551, requests=320,
                              piggybacked=0, pushed=0, stalls=158,
                              rounds=121),
}


class TestCooperativeTraffic:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_traffic_is_pinned(self, scenario):
        cosim = SCENARIOS[scenario]()
        cosim.run()
        assert traffic(cosim) == PINNED[scenario]


def star_report(executor: str):
    """``compute_star(2, 6, words=50)`` with batching on, run to the end
    by ``executor``."""
    if executor == "multiprocess":
        with compute_star_multiprocess(2, 6, words=50) as cosim:
            cosim.run(timeout=60.0)
            return cosim.report()
    cosim = compute_star(2, 6, words=50, batching=True, executor=executor)
    cosim.run()
    return cosim.report()


class TestOneRoundForEveryDriver:
    @pytest.mark.parametrize("executor", ["cosim", "threaded",
                                          "multiprocess"])
    def test_same_result_and_every_request_served(self, executor):
        report = star_report(executor)
        assert progress_rows(report) == progress_rows(star_report("cosim"))
        assert report.counter("safetime.served") \
            == report.counter("safetime.requests")

    def test_threaded_rounds_hold_under_preemption(self):
        """More node threads than cores, switching every few bytecodes:
        a grant or ledger update lost between a node's round and a peer's
        safe-time request would stall the star or change its result."""
        reference = compute_star(4, 4, words=20, batching=True)
        reference.run()
        threaded = compute_star(4, 4, words=20, batching=True,
                                executor="threaded")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded.run(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert progress_rows(threaded.report()) \
            == progress_rows(reference.report())
