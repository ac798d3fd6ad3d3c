"""Bound counter handles and the raw trace ring against the name-based path.

Hot sites bump counters held in :class:`CounterHandles` and the trace
ring keeps raw tuples.  Both must be indistinguishable from the plain
path they replace -- ``Telemetry.count(name)`` per increment and a ring
of :class:`TraceRecord` objects -- under every way the registry or the
gate can change mid-run.
"""

import random
import sys
import threading
from collections import deque

import pytest

from repro.core import Event, EventKind, Subsystem, Timestamp
from repro.observability import (
    MetricsRegistry,
    Telemetry,
    TraceBuffer,
    TraceKind,
    TraceRecord,
)
from repro.observability.metrics import CounterHandles
from repro.observability.timeseries import TimeSeriesRecorder
from repro.transport import NetworkAccounting

LINKS = (("a", "b"), ("b", "a"), ("a", "c"))


def count_by_name(telemetry, src, dst, size, messages, frame):
    """What one accounting call records, spelled as ``count()`` calls."""
    if not telemetry.enabled:
        return
    telemetry.count("transport.messages", messages)
    telemetry.count("transport.bytes", size)
    telemetry.count("transport.frames_sent")
    telemetry.count("transport.bytes_on_wire", size)
    if frame and messages:
        telemetry.observe("transport.batch_size", messages)
    telemetry.count(f"link.{src}->{dst}.messages", messages)
    telemetry.count(f"link.{src}->{dst}.bytes", size)


def series_points(recorder):
    return {name: s.as_list() for name, s in sorted(recorder.series.items())}


class TestAccountingHandles:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_mix_matches_count_by_name(self, seed):
        rng = random.Random(seed)
        accounting = NetworkAccounting()
        bound = accounting.telemetry = Telemetry()
        named = Telemetry()
        pairs = [(bound, named)]
        recorders = (TimeSeriesRecorder(), TimeSeriesRecorder())
        for step in range(400):
            op = rng.choices(
                ("record", "frame", "toggle", "reset", "attach",
                 "registry", "tick"),
                weights=(30, 30, 6, 2, 2, 2, 6))[0]
            src, dst = rng.choice(LINKS)
            size = rng.randrange(1, 200)
            if op == "record":
                accounting.record(src, dst, size)
                count_by_name(named, src, dst, size, 1, frame=False)
            elif op == "frame":
                messages = rng.choice((0, 0, 1, 3, 7))
                accounting.record_frame(src, dst, size, messages)
                count_by_name(named, src, dst, size, messages, frame=True)
            elif op == "toggle":
                for telemetry in (bound, named):
                    if telemetry.enabled:
                        telemetry.disable()
                    else:
                        telemetry.enable()
            elif op == "reset":
                bound.reset()
                named.reset()
            elif op == "attach":
                bound = accounting.telemetry = Telemetry()
                named = Telemetry()
                pairs.append((bound, named))
            elif op == "registry":
                bound.registry = MetricsRegistry()
                named.registry = MetricsRegistry()
            else:
                recorders[0].sample(float(step), bound.registry)
                recorders[1].sample(float(step), named.registry)
            assert bound.registry.snapshot() == named.registry.snapshot()
        for old_bound, old_named in pairs:
            assert (old_bound.registry.snapshot()
                    == old_named.registry.snapshot())
        assert series_points(recorders[0]) == series_points(recorders[1])

    def test_zero_message_frame_creates_its_counters(self):
        accounting = NetworkAccounting()
        accounting.telemetry = Telemetry()
        accounting.record_frame("a", "b", 12, 0)
        counters = accounting.telemetry.registry.snapshot()["counters"]
        assert counters == {
            "link.a->b.bytes": 12, "link.a->b.messages": 0,
            "transport.bytes": 12, "transport.bytes_on_wire": 12,
            "transport.frames_sent": 1, "transport.messages": 0}

    def test_disabled_telemetry_creates_nothing(self):
        accounting = NetworkAccounting()
        accounting.telemetry = Telemetry(enabled=False)
        accounting.record("a", "b", 10)
        accounting.record_frame("a", "b", 10, 2)
        assert accounting.telemetry.registry.counters == {}

    def test_reset_rebinds_and_leaves_old_counters_alone(self):
        accounting = NetworkAccounting()
        telemetry = accounting.telemetry = Telemetry()
        accounting.record("a", "b", 10)
        before = telemetry.registry.counters["link.a->b.bytes"]
        telemetry.reset()
        assert telemetry.registry.counters == {}
        accounting.record("a", "b", 5)
        assert telemetry.registry.counters["link.a->b.bytes"].value == 5
        assert before.value == 10


class TestHandleNames:
    def test_unknown_attribute_is_an_error_not_a_counter(self):
        registry = MetricsRegistry()
        with pytest.raises(AttributeError):
            registry.handles.dispatchd
        assert registry.counters == {}

    def test_first_read_creates_the_named_counter(self):
        registry = MetricsRegistry()
        counter = registry.handles.dispatched
        assert registry.counters == {"scheduler.dispatched": counter}
        assert registry.handles.dispatched is counter


def _ticking_subsystem(events: int) -> Subsystem:
    subsystem = Subsystem("s")
    for i in range(events):
        subsystem.scheduler.schedule(
            Event(Timestamp(float(i + 1)), EventKind.CONTROL,
                  lambda event: None))
    return subsystem


class TestSchedulerHandles:
    def test_dispatches_count_only_while_enabled(self):
        subsystem = _ticking_subsystem(30)
        telemetry = Telemetry()
        subsystem.attach_telemetry(telemetry)
        scheduler = subsystem.scheduler
        scheduler.run(10.0)
        telemetry.disable()
        scheduler.run(20.0)
        telemetry.enable()
        scheduler.run(25.0)
        assert telemetry.registry.counters["scheduler.dispatched"].value == 15
        telemetry.reset()
        second = Telemetry()
        subsystem.attach_telemetry(second)
        scheduler.run()
        assert telemetry.registry.counters == {}
        assert second.registry.counters["scheduler.dispatched"].value == 5
        assert len(second.trace_buffer.records(TraceKind.DISPATCH)) == 5

    def test_handler_switching_telemetry_off_stops_counting(self):
        subsystem = Subsystem("s")
        telemetry = Telemetry()
        subsystem.attach_telemetry(telemetry)
        scheduler = subsystem.scheduler
        scheduler.schedule(Event(Timestamp(1.0), EventKind.CONTROL,
                                 lambda event: telemetry.disable()))
        scheduler.schedule(Event(Timestamp(2.0), EventKind.CONTROL,
                                 lambda event: None))
        scheduler.run()
        assert telemetry.registry.counters == {}

    def test_stalls_count_and_zero_stalls_create_nothing(self):
        subsystem = _ticking_subsystem(4)
        telemetry = Telemetry()
        subsystem.attach_telemetry(telemetry)
        subsystem.scheduler.run(horizon=100.0)
        assert "scheduler.stalls" not in telemetry.registry.counters
        subsystem = _ticking_subsystem(4)
        subsystem.attach_telemetry(telemetry)
        subsystem.scheduler.run(horizon=2.5)
        subsystem.scheduler.run(horizon=2.5)
        assert telemetry.registry.counters["scheduler.stalls"].value == 2


class ObjectRing:
    """The ring the raw one replaced: ``TraceRecord`` objects in a
    bounded deque."""

    def __init__(self, capacity):
        self.ring = deque(maxlen=capacity)
        self.appended = 0

    def append(self, record):
        self.ring.append(record)
        self.appended += 1


class TestRawRing:
    KINDS = (TraceKind.DISPATCH, TraceKind.MSG_SEND, TraceKind.MSG_RECV,
             TraceKind.STALL)

    def test_longer_than_capacity_matches_object_ring(self):
        rng = random.Random(3)
        telemetry = Telemetry(trace_capacity=16)
        reference = ObjectRing(16)
        for seq in range(1, 101):
            kind = rng.choice(self.KINDS)
            details = {"hop": seq % 5} if seq % 3 else {}
            telemetry.trace(kind, time=seq / 4, subject=f"ss{seq % 3}",
                            **details)
            reference.append(TraceRecord(seq, kind, seq / 4,
                                         f"ss{seq % 3}", details))
        buffer = telemetry.trace_buffer
        assert buffer.records() == list(reference.ring)
        for kind in self.KINDS:
            assert buffer.records(kind) == [
                r for r in reference.ring if r.kind == kind]
        counts = {}
        for record in reference.ring:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        assert buffer.counts_by_kind() == dict(sorted(counts.items()))
        assert len(buffer) == len(reference.ring) == 16
        assert buffer.dropped == reference.appended - 16 == 84

    def test_records_carry_the_wall_clock(self):
        telemetry = Telemetry()
        telemetry.trace(TraceKind.GRANT, time=1.0, subject="ss")
        assert telemetry.trace_buffer.records()[0].wall > 0

    def test_appended_records_round_trip(self):
        buffer = TraceBuffer(capacity=4)
        record = TraceRecord(9, TraceKind.GRANT, 1.5, "ss", {"peer": "x"},
                             wall=12.0)
        buffer.append(record)
        [read] = buffer.records()
        assert read == record and read.wall == 12.0


class TestConcurrentBinding:
    def test_racing_first_reads_bind_the_registry_counter(self):
        """Node threads of the threaded executor share one registry and
        may read a handle for the first time together: every thread must
        end up holding the counter the snapshot reads."""
        attrs = sorted(CounterHandles.NAMES)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for __ in range(50):
                registry = MetricsRegistry()
                barrier = threading.Barrier(8)
                seen = []

                def touch():
                    barrier.wait(timeout=10)
                    seen.append([getattr(registry.handles, attr)
                                 for attr in attrs]
                                + [registry.counter("link.a->b")])

                threads = [threading.Thread(target=touch) for __ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                expected = [registry.counters[CounterHandles.NAMES[attr]]
                            for attr in attrs]
                expected.append(registry.counters["link.a->b"])
                assert len(seen) == 8
                for counters in seen:
                    assert all(a is b for a, b in zip(counters, expected))
                for attr, counter in zip(attrs, expected):
                    assert getattr(registry.handles, attr) is counter
        finally:
            sys.setswitchinterval(previous)
