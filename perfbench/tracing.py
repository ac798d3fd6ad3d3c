"""Span tracing for the benchmark's traced runs.

The program is left untouched: each layer's public functions are
replaced, for the length of one traced repetition, by wrappers that
record one span per call -- name, start, end, parent span and run id --
into flat in-memory arrays.  Module-level functions are replaced at
every import site (``repro.transport.inmemory`` binds ``encode`` and
``decode`` by name, so patching only ``repro.transport.codec`` would
read zero); methods are replaced on their defining class.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans under the benchmark's root span add
up to the root's duration; the root's own self time is the part of the
timed call that no layer covers (``trace.unattributed_frac``).

The recorder assumes one thread makes every traced call, which holds
for the cooperative executor and for the multiprocess coordinator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Name of the benchmark's own span around each timed ``run()`` call.
ROOT = "root"


def _positive(result, args) -> bool:
    return result > 0


def _nonempty(result, args) -> bool:
    return len(result) > 0


def _reached_desired(result, args) -> bool:
    # SafeTimeClient.refresh(self, desired, ...) returns the new horizon.
    return result >= args[1]


#: (layer, module, attribute, span name, hit predicate).  An attribute
#: ``Class.method`` patches the class; a bare name patches a module
#: function everywhere it is bound.  The layer names are the program's
#: module names.  Hot helpers that are called per event without doing
#: work of their own (``ChannelEndpoint.effective_horizon``,
#: ``Scheduler.next_event_time``) are deliberately not wrapped: their
#: cost stays in the caller's self time instead of doubling in tracer
#: overhead.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("apps", "repro.apps.jpeg", "decode", "apps.jpeg_decode", None),
    ("protocols", "repro.protocols.base", "ProtocolCodec.expand",
     "protocols.expand", None),
    ("protocols", "repro.protocols.base", "reassemble_step",
     "protocols.reassemble", None),
    ("core.subsystem", "repro.core.subsystem", "Subsystem.run",
     "subsystem.run", None),
    ("distributed.executor", "repro.distributed.executor", "CoSimulation.run",
     "executor.run", None),
    ("distributed.node", "repro.distributed.node", "PiaNode.pump",
     "node.pump", _positive),
    ("distributed.node", "repro.distributed.node", "PiaNode.dispatch",
     "node.dispatch", None),
    ("distributed.node", "repro.distributed.node", "PiaNode.handle_call",
     "node.handle_call", None),
    ("distributed.channel", "repro.distributed.channel",
     "ChannelEndpoint.forward", "channel.forward", None),
    ("distributed.channel", "repro.distributed.channel",
     "ChannelEndpoint.receive_signal", "channel.receive_signal", None),
    ("distributed.channel", "repro.distributed.channel",
     "ChannelEndpoint.apply_grant", "channel.apply_grant", None),
    ("distributed.conservative", "repro.distributed.conservative",
     "SafeTimeClient.refresh", "conservative.refresh", _reached_desired),
    ("distributed.conservative", "repro.distributed.conservative",
     "SafeTimeClient.horizon", "conservative.horizon", None),
    ("distributed.conservative", "repro.distributed.conservative",
     "SafeTimeService.serve", "conservative.serve", None),
    ("distributed.conservative", "repro.distributed.conservative",
     "compute_grant", "conservative.compute_grant", None),
    ("distributed.multiprocess", "repro.distributed.multiprocess",
     "WorkerPool.acquire", "mp.acquire", None),
    ("distributed.multiprocess", "repro.distributed.multiprocess",
     "WorkerPool.release", "mp.release", None),
    ("distributed.multiprocess", "repro.distributed.multiprocess",
     "MultiprocessCoSimulation.run", "mp.run", None),
    ("distributed.multiprocess", "repro.distributed.multiprocess",
     "MultiprocessCoSimulation.report", "mp.report", None),
    ("transport.inmemory", "repro.transport.inmemory",
     "InMemoryTransport.send", "transport.send", None),
    ("transport.inmemory", "repro.transport.inmemory",
     "InMemoryTransport.poll", "transport.poll", _nonempty),
    ("transport.inmemory", "repro.transport.inmemory",
     "InMemoryTransport.call", "transport.call", None),
    ("transport.inmemory", "repro.transport.inmemory",
     "InMemoryTransport.flush_batches", "transport.flush", _positive),
    ("transport.inmemory", "repro.transport.inmemory",
     "InMemoryTransport.push_grants", "transport.push_grants", None),
    ("transport.accounting", "repro.transport.accounting",
     "NetworkAccounting.record", "accounting.record", None),
    ("transport.accounting", "repro.transport.accounting",
     "NetworkAccounting.record_frame", "accounting.record_frame", None),
    ("transport.batch", "repro.transport.batch", "SendBatcher.enqueue",
     "batch.enqueue", None),
    ("transport.batch", "repro.transport.batch", "SendBatcher.extend",
     "batch.extend", None),
    ("transport.batch", "repro.transport.batch", "SendBatcher.take",
     "batch.take", _nonempty),
    ("transport.codec", "repro.transport.codec", "encode",
     "codec.encode", None),
    ("transport.codec", "repro.transport.codec", "encode_batch",
     "codec.encode_batch", None),
    ("transport.codec", "repro.transport.codec", "decode",
     "codec.decode", None),
    ("transport.codec", "repro.transport.codec", "decode_any",
     "codec.decode_any", None),
    ("transport.shm", "repro.transport.shm", "create_ring_segment",
     "shm.create_ring_segment", None),
    ("observability.telemetry", "repro.observability.telemetry",
     "Telemetry.count", "telemetry.count", None),
    ("observability.telemetry", "repro.observability.telemetry",
     "Telemetry.gauge", "telemetry.gauge", None),
    ("observability.telemetry", "repro.observability.telemetry",
     "Telemetry.observe", "telemetry.observe", None),
    ("observability.telemetry", "repro.observability.telemetry",
     "Telemetry.trace", "telemetry.trace", None),
    ("observability.telemetry", "repro.observability.spans",
     "ensure_context", "telemetry.ensure_context", None),
    ("observability.telemetry", "repro.observability.spans",
     "span_details", "telemetry.span_details", None),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, *__ in LAYER_FUNCTIONS))

#: Span name -> layer (the root span belongs to none).
SPAN_LAYER: Dict[str, str] = {entry[3]: entry[0] for entry in LAYER_FUNCTIONS}


class SpanSummary:
    """Per-span-name totals of one traced repetition."""

    def __init__(self, calls: Dict[str, int], inclusive: Dict[str, float],
                 self_time: Dict[str, float], hits: Dict[str, int]) -> None:
        self.calls = calls
        #: Duration of outermost spans only, so recursion is not
        #: counted twice (a served safe-time request refreshes in turn).
        self.inclusive = inclusive
        #: Self time of spans inside the root span.
        self.self_time = self_time
        self.hits = hits

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive.get(name, 0.0) for name in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def hit_ratio(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.hits.get(name, 0) / calls if calls else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(seconds for name, seconds in self.self_time.items()
                   if SPAN_LAYER.get(name) == layer)

    @property
    def root_seconds(self) -> float:
        return self.inclusive.get(ROOT, 0.0)


class Tracer:
    """Records spans while installed and active."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.outer = array("b")
        self._stack: List[int] = []
        self._depth: List[int] = []
        self._hits: List[int] = []
        self._hits_by_run: Dict[int, List[int]] = {}
        self.run_id = -1
        self.active = False
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, span: str) -> int:
        sid = self._ids.get(span)
        if sid is None:
            sid = self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
            self._hits.append(0)
        return sid

    def _open(self, sid: int) -> int:
        stack = self._stack
        index = len(self.name)
        self.name.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.outer.append(self._depth[sid] == 0)
        self._depth[sid] += 1
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, sid: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._depth[sid] -= 1

    def begin(self, run_id: int) -> None:
        """Start recording spans under ``run_id``."""
        self.run_id = run_id
        self._hits = [0] * len(self.names)
        self.active = True

    def finish(self) -> None:
        """Stop recording; keep this run's hit counts."""
        self.active = False
        self._hits_by_run[self.run_id] = list(self._hits)

    def root(self, fn: Callable[[], object]):
        """Call ``fn`` inside the benchmark's root span."""
        sid = self._id(ROOT)
        index = self._open(sid)
        try:
            return fn()
        finally:
            self._close(index, sid)

    # -- patching --------------------------------------------------------
    def _wrap(self, fn, span: str, hit):
        sid = self._id(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, sid)
            if hit is not None and hit(result, args):
                tracer._hits[sid] += 1
            return result

        return wrapper

    def _wrap_generator(self, fn, span: str):
        """Generator functions do their work while being iterated, so
        each step of the iteration is a span of its own."""
        sid = self._id(span)
        tracer = self

        def stepped(inner):
            while True:
                index = tracer._open(sid)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index, sid)
                yield value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return stepped(inner) if tracer.active else inner

        return wrapper

    def install(self) -> None:
        """Replace every layer function by its recording wrapper.

        Install before building the system to be traced: objects keep
        references to bound methods (call handlers, piggyback
        providers) taken at construction."""
        if self._patches:
            return
        for layer, module_name, attr, span, hit in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                make = (self._wrap_generator
                        if inspect.isgeneratorfunction(original)
                        else functools.partial(self._wrap, hit=hit))
                self._patches.append((owner, method, original))
                setattr(owner, method, make(original, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, hit)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis --------------------------------------------------------
    def _arrays(self):
        return tuple(np.asarray(column) for column in (
            self.name, self.start, self.end, self.parent, self.run,
            self.outer))

    def summary(self, run_id: int) -> SpanSummary:
        """Calls, inclusive time, self time and hits per span name.

        Calls and inclusive times count every span of the run; self
        times only those inside the root span, so that per-layer shares
        of the timed call add up to one."""
        name, start, end, parent, run, outer = self._arrays()
        duration = end - start
        children = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        self_time = duration - children
        mine = run == run_id
        inside = np.zeros(len(name), dtype=bool)
        root_id = self._ids.get(ROOT)
        for index in np.flatnonzero(mine & (name == root_id)):
            # One thread records every span, so a span lies inside the
            # root exactly when its interval does.
            inside |= mine & (start >= start[index]) & (end <= end[index])
        width = len(self.names)
        calls = np.bincount(name[mine], minlength=width)
        inclusive = np.bincount(name[mine], weights=(duration * outer)[mine],
                                minlength=width)
        own = np.bincount(name[inside], weights=self_time[inside],
                          minlength=width)
        hits = self._hits_by_run.get(run_id, [])
        return SpanSummary(
            {n: int(calls[i]) for i, n in enumerate(self.names) if calls[i]},
            {n: float(inclusive[i]) for i, n in enumerate(self.names)
             if calls[i]},
            {n: float(own[i]) for i, n in enumerate(self.names) if own[i]},
            {n: int(hits[i]) for i, n in enumerate(self.names)
             if i < len(hits) and hits[i]})

    def save(self, path: str) -> int:
        """Write every span to ``path`` (numpy ``.npz``); returns the
        number of spans written."""
        name, start, end, parent, run, __ = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start,
                 end=end, parent=parent, run=run)
        return len(name)
