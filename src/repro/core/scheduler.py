"""The per-subsystem scheduler: Pia's two-level virtual time.

The scheduler enforces the paper's core invariant (section 2.1): *system
(subsystem) time is always less than or equal to all component local
times* at every delivery, so a component resumed from a receive is certain
its view of the world is up to date.  Components run ahead of subsystem
time freely; subsystem time only advances by consuming the event queue in
timestamp order.

The paper implements this on the Java VM by making sure its thread
scheduler only ever sees one runnable thread (section 3.1).  Here the same
effect — total control over execution order — falls out of running
component generators inline from a single dispatch loop.

The dispatch loop is the hottest code in the tree (every signal, wake
and control callback in every subsystem flows through it), so it is
written flat: a precomputed per-kind handler table instead of an
``if``/``elif`` chain, loop-invariant attribute lookups hoisted into
locals, the heap drained directly (the queue mutates it in place, so
the local binding stays valid across mid-run rollbacks), and the traced
path split out so a telemetry-off run touches no telemetry state at
all.
"""

from __future__ import annotations

from heapq import heappop
from typing import TYPE_CHECKING, Callable, Optional

from ..observability import NULL_TELEMETRY, TraceKind
from ..observability.flight import STRIDE_MASK as _FLIGHT_MASK
from .errors import CausalityError, SimulationError
from .events import NATIVE_EVENTS, Event, EventKind, EventQueue

if TYPE_CHECKING:  # pragma: no cover
    from .component import Component
    from .port import Port
    from .subsystem import Subsystem


class Scheduler:
    """Dispatches events for one subsystem in deterministic time order."""

    __slots__ = ("subsystem", "queue", "now", "dispatched", "stalls",
                 "post_step_hooks", "telemetry", "_handlers")

    def __init__(self, subsystem: "Subsystem") -> None:
        self.subsystem = subsystem
        self.queue = EventQueue()
        #: Subsystem virtual time (the paper's *system time*).
        self.now = 0.0
        #: Events dispatched since construction.
        self.dispatched = 0
        #: Number of times :meth:`run` stopped early at a horizon
        #: (the stalls of paper Fig. 3).
        self.stalls = 0
        #: Called after every dispatched event (switchpoint evaluation).
        self.post_step_hooks: list[Callable[[Event], None]] = []
        #: Telemetry sink; the owning Simulator/CoSimulation attaches a
        #: live one via Subsystem.attach_telemetry.
        self.telemetry = NULL_TELEMETRY
        #: Per-kind dispatch table, indexed by ``EventKind.code``: one
        #: tuple index replaces the old ``if``/``elif`` kind chain (and
        #: avoids hashing an enum member) on every event.
        table = {
            EventKind.SIGNAL: self._dispatch_signal,
            EventKind.INTERRUPT: self._dispatch_signal,
            EventKind.WAKE: self._dispatch_wake,
            EventKind.CONTROL: self._dispatch_control,
        }
        self._handlers = tuple(table[kind] for kind in EventKind)

    # ------------------------------------------------------------------
    def schedule(self, event: Event) -> Event:
        """Enqueue ``event``; scheduling into the past is a causality error.

        With tracing on, an event scheduled while a caused event is being
        dispatched inherits that dispatch's trace context, so causal
        chains survive local event hops between message edges.
        """
        telemetry = self.telemetry
        if telemetry.enabled and event.cause is None:
            cause = telemetry.cause
            if cause is not None:
                event = event.with_cause(cause)
        return self.queue.push(event, now=self.now)

    def next_event_time(self) -> float:
        """Virtual time of the earliest pending event (``inf`` when idle)."""
        return self.queue.next_time()

    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Dispatch the earliest event; returns it, or ``None`` when idle."""
        queue = self.queue
        if not queue:
            return None
        event = queue.pop()
        time = event.time
        if time < self.now:
            raise CausalityError(
                f"{self.subsystem.name}: event at {time:g} popped "
                f"after subsystem time reached {self.now:g}")
        self.now = time
        if self.telemetry.enabled:
            self._dispatch_traced(event)
        else:
            self._handlers[event.kind.code](event)
            self.dispatched += 1
        flight = self.telemetry.flight
        if flight.enabled:
            flight.tick_dispatch(self.subsystem.name, time)
        for hook in self.post_step_hooks:
            hook(event)
        return event

    def _dispatch_traced(self, event: Event) -> None:
        """The telemetry-on dispatch path (split out of the hot loop)."""
        telemetry = self.telemetry
        # Sends triggered by this dispatch mint child spans of the
        # event's cause; cleared even on a straggler abort.
        telemetry.cause = event.cause
        try:
            self._handlers[event.kind.code](event)
        finally:
            telemetry.cause = None
        self.dispatched += 1
        if not telemetry.enabled:
            return      # switched off by the handler itself
        telemetry.registry.handles.dispatched.value += 1
        if event.cause is not None:
            telemetry.trace(TraceKind.DISPATCH, time=event.time,
                            subject=self.subsystem.name,
                            event=event.kind.value,
                            cause=event.cause[1], hop=event.cause[3])
        else:
            telemetry.trace(TraceKind.DISPATCH, time=event.time,
                            subject=self.subsystem.name,
                            event=event.kind.value)

    def _record_stall(self, next_time: float, limit: float) -> None:
        """Account one horizon stall (shared by both run-loop backends)."""
        self.stalls += 1
        telemetry = self.telemetry
        flight = telemetry.flight
        if flight.enabled:
            flight.note("stall", self.subsystem.name, time=self.now,
                        horizon=limit, next_event=next_time)
        if telemetry.enabled:
            telemetry.registry.handles.stalls.value += 1
            head = self.queue.peek()
            cause = head.cause if head is not None else None
            if cause is not None:
                # Link the stall to the chain of the event it is parked
                # behind.
                telemetry.trace(
                    TraceKind.STALL, time=self.now,
                    subject=self.subsystem.name,
                    horizon=limit, next_event=next_time,
                    cause=cause[1], hop=cause[3])
            else:
                telemetry.trace(
                    TraceKind.STALL, time=self.now,
                    subject=self.subsystem.name,
                    horizon=limit,
                    next_event=next_time)

    def _run_pure(self, until: float = float("inf"), *,
                  horizon=float("inf"),
                  max_events: Optional[int] = None) -> int:
        """Dispatch events while they fall at or before ``min(until, horizon)``.

        ``until`` is the caller's end-of-simulation bound; ``horizon`` is a
        safety bound imposed by conservative channels (paper section
        2.2.2.1) — either a number or a zero-argument callable re-evaluated
        before every dispatch, because sending on a channel can *shrink*
        the safe horizon mid-run (the echo bound).  Stopping at the horizon
        while work remains counts as a stall.  Returns the number of events
        dispatched.
        """
        horizon_fn = horizon if callable(horizon) else None
        count = 0
        # Hot loop: every loop-invariant attribute access is hoisted.
        # ``heap`` is the queue's own list — EventQueue mutates it in
        # place, so the binding survives a rollback triggered from a
        # CONTROL dispatch mid-run.  ``hooks`` is likewise the live list.
        heap = self.queue._heap
        handlers = self._handlers
        hooks = self.post_step_hooks
        telemetry = self.telemetry
        traced = telemetry.enabled
        # The flight recorder (always-on black box) samples every
        # STRIDE-th dispatch: the hot loop only ticks a *local* counter
        # and masks it — written back once, in the finally, so a
        # CausalityError still leaves the count consistent.
        flight = telemetry.flight
        flight_on = flight.enabled
        fseq = flight.dispatch_seq
        static_bound = (until if horizon_fn is not None
                        else until if until < horizon else horizon)
        try:
            while heap:
                if horizon_fn is not None:
                    limit = horizon_fn()
                    bound = until if until < limit else limit
                else:
                    limit = horizon
                    bound = static_bound
                next_time = heap[0][0].time
                if next_time > bound:
                    if next_time <= until and limit < until:
                        self._record_stall(next_time, limit)
                    break
                if max_events is not None and count >= max_events:
                    break
                # Inlined step(): pop, advance time, dispatch.
                event = heappop(heap)[1]
                if next_time < self.now:
                    raise CausalityError(
                        f"{self.subsystem.name}: event at {next_time:g} "
                        f"popped after subsystem time reached {self.now:g}")
                self.now = next_time
                if traced:
                    self._dispatch_traced(event)
                else:
                    handlers[event.kind.code](event)
                    self.dispatched += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                count += 1
                if flight_on:
                    fseq += 1
                    if not (fseq & _FLIGHT_MASK):
                        flight.note("dispatch", self.subsystem.name,
                                    time=next_time, seq=fseq)
        finally:
            if flight_on:
                flight.dispatch_seq = fseq
        return count

    def _run_native(self, until: float = float("inf"), *,
                    horizon=float("inf"),
                    max_events: Optional[int] = None) -> int:
        """The run loop over the native :class:`EventQueue`.

        Same contract and same observable behaviour as :meth:`_run_pure`
        (stall accounting included), but built around the queue's
        combined ``pop_ready(bound)`` C call — one native call per event
        replaces the peek/compare/pop triple.  The pure loop's direct
        ``_heap`` access does not exist on the C type, hence the split;
        which implementation backs :meth:`run` is decided once, at
        import time, by ``NATIVE_EVENTS``.
        """
        horizon_fn = horizon if callable(horizon) else None
        count = 0
        queue = self.queue
        pop_ready = queue.pop_ready
        handlers = self._handlers
        hooks = self.post_step_hooks
        telemetry = self.telemetry
        traced = telemetry.enabled
        # Flight recorder: same local-counter stride sampling as the
        # pure loop — a masked integer test per event, one write-back.
        flight = telemetry.flight
        flight_on = flight.enabled
        fseq = flight.dispatch_seq
        name = self.subsystem.name
        if max_events is None and horizon_fn is None:
            # Hot path: static bound, no event cap — one C call decides
            # "done or next event" per iteration.
            bound = until if until < horizon else horizon
            try:
                while True:
                    event = pop_ready(bound)
                    if event is None:
                        if queue:
                            next_time = queue.next_time()
                            if next_time <= until and horizon < until:
                                self._record_stall(next_time, horizon)
                        break
                    time = event.time
                    if time < self.now:
                        raise CausalityError(
                            f"{name}: event at {time:g} popped after "
                            f"subsystem time reached {self.now:g}")
                    self.now = time
                    if traced:
                        self._dispatch_traced(event)
                    else:
                        handlers[event.code](event)
                        self.dispatched += 1
                    if hooks:
                        for hook in hooks:
                            hook(event)
                    count += 1
                    if flight_on:
                        fseq += 1
                        if not (fseq & _FLIGHT_MASK):
                            flight.note("dispatch", name, time=time,
                                        seq=fseq)
            finally:
                if flight_on:
                    flight.dispatch_seq = fseq
            return count
        # General path: a callable horizon is re-evaluated before every
        # dispatch, and the bound check must stay *ahead* of the
        # max_events cut (a capped run parked at its horizon still
        # counts the stall) — the exact ordering of the pure loop.
        try:
            while queue:
                if horizon_fn is not None:
                    limit = horizon_fn()
                    bound = until if until < limit else limit
                else:
                    limit = horizon
                    bound = until if until < horizon else horizon
                next_time = queue.next_time()
                if next_time > bound:
                    if next_time <= until and limit < until:
                        self._record_stall(next_time, limit)
                    break
                if max_events is not None and count >= max_events:
                    break
                event = queue.pop()
                if next_time < self.now:
                    raise CausalityError(
                        f"{name}: event at {next_time:g} popped after "
                        f"subsystem time reached {self.now:g}")
                self.now = next_time
                if traced:
                    self._dispatch_traced(event)
                else:
                    handlers[event.code](event)
                    self.dispatched += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                count += 1
                if flight_on:
                    fseq += 1
                    if not (fseq & _FLIGHT_MASK):
                        flight.note("dispatch", name, time=next_time,
                                    seq=fseq)
        finally:
            if flight_on:
                flight.dispatch_seq = fseq
        return count

    #: The public run loop — bound once at class-definition time to the
    #: implementation matching the active event-queue backend.
    run = _run_native if NATIVE_EVENTS else _run_pure

    # ------------------------------------------------------------------
    def _dispatch_signal(self, event: Event) -> None:
        port: "Port" = event.target
        owner = port.owner
        if owner is None:
            raise SimulationError(
                f"signal delivered to orphan port {port.name!r}")
        self._check_local_time(owner, event)
        owner.deliver(event)

    def _dispatch_wake(self, event: Event) -> None:
        component: "Component" = event.target
        component.deliver(event)

    def _dispatch_control(self, event: Event) -> None:
        event.target(event)

    def _dispatch(self, event: Event) -> None:
        """Route one event to its per-kind handler (kept for callers and
        tests that dispatch outside the run loop)."""
        try:
            handler = self._handlers[event.kind.code]
        except (AttributeError, IndexError):  # pragma: no cover
            raise SimulationError(
                f"unknown event kind {event.kind!r}") from None
        handler(event)

    def _check_local_time(self, component: "Component", event: Event) -> None:
        """Invariant check: delivery never outruns the receiver's receive point.

        A component blocked at a receive has, conceptually, a local time
        equal to its pause point; deliveries earlier than that are legal
        (they queue), so the only real constraint is that subsystem time is
        monotone — already enforced in :meth:`step`.  This hook exists for
        the optimistic machinery, which overrides subsystems to detect
        reads that ran ahead of late-arriving messages.
        """
