"""The deterministic in-memory transport.

Carries :class:`~repro.transport.message.Message` objects between Pia
nodes living in one process, preserving the properties Pia gets from RMI:
FIFO ordering per directed link, synchronous request/response calls, and
(simulated) serialisation.  One copy rule covers every path -- unbatched
sends, both legs of a call, and batch members: a message whose payload
could be aliased is copied through an encode/decode cycle, so nodes
cannot share mutable state by accident, exactly as if it had crossed a
real wire; a message whose payload is immutable is shared, which no
receiver can tell from a copy.  Every message is still encoded (alone,
or in its batch frame), so byte counts are exact either way.

Every message is charged against :class:`NetworkAccounting`, which is how
the "geographically distributed" experiments obtain their modelled network
cost while the whole simulation runs deterministically in one process.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import TransportError
from ..core.fastcopy import is_immutable
from ..observability import NULL_TELEMETRY, TraceKind
from ..observability.spans import ensure_context, span_details
from .accounting import NetworkAccounting
from .batch import SendBatcher
from .codec import decode, encode, encode_batch
from .latency import SAME_HOST, LatencyModel
from .message import BatchFrame, Message, MessageKind

#: Handles an asynchronous message.
InboxHandler = Callable[[Message], None]
#: Handles a synchronous call, returning the reply message.
CallHandler = Callable[[Message], Message]
#: A node's safe-time grants for its next batch frame to a destination.
GrantProvider = Callable[[str], List[Message]]


class InMemoryTransport:
    """FIFO message passing between registered nodes, with accounting."""

    def __init__(self, *, default_model: LatencyModel = SAME_HOST,
                 simulate_wire: bool = True,
                 batching: bool = False) -> None:
        self.accounting = NetworkAccounting(default_model)
        #: Encode/decode every message to emulate crossing the wire.
        self.simulate_wire = simulate_wire
        #: Coalesce per-destination sends into batch frames (opt-in).
        self.batching = batching
        self.batcher = SendBatcher()
        #: Per node: ``dst -> [Message]``, the safe-time grants to
        #: piggyback on that node's outgoing batch frames (see register).
        self._grant_providers: Dict[str, GrantProvider] = {}
        #: Per-transport-instance message id stream (stamped at the send
        #: boundary).  Instance-local rather than module-global so a
        #: forked child — which inherits a *copy* of this transport —
        #: cannot interleave with the parent's stream, matching the PID
        #: guard discipline of the TCP transport.
        self._msg_ids = itertools.count(1)
        self._inboxes: Dict[str, deque] = {}
        self._call_handlers: Dict[str, CallHandler] = {}
        #: Telemetry sink (attach via :meth:`attach_telemetry`).
        self.telemetry = NULL_TELEMETRY
        #: Fault plane (attach via :meth:`attach_faults`).
        self.fault_injector = None

    def attach_telemetry(self, telemetry) -> None:
        """Feed message traces and per-link counters to ``telemetry``."""
        self.telemetry = telemetry
        self.accounting.telemetry = telemetry
        if self.fault_injector is not None:
            self.fault_injector.telemetry = telemetry

    def attach_faults(self, injector) -> None:
        """Route every send/poll through ``injector``'s fault plane."""
        self.fault_injector = injector
        injector.telemetry = self.telemetry

    def attach_health(self, monitor) -> None:
        """Feed per-link health estimators from the send/poll boundary."""
        self.accounting.health = monitor

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str,
                 call_handler: Optional[CallHandler] = None,
                 grant_provider: Optional[GrantProvider] = None) -> None:
        if name in self._inboxes:
            raise TransportError(f"node {name!r} already registered")
        self._inboxes[name] = deque()
        if call_handler is not None:
            self._call_handlers[name] = call_handler
        if grant_provider is not None:
            self._grant_providers[name] = grant_provider

    def unregister(self, name: str) -> None:
        self._inboxes.pop(name, None)
        self._call_handlers.pop(name, None)
        self._grant_providers.pop(name, None)
        self.batcher.clear(name)

    def nodes(self) -> list:
        return sorted(self._inboxes)

    def set_link(self, a: str, b: str, model: LatencyModel) -> None:
        """Configure the latency model between two nodes (both ways)."""
        self.accounting.set_model(a, b, model)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _through_wire(self, message: Message) -> Tuple[Message, int]:
        """The copy rule of every in-memory path: encode for the exact
        byte count; decode a private copy only when the payload could
        be aliased (sharing an immutable payload is indistinguishable
        from copying it)."""
        blob = encode(message)
        if self.simulate_wire and not is_immutable(message.payload):
            return decode(blob), len(blob)
        return message, len(blob)

    def send(self, message: Message) -> float:
        """Queue ``message`` for its destination; returns the wire delay.

        With a fault plane attached, the injector decides the message's
        fate first: injected drops are retried internally (raising
        :class:`~repro.core.errors.LinkDown` once the budget is spent),
        delayed/reordered messages are parked with the injector and
        released at :meth:`poll`, duplicates are queued twice and
        deduplicated at the poll boundary, and traffic touching a
        crashed node is swallowed (``lost``).
        """
        if message.msg_id == 0:
            message.msg_id = next(self._msg_ids)
        telemetry = self.telemetry
        if telemetry.enabled:
            # Mint before the fault plane decides the message's fate, so
            # every copy (duplicate, delayed, retried) shares one span
            # and the ordinal stream is identical across transports.
            ensure_context(telemetry, message)
        injector = self.fault_injector
        action, ticks = "deliver", 0
        if injector is not None:
            action, ticks = injector.on_send(message)
            if action == "lost":
                return 0.0
        if message.dst not in self._inboxes:
            raise TransportError(f"unknown destination node {message.dst!r}")
        if self.batching and action in ("deliver", "duplicate"):
            return self._enqueue_batched(message, action, injector)
        delivered, size = self._through_wire(message)
        delay = self.accounting.record(message.src, message.dst, size)
        if telemetry.enabled:
            telemetry.trace(TraceKind.MSG_SEND, time=message.time,
                            subject=f"{message.src}->{message.dst}",
                            message_kind=message.kind.value, bytes=size,
                            **span_details(message.trace))
        if action == "delay":
            injector.hold(message.dst, delivered, ticks)
            return delay
        if action == "reorder":
            injector.hold_swap(message.src, message.dst, delivered)
            return delay
        inbox = self._inboxes[message.dst]
        inbox.append(delivered)
        if action == "duplicate":
            extra, extra_size = self._through_wire(message)
            self.accounting.record(message.src, message.dst, extra_size)
            inbox.append(extra)
            injector.expect_duplicate(message.dst, delivered.msg_id,
                                      src=delivered.src)
        if injector is not None:
            for late in injector.take_swaps(message.src, message.dst):
                inbox.append(late)
        return delay

    def _enqueue_batched(self, message: Message, action: str,
                         injector) -> float:
        """Queue a deliver/duplicate-fated message for the next flush.

        Members follow the copy rule of :meth:`_through_wire`, but skip
        its encode: the whole frame is encoded once at flush time, so
        byte accounting stays exact.
        """
        if self.simulate_wire and not is_immutable(message.payload):
            member = decode(encode(message))
        else:
            member = message
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.trace(TraceKind.MSG_SEND, time=message.time,
                            subject=f"{message.src}->{message.dst}",
                            message_kind=message.kind.value, batched=True,
                            **span_details(message.trace))
        self.batcher.enqueue(message.src, message.dst, member)
        if action == "duplicate":
            self.batcher.enqueue(message.src, message.dst, member)
            injector.expect_duplicate(message.dst, member.msg_id,
                                       src=member.src)
        if injector is not None:
            late = injector.take_swaps(message.src, message.dst)
            if late:
                self.batcher.extend(message.src, message.dst, late)
        return 0.0

    def flush_batches(self, *, src: Optional[str] = None,
                      dst: Optional[str] = None) -> int:
        """Ship matching queued batches: one frame (and one latency
        charge) per non-empty link, members delivered in send order,
        piggybacked grants strictly after them.  Returns the number of
        logical messages flushed."""
        if not self.batching:
            return 0
        flushed = 0
        providers = self._grant_providers
        telemetry = self.telemetry
        for (s, d), members in self.batcher.take(src=src, dst=dst):
            inbox = self._inboxes.get(d)
            if inbox is None:
                continue    # destination unregistered after enqueue
            provider = providers.get(s)
            grants = provider(d) if provider is not None else []
            blob = encode_batch(BatchFrame(s, d, members, grants))
            self.accounting.record_frame(s, d, len(blob), len(members))
            if telemetry.enabled and grants:
                telemetry.registry.handles.piggyback_sent.value += \
                    len(grants)
            inbox.extend(members)
            inbox.extend(grants)
            flushed += len(members)
        return flushed

    def push_grants(self, src: str, dst: str,
                    grants: List[Message]) -> bool:
        """Ship a standalone grant-only frame ``src``→``dst``.

        One frame unblocks a peer known to be stalled, replacing the
        two-frame request/reply round trip it would otherwise issue.
        Grants bypass the fault plane (like call traffic: sync-protocol
        messages are not subject to data-plane faults).
        """
        if not self.batching or not grants:
            return False
        inbox = self._inboxes.get(dst)
        if inbox is None:
            return False
        blob = encode_batch(BatchFrame(src, dst, [], list(grants)))
        self.accounting.record_frame(src, dst, len(blob), 0)
        inbox.extend(grants)
        return True

    def call(self, message: Message) -> Message:
        """Synchronous request/response (the RMI analogue).

        The destination's call handler runs inline; both directions are
        charged to accounting.  Calls cannot reach a crashed node.
        """
        if message.msg_id == 0:
            message.msg_id = next(self._msg_ids)
        telemetry = self.telemetry
        if telemetry.enabled:
            ensure_context(telemetry, message)
        if self.fault_injector is not None:
            self.fault_injector.check_call(message)
        if self.batching:
            # A call is a synchronisation point on this link: anything
            # queued either way must land first so in-flight counts match
            # the unbatched run exactly.
            self.flush_batches(src=message.src, dst=message.dst)
            self.flush_batches(src=message.dst, dst=message.src)
        handler = self._call_handlers.get(message.dst)
        if handler is None:
            raise TransportError(
                f"node {message.dst!r} accepts no calls "
                f"(registered: {sorted(self._call_handlers)})")
        request, req_size = self._through_wire(message)
        self.accounting.record(message.src, message.dst, req_size)
        if telemetry.enabled:
            telemetry.trace(TraceKind.MSG_SEND, time=message.time,
                            subject=f"{message.src}->{message.dst}",
                            message_kind=message.kind.value, bytes=req_size,
                            call=True, **span_details(message.trace))
        reply = handler(request)
        if not isinstance(reply, Message):
            raise TransportError(
                f"call handler of {message.dst!r} returned "
                f"{type(reply).__name__}, not Message")
        response, resp_size = self._through_wire(reply)
        self.accounting.record(message.dst, message.src, resp_size)
        if telemetry.enabled:
            telemetry.trace(TraceKind.MSG_RECV, time=reply.time,
                            subject=f"{message.dst}->{message.src}",
                            message_kind=reply.kind.value, bytes=resp_size,
                            call=True, **span_details(reply.trace))
        return response

    def poll(self, name: str, *, limit: Optional[int] = None) -> List[Message]:
        """Drain (up to ``limit``) queued messages for node ``name``."""
        try:
            inbox = self._inboxes[name]
        except KeyError:
            raise TransportError(f"unknown node {name!r}") from None
        if self.batching:
            # Poll is the flush point: every queue bound for this node
            # ships now, so delivery lands at the same pump points as the
            # unbatched per-message path.
            self.flush_batches(dst=name)
        injector = self.fault_injector
        if injector is not None:
            inbox.extend(injector.release_due(name))
        drained: List[Message] = []
        while inbox and (limit is None or len(drained) < limit):
            message = inbox.popleft()
            if injector is not None and \
                    injector.suppress_duplicate(name, message):
                continue
            drained.append(message)
        health = self.accounting.health
        if health is not None:
            health.on_poll(name, len(drained))
        telemetry = self.telemetry
        if telemetry.enabled and drained:
            for message in drained:
                telemetry.trace(TraceKind.MSG_RECV, time=message.time,
                                subject=f"{message.src}->{message.dst}",
                                message_kind=message.kind.value,
                                **span_details(message.trace))
        return drained

    def pending(self, name: Optional[str] = None) -> int:
        """Messages queued for ``name`` (or for every node), the fault
        plane's parked deliveries included."""
        held = self.batcher.pending(name)
        if self.fault_injector is not None:
            held += self.fault_injector.held_pending(name)
        if name is not None:
            return len(self._inboxes.get(name, ())) + held
        return sum(len(q) for q in self._inboxes.values()) + held

    def flush(self) -> int:
        """Drop every undelivered message (optimistic rollback support)."""
        dropped = sum(len(q) for q in self._inboxes.values())
        for inbox in self._inboxes.values():
            inbox.clear()
        dropped += self.batcher.clear()
        if self.fault_injector is not None:
            dropped += self.fault_injector.flush()
        return dropped

    def drop_if(self, predicate: Callable[[Message], bool]) -> int:
        """Drop queued messages matching ``predicate``; returns the count."""
        dropped = 0
        for name, inbox in self._inboxes.items():
            kept = [m for m in inbox if not predicate(m)]
            dropped += len(inbox) - len(kept)
            inbox.clear()
            inbox.extend(kept)
        return dropped
