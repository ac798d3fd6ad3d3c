"""A real socket transport over localhost TCP.

The paper's Pia nodes are separate JVM processes joined by RMI over the
Internet; this transport mirrors that deployment shape inside one machine:
each registered node owns a listening socket and a receiver thread, frames
are length-prefixed binary codec frames (:mod:`repro.transport.codec`),
and synchronous calls block on a correlation table.  An optional ``delay_scale`` injects a real ``sleep`` proportional
to the link's modelled latency so wall-clock behaviour can be observed,
scaled down to keep experiments tractable.

Failure handling: outbound connections are cached per directed link and
guarded by a per-connection lock, so concurrent senders to different
destinations never serialise on one global lock.  A send or call that
hits a dead socket evicts the cached connection and retries against the
transport's :class:`~repro.faults.RetryPolicy` (exponential backoff,
plan-seeded jitter when a fault injector is attached); once the attempt
budget or deadline is spent the caller sees a typed
:class:`~repro.core.errors.LinkDown` rather than a raw socket error.

The deterministic experiments use :class:`InMemoryTransport`; this class
exists to exercise the genuinely concurrent, multi-threaded deployment.
"""

from __future__ import annotations

import itertools
import os
import socket
import struct
import threading
import time as _time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import LinkDown, RemoteCallError, TransportError
from ..core.fastcopy import is_immutable
from ..faults.retry import RetryPolicy
from ..observability import NULL_TELEMETRY, TraceKind
from ..observability.spans import ensure_context, span_details
from .accounting import NetworkAccounting
from .batch import SendBatcher
from .codec import decode, decode_any, encode, encode_batch
from .inmemory import GrantProvider
from .latency import SAME_HOST, LatencyModel
from .message import BatchFrame, Message, MessageKind

_LENGTH = struct.Struct("!I")

#: Cross-process fault envelopes.  In a multiprocess deployment the fault
#: injector's *decision* (drop/duplicate/delay/reorder, counted) happens in
#: the sender's process, but the queues those decisions require (parked
#: deliveries, swap slots, duplicate suppression) must live where the
#: releasing poll happens — the destination's process.  The sender wraps
#: the affected message in a CONTROL envelope telling the receiving
#: transport's injector what to do with it on arrival.
_FAULT_HOLD = "fault-hold"
_FAULT_SWAP = "fault-swap"
_FAULT_DUP = "fault-dup"
_FAULT_TAGS = (_FAULT_HOLD, _FAULT_SWAP, _FAULT_DUP)


#: Reply envelope for a synchronous call whose handler raised: the
#: payload carries ``(_CALL_ERROR, exception type name, str(exc))`` and
#: ``call()`` re-raises it as a typed :class:`RemoteCallError` instead of
#: letting the connection die and the caller burn its retry budget.
_CALL_ERROR = "call-error"


def _open_call_error(message: Message):
    """Return ``(type_name, text)`` for a call-error envelope, else None."""
    if message.kind is not MessageKind.CONTROL:
        return None
    payload = message.payload
    if (isinstance(payload, tuple) and len(payload) == 3
            and payload[0] == _CALL_ERROR):
        return payload[1], payload[2]
    return None


def _fault_envelope(tag: str, message: Message, ticks: int = 0) -> Message:
    return Message(kind=MessageKind.CONTROL, src=message.src,
                   dst=message.dst, channel=message.channel,
                   time=message.time, payload=(tag, ticks, message),
                   epoch=message.epoch)


def _open_fault_envelope(message: Message):
    """Return ``(tag, ticks, inner)`` for a fault envelope, else ``None``."""
    if message.kind is not MessageKind.CONTROL:
        return None
    payload = message.payload
    if (isinstance(payload, tuple) and len(payload) == 3
            and payload[0] in _FAULT_TAGS):
        return payload
    return None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        piece = sock.recv(n)
        if not piece:
            raise ConnectionError("peer closed")
        chunks.append(piece)
        n -= len(piece)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, blob: bytes) -> None:
    sock.sendall(_LENGTH.pack(len(blob)) + blob)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    return _recv_exact(sock, length)


class _NodeEndpoint:
    """Server socket + receiver threads for one node."""

    def __init__(self, transport: "TcpTransport", name: str) -> None:
        self.transport = transport
        self.name = name
        self.inbox: deque = deque()
        self.lock = threading.Lock()
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(16)
        self.port = self.server.getsockname()[1]
        self.running = True
        self.accept_thread = threading.Thread(
            target=self._accept_loop, name=f"pia-accept-{name}", daemon=True)
        self.accept_thread.start()

    def _accept_loop(self) -> None:
        while self.running:
            try:
                conn, __ = self.server.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             name=f"pia-conn-{self.name}", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while self.running:
                message = decode_any(_recv_frame(conn))
                if not isinstance(message, BatchFrame) and message.kind in (
                        MessageKind.SAFE_TIME_REQUEST, MessageKind.HW_CALL):
                    # A handler error must reach the *caller*, not kill
                    # this connection thread: reply with a typed error
                    # envelope that call() re-raises as RemoteCallError.
                    try:
                        reply = self.transport._dispatch_call(self.name,
                                                              message)
                    except Exception as exc:
                        reply = message.reply(
                            MessageKind.CONTROL,
                            payload=(_CALL_ERROR, type(exc).__name__,
                                     str(exc)))
                    _send_frame(conn, encode(reply))
                else:
                    self.ingest_frame(message)
        except (ConnectionError, OSError):
            pass
        finally:
            conn.close()

    def ingest_frame(self, message) -> None:
        """File one arrived one-way wire frame — a single
        :class:`Message` or a whole :class:`BatchFrame` — shared by the
        TCP receiver threads and the shared-memory ring pump."""
        if isinstance(message, BatchFrame):
            transport = self.transport
            if message.epoch != transport.epoch:
                # A whole frame from a pre-failover world: every member
                # shares the sender's epoch, so the frame drops whole.
                transport._count_stale(len(message))
                return
            for member in message.messages:
                # Members were stamped at enqueue time; the frame's epoch
                # is authoritative (enqueue and flush straddle no bump —
                # rollback clears the batcher first).
                member.epoch = message.epoch
                self._ingest(member)
            if message.grants:
                for grant in message.grants:
                    grant.epoch = message.epoch
                with self.lock:
                    self.inbox.extend(message.grants)
                    with self.transport.wire_lock:
                        self.transport.wire_in += len(message.grants)
                self.transport._wake()
        else:
            self._ingest(message)

    def _ingest(self, message: Message) -> None:
        """File one arrived one-way message: unwrap fault envelopes into
        the local injector's queues, everything else into the inbox."""
        transport = self.transport
        if transport._accept_spill(message):
            # An oversized-frame spill riding the TCP fallback path; the
            # ring pump ingests (and wire-counts) the inner frame when
            # its ordering marker comes up.
            return
        injector = transport.fault_injector
        opened = _open_fault_envelope(message)
        with self.lock:
            # Epoch check, filing and wire-count happen under one lock so
            # a concurrent ``set_epoch`` (which takes every endpoint lock)
            # can never zero the counters between a stale frame passing
            # the check and being counted.
            if message.epoch != transport.epoch:
                transport._count_stale(1)
                return
            if opened is not None:
                tag, ticks, inner = opened
                if injector is None:
                    # No fault plane on this side: deliver the inner
                    # message plainly rather than losing it.
                    self.inbox.append(inner)
                elif tag == _FAULT_HOLD:
                    injector.hold(self.name, inner, ticks)
                elif tag == _FAULT_SWAP:
                    injector.hold_swap(inner.src, self.name, inner)
                else:   # _FAULT_DUP: redundant copy of a duplicated send
                    injector.expect_duplicate(self.name, inner.msg_id,
                                              src=inner.src)
                    self.inbox.append(inner)
                # Counted only after the message is filed somewhere
                # visible (inbox or injector queue): the quiescence
                # balance check must never see wire_in caught up while a
                # delivery is in limbo.
                with transport.wire_lock:
                    transport.wire_in += 1
            else:
                self.inbox.append(message)
                with transport.wire_lock:
                    transport.wire_in += 1
                if injector is not None:
                    # A swap-parked message is released right behind the
                    # link's next arrival — the cross-process mirror of
                    # the sender-side take_swaps() call.
                    late = injector.take_swaps(message.src, self.name)
                    if late:
                        self.inbox.extend(late)
        transport._wake()

    def close(self) -> None:
        """Stop accepting and reap the accept thread.

        Closing a listening socket does not wake a thread blocked on it
        in ``accept()`` (on Linux); ``shutdown`` does.  A thread left
        blocked keeps this endpoint -- and through it the transport, its
        node and their telemetry -- alive for the life of the process,
        once per run in a warm pool worker.  Receiver threads end when
        their peer closes the connection.
        """
        self.running = False
        try:
            self.server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.server.close()
        except OSError:
            pass
        if self.accept_thread is not threading.current_thread():
            self.accept_thread.join(timeout=1.0)


class _Connection:
    """A cached outbound socket plus its own send lock."""

    __slots__ = ("sock", "lock")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()


class TcpTransport:
    """Message passing between in-process nodes over real TCP sockets."""

    def __init__(self, *, default_model: LatencyModel = SAME_HOST,
                 delay_scale: float = 0.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 batching: bool = False) -> None:
        self.accounting = NetworkAccounting(default_model)
        #: Multiply modelled link delay by this and really sleep (0 = off).
        self.delay_scale = delay_scale
        #: Coalesce per-destination sends into batch frames (opt-in).
        self.batching = batching
        self.batcher = SendBatcher()
        #: Per node: ``dst -> [Message]``, the safe-time grants to
        #: piggyback on that node's outgoing batch frames (see register).
        self._grant_providers: Dict[str, GrantProvider] = {}
        #: Per-transport-instance message id stream (stamped at the send
        #: boundary).  Instance-local so two transports in one process —
        #: or a forked child's inherited copy — never interleave one
        #: global stream; ids only need to be unique per ``(src, id)``
        #: within the duplicate-suppression window, which this gives.
        self._msg_ids = itertools.count(1)
        #: Governs reconnect attempts for dead sockets *and* retries of
        #: injected drops when a fault plane is attached.
        self.retry_policy = retry_policy or RetryPolicy()
        self._endpoints: Dict[str, _NodeEndpoint] = {}
        self._call_handlers: Dict[str, Callable[[Message], Message]] = {}
        self._conns: Dict[Tuple[str, str], _Connection] = {}
        #: Cached per-directed-link connections for synchronous calls,
        #: separate from the one-way data connections: a call holds its
        #: connection's lock across the send *and* the reply read, which
        #: must never stall unrelated one-way traffic.  Reuse matters —
        #: a fresh ``create_connection`` per safe-time call churns
        #: ephemeral ports and dominates call latency under load.
        self._call_conns: Dict[Tuple[str, str], _Connection] = {}
        #: Optional executor hook invoked (from receiver threads) after a
        #: message lands in an inbox: lets an event-driven worker park on
        #: a condition instead of spinning on poll().
        self.wakeup_hook: Optional[Callable[[], None]] = None
        #: Nodes living in *other* processes: name -> (host, port).  Set
        #: by the multiprocess deployment after every worker has bound its
        #: listener; destinations are resolved here when not local.
        self._peers: Dict[str, Tuple[str, int]] = {}
        #: One-way wire traffic counters (logical messages + grants, not
        #: frames): the distributed quiescence check compares the sums of
        #: these across processes to know nothing is in flight.
        self.wire_out = 0
        self.wire_in = 0
        #: ``+=`` on an int is not atomic; in the threaded deployment
        #: many node threads share this transport, so unguarded counter
        #: bumps can lose updates and the quiescence balance check would
        #: then spin until its timeout.
        self.wire_lock = threading.Lock()
        #: Migration epoch (see :meth:`set_epoch`).  Outgoing traffic is
        #: stamped with it; arrivals stamped with an older epoch are
        #: dropped at ingest so a rolled-back run never sees ghosts from
        #: the world it left.
        self.epoch = 0
        #: Frames dropped by the epoch fence (diagnostic).
        self.stale_epoch_drops = 0
        #: The process that owns the live sockets.  A transport that
        #: crosses a ``fork``/``spawn`` must not reuse inherited FDs —
        #: the first touch from another PID drops them (see
        #: :meth:`_guard_process`).
        self._pid = os.getpid()
        #: Guards the connection *cache* only; frame writes serialise on
        #: each connection's own lock so independent links never contend.
        self._conn_lock = threading.Lock()
        #: Telemetry sink (attach via :meth:`attach_telemetry`).  Counter
        #: updates from receiver threads are advisory — a lost tick under
        #: contention skews a statistic, never the simulation.
        self.telemetry = NULL_TELEMETRY
        #: Fault plane (attach via :meth:`attach_faults`).
        self.fault_injector = None

    def _wake(self) -> None:
        """Nudge a parked executor after an arrival (see wakeup_hook)."""
        hook = self.wakeup_hook
        if hook is not None:
            hook()

    def _accept_spill(self, message: Message) -> bool:
        """Intercept an shm spill envelope (shared-memory subclass only)."""
        return False

    def _count_stale(self, n: int) -> None:
        self.stale_epoch_drops += n
        if self.telemetry.enabled:
            self.telemetry.count("transport.stale_epoch_drops", n)

    def set_epoch(self, epoch: int) -> None:
        """Enter migration epoch ``epoch`` and zero the wire counters.

        Called at a failover/migration barrier while local senders are
        parked.  Every endpoint lock is held across the switch so no
        receiver thread can file a stale frame between the epoch bump and
        the counter reset — afterwards the balance starts clean (0 == 0)
        and any late frame from the old world drops at ingest.
        """
        endpoints = sorted(self._endpoints.values(), key=lambda e: e.name)
        for endpoint in endpoints:
            endpoint.lock.acquire()
        try:
            self.epoch = epoch
            with self.wire_lock:
                self.wire_out = 0
                self.wire_in = 0
        finally:
            for endpoint in reversed(endpoints):
                endpoint.lock.release()

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
        self.retry_policy = injector.retry_policy

    def attach_health(self, monitor) -> None:
        """Feed per-link health estimators from the send/poll boundary."""
        self.accounting.health = monitor

    # ------------------------------------------------------------------
    # child-process safety
    # ------------------------------------------------------------------
    def _guard_process(self) -> None:
        """Detect crossing a ``fork``/``spawn`` and drop inherited sockets.

        A forked child inherits the parent's cached outbound connections
        and listening sockets as shared FDs; writing on them would corrupt
        the parent's frame streams, and accepting on them would steal the
        parent's connections.  On the first touch from a new PID every
        cached connection is closed (connections re-establish lazily on
        the next send) and every endpoint is rebound to a fresh listener
        on a new port, preserving its inbox.
        """
        if os.getpid() == self._pid:
            return
        self._pid = os.getpid()
        # Only the calling thread survives a fork, so no other thread can
        # be mid-send; closing our dups never disturbs the parent's FDs.
        conns, self._conns = self._conns, {}
        call_conns, self._call_conns = self._call_conns, {}
        for entry in list(conns.values()) + list(call_conns.values()):
            try:
                entry.sock.close()
            except OSError:
                pass
        stale, self._endpoints = self._endpoints, {}
        for name, old in stale.items():
            old.running = False
            try:
                old.server.close()
            except OSError:
                pass
            fresh = _NodeEndpoint(self, name)
            fresh.inbox.extend(old.inbox)
            self._endpoints[name] = fresh
        if self.telemetry.enabled:
            self.telemetry.count("transport.fork_resets")

    # ------------------------------------------------------------------
    def set_peer(self, name: str, port: int,
                 host: str = "127.0.0.1") -> None:
        """Declare a node living in another process, reachable at
        ``host:port`` (multiprocess deployment)."""
        if name in self._endpoints:
            raise TransportError(f"node {name!r} is registered locally")
        self._peers[name] = (host, port)

    def forget_peer(self, name: str) -> None:
        """Drop a remote node's address plus every cached link and queued
        batch touching it (the migration re-splice: the node is about to
        be re-declared at its new home via :meth:`set_peer`)."""
        self._peers.pop(name, None)
        self.batcher.clear(name)
        with self._conn_lock:
            for cache in (self._conns, self._call_conns):
                for key in [k for k in cache if name in k]:
                    entry = cache.pop(key)
                    try:
                        entry.sock.close()
                    except OSError:
                        pass

    def local_port(self, name: str) -> int:
        """The TCP port node ``name``'s local endpoint listens on."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise TransportError(f"unknown node {name!r}")
        return endpoint.port

    def _address_of(self, dst: str) -> Tuple[str, int]:
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            return ("127.0.0.1", endpoint.port)
        peer = self._peers.get(dst)
        if peer is not None:
            return peer
        raise TransportError(f"unknown destination node {dst!r}")

    def _known(self, dst: str) -> bool:
        return dst in self._endpoints or dst in self._peers

    # ------------------------------------------------------------------
    def register(self, name: str,
                 call_handler: Optional[Callable[[Message], Message]] = None,
                 grant_provider: Optional[GrantProvider] = None) -> int:
        """Create the node's endpoint; returns its TCP port."""
        self._guard_process()
        if name in self._endpoints:
            raise TransportError(f"node {name!r} already registered")
        endpoint = _NodeEndpoint(self, name)
        self._endpoints[name] = endpoint
        if call_handler is not None:
            self._call_handlers[name] = call_handler
        if grant_provider is not None:
            self._grant_providers[name] = grant_provider
        return endpoint.port

    def unregister(self, name: str) -> None:
        """Tear down the node's endpoint and any cached links to it."""
        endpoint = self._endpoints.pop(name, None)
        if endpoint is not None:
            endpoint.close()
        self._call_handlers.pop(name, None)
        self._grant_providers.pop(name, None)
        self.batcher.clear(name)
        with self._conn_lock:
            for cache in (self._conns, self._call_conns):
                for key in [k for k in cache if name in k]:
                    entry = cache.pop(key)
                    try:
                        entry.sock.close()
                    except OSError:
                        pass

    def nodes(self) -> list:
        return sorted(self._endpoints)

    def set_link(self, a: str, b: str, model: LatencyModel) -> None:
        self.accounting.set_model(a, b, model)

    def close(self) -> None:
        """Tear down endpoints and connections and reset link state.

        A closed transport must be reusable: peers, queued batches and
        the wire counters are cleared too, so a later ``register`` +
        ``send`` cycle neither resolves stale remote addresses nor starts
        with ``wire_balanced()`` already false.
        """
        for endpoint in self._endpoints.values():
            endpoint.close()
        with self._conn_lock:
            for cache in (self._conns, self._call_conns):
                for entry in cache.values():
                    try:
                        entry.sock.close()
                    except OSError:
                        pass
                cache.clear()
        self._endpoints.clear()
        self._peers.clear()
        self.batcher.clear()
        with self.wire_lock:
            self.wire_out = 0
            self.wire_in = 0
        self.epoch = 0
        self.stale_epoch_drops = 0

    # ------------------------------------------------------------------
    def _connection(self, src: str, dst: str) -> _Connection:
        key = (src, dst)
        with self._conn_lock:
            entry = self._conns.get(key)
            if entry is None:
                sock = socket.create_connection(self._address_of(dst),
                                                timeout=10.0)
                entry = _Connection(sock)
                self._conns[key] = entry
            return entry

    def _evict(self, src: str, dst: str, entry: _Connection) -> None:
        """Drop a dead cached connection so the next attempt reconnects."""
        with self._conn_lock:
            if self._conns.get((src, dst)) is entry:
                del self._conns[(src, dst)]
        try:
            entry.sock.close()
        except OSError:
            pass
        if self.telemetry.enabled:
            self.telemetry.count("transport.evictions")

    def _call_connection(self, src: str, dst: str) -> _Connection:
        """The cached request/response connection for one directed link."""
        key = (src, dst)
        with self._conn_lock:
            entry = self._call_conns.get(key)
            if entry is None:
                sock = socket.create_connection(self._address_of(dst),
                                                timeout=10.0)
                entry = _Connection(sock)
                self._call_conns[key] = entry
                if self.telemetry.enabled:
                    self.telemetry.count("transport.call_connects")
            return entry

    def _evict_call(self, src: str, dst: str, entry: _Connection) -> None:
        with self._conn_lock:
            if self._call_conns.get((src, dst)) is entry:
                del self._call_conns[(src, dst)]
        try:
            entry.sock.close()
        except OSError:
            pass
        if self.telemetry.enabled:
            self.telemetry.count("transport.evictions")

    def _charge(self, src: str, dst: str, size: int) -> None:
        delay = self.accounting.record(src, dst, size)
        if self.delay_scale > 0:
            _time.sleep(delay * self.delay_scale)

    def _dispatch_call(self, name: str, message: Message) -> Message:
        handler = self._call_handlers.get(name)
        if handler is None:
            raise TransportError(f"node {name!r} accepts no calls")
        return handler(message)

    def _retry_sleep(self, src: str, dst: str, retry_index: int,
                     time: float, seq: object) -> None:
        injector = self.fault_injector
        u = 0.5
        if injector is not None:
            u = injector.backoff_uniform(src, dst, retry_index)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("transport.retries")
            telemetry.trace(TraceKind.RETRY, time=time,
                            subject=f"{src}->{dst}",
                            attempt=retry_index + 1, seq=seq)
        _time.sleep(self.retry_policy.backoff(retry_index, u))

    def _send_reliable(self, src: str, dst: str, blob: bytes,
                       time: float) -> None:
        """Write one frame, reconnecting through dead cached sockets."""
        policy = self.retry_policy
        attempt = 0
        start = _time.monotonic()
        while True:
            entry = None
            try:
                entry = self._connection(src, dst)
                with entry.lock:
                    _send_frame(entry.sock, blob)
                return
            except (ConnectionError, OSError) as exc:
                if entry is not None:
                    self._evict(src, dst, entry)
                attempt += 1
                exhausted = (attempt >= policy.max_attempts
                             or _time.monotonic() - start >= policy.deadline)
                if exhausted:
                    raise LinkDown(
                        f"link {src}->{dst}: send failed after {attempt} "
                        f"attempt(s): {exc}", src=src, dst=dst,
                        attempts=attempt) from exc
                self._retry_sleep(src, dst, attempt - 1, time, None)

    # ------------------------------------------------------------------
    def send(self, message: Message) -> float:
        self._guard_process()
        if message.msg_id == 0:
            message.msg_id = next(self._msg_ids)
        message.epoch = self.epoch
        if self.telemetry.enabled:
            # Mint before the fault plane decides the fate: duplicates,
            # delays and retries all re-encode this message, so every
            # copy crossing the wire carries the original send's span.
            ensure_context(self.telemetry, message)
        injector = self.fault_injector
        remote = message.dst in self._peers
        action, ticks = "deliver", 0
        if injector is not None:
            action, ticks = injector.on_send(message)
            if action == "lost":
                return 0.0
        if self.batching and action in ("deliver", "duplicate"):
            # Queue for the next flush.  Mutable payloads are isolated
            # through a pickle round trip now so a sender mutating its
            # object between enqueue and flush cannot change what ships;
            # immutable payloads are enqueued as-is (copy elision).
            if is_immutable(message.payload):
                member = message
            else:
                member = decode(encode(message))
            if not self._known(message.dst):
                raise TransportError(
                    f"unknown destination node {message.dst!r}")
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.trace(TraceKind.MSG_SEND, time=message.time,
                                subject=f"{message.src}->{message.dst}",
                                message_kind=message.kind.value, batched=True,
                                **span_details(message.trace))
            self.batcher.enqueue(message.src, message.dst, member)
            if action == "duplicate":
                if remote:
                    # Redundant copy rides behind the original; the
                    # receiver marks the msg_id for exactly-once delivery.
                    self.batcher.enqueue(message.src, message.dst,
                                         _fault_envelope(_FAULT_DUP, member))
                else:
                    self.batcher.enqueue(message.src, message.dst, member)
                    injector.expect_duplicate(message.dst, member.msg_id,
                                               src=member.src)
            if injector is not None:
                late = injector.take_swaps(message.src, message.dst)
                if late:
                    self.batcher.extend(message.src, message.dst, late)
            return 0.0
        blob = encode(message)
        self._charge(message.src, message.dst, len(blob))
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.trace(TraceKind.MSG_SEND, time=message.time,
                            subject=f"{message.src}->{message.dst}",
                            message_kind=message.kind.value, bytes=len(blob),
                            **span_details(message.trace))
        if action == "delay":
            if remote:
                self._send_reliable(
                    message.src, message.dst,
                    encode(_fault_envelope(_FAULT_HOLD, decode(blob), ticks)),
                    message.time)
                with self.wire_lock:
                    self.wire_out += 1
            else:
                injector.hold(message.dst, decode(blob), ticks)
            return 0.0
        if action == "reorder":
            if remote:
                self._send_reliable(
                    message.src, message.dst,
                    encode(_fault_envelope(_FAULT_SWAP, decode(blob))),
                    message.time)
                with self.wire_lock:
                    self.wire_out += 1
            else:
                injector.hold_swap(message.src, message.dst, decode(blob))
            return 0.0
        self._send_reliable(message.src, message.dst, blob, message.time)
        with self.wire_lock:
            self.wire_out += 1
        if action == "duplicate":
            self._charge(message.src, message.dst, len(blob))
            if remote:
                self._send_reliable(
                    message.src, message.dst,
                    encode(_fault_envelope(_FAULT_DUP, decode(blob))),
                    message.time)
            else:
                self._send_reliable(message.src, message.dst, blob,
                                    message.time)
                injector.expect_duplicate(message.dst, message.msg_id,
                                           src=message.src)
            with self.wire_lock:
                self.wire_out += 1
        if injector is not None:
            for late in injector.take_swaps(message.src, message.dst):
                self._send_reliable(message.src, message.dst, encode(late),
                                    message.time)
                with self.wire_lock:
                    self.wire_out += 1
        return 0.0

    def flush_batches(self, *, src: Optional[str] = None,
                      dst: Optional[str] = None) -> int:
        """Ship matching queued batches: one frame, one ``sendall``, one
        latency charge per non-empty link.  Returns the number of logical
        messages flushed."""
        if not self.batching:
            return 0
        self._guard_process()
        flushed = 0
        providers = self._grant_providers
        telemetry = self.telemetry
        for (s, d), members in self.batcher.take(src=src, dst=dst):
            if not self._known(d):
                continue    # destination unregistered after enqueue
            provider = providers.get(s)
            grants = provider(d) if provider is not None else []
            blob = encode_batch(BatchFrame(s, d, members, grants,
                                           epoch=self.epoch))
            delay = self.accounting.record_frame(s, d, len(blob),
                                                 len(members))
            if self.delay_scale > 0:
                _time.sleep(delay * self.delay_scale)
            if telemetry.enabled and grants:
                telemetry.registry.handles.piggyback_sent.value += \
                    len(grants)
            self._send_reliable(s, d, blob, members[-1].time)
            with self.wire_lock:
                self.wire_out += len(members) + len(grants)
            flushed += len(members)
        return flushed

    def push_grants(self, src: str, dst: str,
                    grants: List[Message]) -> bool:
        """Ship a standalone grant-only frame ``src``→``dst`` — one frame
        instead of the stalled peer's two-frame request round trip."""
        if not self.batching or not grants:
            return False
        if not self._known(dst):
            return False
        blob = encode_batch(BatchFrame(src, dst, [], list(grants),
                                       epoch=self.epoch))
        delay = self.accounting.record_frame(src, dst, len(blob), 0)
        if self.delay_scale > 0:
            _time.sleep(delay * self.delay_scale)
        self._send_reliable(src, dst, blob, grants[-1].time)
        with self.wire_lock:
            self.wire_out += len(grants)
        return True

    def call(self, message: Message) -> Message:
        """Blocking request/response over a cached per-link connection.

        Connection failures (refused, reset, peer gone) evict the cached
        connection and are retried per the retry policy; exhaustion
        raises :class:`LinkDown` so callers never see a raw socket error
        for a dead peer.  A reply reporting that the *handler* raised is
        re-raised as :class:`RemoteCallError` — the link is fine, so no
        retries are burned on it.
        """
        self._guard_process()
        if message.msg_id == 0:
            message.msg_id = next(self._msg_ids)
        telemetry = self.telemetry
        if telemetry.enabled:
            ensure_context(telemetry, message)
        if self.fault_injector is not None:
            self.fault_injector.check_call(message)
        if self.batching:
            # A call is a synchronisation point on this link: queued
            # traffic either way lands first, as in the unbatched run.
            self.flush_batches(src=message.src, dst=message.dst)
            self.flush_batches(src=message.dst, dst=message.src)
        blob = encode(message)
        self._charge(message.src, message.dst, len(blob))
        if telemetry.enabled and message.trace is not None:
            telemetry.trace(TraceKind.MSG_SEND, time=message.time,
                            subject=f"{message.src}->{message.dst}",
                            message_kind=message.kind.value, bytes=len(blob),
                            call=True, **span_details(message.trace))
        policy = self.retry_policy
        attempt = 0
        start = _time.monotonic()
        while True:
            entry = None
            try:
                entry = self._call_connection(message.src, message.dst)
                with entry.lock:
                    _send_frame(entry.sock, blob)
                    reply = decode(_recv_frame(entry.sock))
                break
            except (ConnectionError, OSError) as exc:
                if entry is not None:
                    self._evict_call(message.src, message.dst, entry)
                attempt += 1
                exhausted = (attempt >= policy.max_attempts
                             or _time.monotonic() - start >= policy.deadline)
                if exhausted:
                    raise LinkDown(
                        f"call {message.src}->{message.dst} failed after "
                        f"{attempt} attempt(s): {exc}", src=message.src,
                        dst=message.dst, attempts=attempt) from exc
                self._retry_sleep(message.src, message.dst, attempt - 1,
                                  message.time, "call")
        error = _open_call_error(reply)
        if error is not None:
            remote_type, text = error
            raise RemoteCallError(
                f"call {message.src}->{message.dst} "
                f"({message.kind.value}) failed in the remote handler: "
                f"{remote_type}: {text}", src=message.src, dst=message.dst,
                remote_type=remote_type)
        self._charge(message.dst, message.src, len(encode(reply)))
        if telemetry.enabled:
            telemetry.trace(TraceKind.MSG_RECV, time=reply.time,
                            subject=f"{message.dst}->{message.src}",
                            message_kind=reply.kind.value, call=True,
                            **span_details(reply.trace))
        return reply

    def poll(self, name: str, *, limit: Optional[int] = None) -> List[Message]:
        self._guard_process()
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise TransportError(f"unknown node {name!r}")
        if self.batching:
            # Flush traffic bound for this node; frames arrive via the
            # receiver thread, so they may only be drained by a later
            # poll — the polling loops already spin until quiescent.
            self.flush_batches(dst=name)
        injector = self.fault_injector
        drained: List[Message] = []
        with endpoint.lock:
            if injector is not None:
                endpoint.inbox.extend(injector.release_due(name))
            while endpoint.inbox and (limit is None or len(drained) < limit):
                message = endpoint.inbox.popleft()
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
        held = self.batcher.pending(name)
        if self.fault_injector is not None:
            held += self.fault_injector.held_pending(name)
        if name is not None:
            endpoint = self._endpoints.get(name)
            return (len(endpoint.inbox) if endpoint else 0) + held
        return sum(len(e.inbox) for e in self._endpoints.values()) + held

    def wire_balanced(self) -> bool:
        """True when every counted send has been ingested at some endpoint.

        ``pending()`` cannot see a frame that has left the sender's socket
        but has not yet been filed by the receiver thread — on a loaded
        host that window stretches to milliseconds, long enough to fool an
        idle sweep.  The counter balance closes it: an in-flight frame
        keeps ``wire_out`` ahead of ``wire_in``.  Only meaningful when all
        the transport's peers are in this process (the threaded executor);
        the multiprocess coordinator compares per-worker sums instead.
        """
        with self.wire_lock:
            return self.wire_out == self.wire_in

    def flush(self) -> int:
        """Drop every undelivered message (rollback support)."""
        dropped = 0
        for endpoint in self._endpoints.values():
            with endpoint.lock:
                dropped += len(endpoint.inbox)
                endpoint.inbox.clear()
        dropped += self.batcher.clear()
        if self.fault_injector is not None:
            dropped += self.fault_injector.flush()
        return dropped

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
