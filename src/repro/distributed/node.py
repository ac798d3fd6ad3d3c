"""Pia nodes and their sockets (paper section 2).

"The Pia simulation system is a set of Pia nodes that can be interconnected
through a network.  Each node contains a number of sockets and each socket
can facilitate a connection to a design tool such as a simulator or a
compiler, or a device such as a processor, an ASIC or an FPGA."

A :class:`PiaNode` hosts one or more subsystems, routes channel traffic,
answers safe-time calls on behalf of its subsystems, and forwards hardware
calls to attached hardware servers.  Each node serves as both a client and
a server, and inter-node communication is hidden from the user
(section 2.2.1).

The node also runs its whole side of the conservative protocol (section
2.2.2.1), whichever executor drives it: a safe-time client per subsystem,
one safe-time service for its peers, and one grant builder feeding both
the grants piggybacked on batch frames and the grants pushed at the
cooperative executor's round boundaries.  :meth:`PiaNode.advance` steps
one subsystem and :meth:`PiaNode.round` is one full round of the node's
loop; the executors differ only in *when* they call them (a loop over
nodes, a thread per node, a process per node).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from ..core.errors import ConfigurationError, TransportError
from ..core.subsystem import Subsystem
from ..transport.message import Message, MessageKind
from .channel import ChannelMode
from .conservative import SafeTimeClient, SafeTimeService, compute_grant

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelEndpoint
    from .snapshot import SnapshotManager


@dataclass
class Socket:
    """A named attachment point on a node.

    ``kind`` is free-form but three values are conventional: ``subsystem``
    (a simulator fragment), ``hardware`` (a remote hardware server, paper
    section 2.3) and ``tool`` (an external design tool behind a wrapper).
    """

    name: str
    kind: str
    target: Any


def _never(*args) -> bool:
    return False


class PiaNode:
    """One host in the distributed Pia system."""

    def __init__(self, name: str, transport) -> None:
        self.name = name
        self.transport = transport
        self.subsystems: Dict[str, Subsystem] = {}
        self.sockets: Dict[str, Socket] = {}
        #: hooks by message kind for extension layers (snapshots, recovery).
        self.handlers: Dict[MessageKind, Callable[[Message], None]] = {}
        #: synchronous call services by kind (safe time, hardware).
        self.call_services: Dict[MessageKind, Callable[[Message], Message]] = {}
        #: observers of incoming SIGNAL traffic (Chandy-Lamport recording).
        self.signal_observers: List[Callable[[Message], None]] = []
        #: Serialises the node's own round against safe-time requests and
        #: flushes that reach it from other threads (transport receivers,
        #: peer nodes' threads).  Never held across a blocking call.
        self.lock = threading.RLock()
        #: Safe-time client of each local subsystem.
        self.clients: Dict[str, SafeTimeClient] = {}
        #: Executor hooks: whether optimistic channels currently count as
        #: conservative (a post-rollback window), and whether a node name
        #: is out of the run (crashed or dropped).
        self.conservative_override: Callable[[], bool] = _never
        self.offline: Callable[[str], bool] = _never
        SafeTimeService(self)
        transport.register(name, call_handler=self.handle_call,
                           grant_provider=self.piggyback_grants)

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------
    def add_socket(self, name: str, kind: str, target: Any) -> Socket:
        if name in self.sockets:
            raise ConfigurationError(f"{self.name}: duplicate socket {name!r}")
        socket = Socket(name, kind, target)
        self.sockets[name] = socket
        return socket

    def socket(self, name: str) -> Socket:
        try:
            return self.sockets[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no socket named {name!r}") from None

    # ------------------------------------------------------------------
    # subsystems
    # ------------------------------------------------------------------
    def add_subsystem(self, subsystem: Subsystem) -> Subsystem:
        if subsystem.name in self.subsystems:
            raise ConfigurationError(
                f"{self.name}: duplicate subsystem {subsystem.name}")
        if subsystem.node is not None:
            raise ConfigurationError(
                f"subsystem {subsystem.name} already lives on "
                f"{subsystem.node.name}")
        subsystem.node = self
        self.subsystems[subsystem.name] = subsystem
        self.clients[subsystem.name] = SafeTimeClient(subsystem)
        self.add_socket(f"subsystem:{subsystem.name}", "subsystem", subsystem)
        return subsystem

    def subsystem(self, name: str) -> Subsystem:
        try:
            return self.subsystems[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no subsystem named {name!r}") from None

    def endpoints(self) -> List["ChannelEndpoint"]:
        found = []
        for subsystem in self.subsystems.values():
            found.extend(subsystem.channels.values())
        return found

    def _endpoint_for(self, channel_id: str) -> "ChannelEndpoint":
        for subsystem in self.subsystems.values():
            endpoint = subsystem.channels.get(channel_id)
            if endpoint is not None:
                return endpoint
        raise ConfigurationError(
            f"{self.name}: no endpoint for channel {channel_id!r}")

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send_channel_message(self, message: Message) -> None:
        self.transport.send(message)

    def pump(self, *, limit: Optional[int] = None) -> int:
        """Drain and dispatch incoming messages; returns how many."""
        messages = self.transport.poll(self.name, limit=limit)
        for message in messages:
            self.dispatch(message)
        return len(messages)

    def dispatch(self, message: Message) -> None:
        kind = message.kind
        handlers = self.handlers
        # Extension hooks are rare (a snapshot layer registering MARK);
        # skip the enum-keyed lookup entirely when none are installed so
        # the signal fast path below stays identity checks only.
        if handlers:
            hook = handlers.get(kind)
            if hook is not None:
                hook(message)
                return
        if kind is MessageKind.SAFE_TIME_GRANT:
            peer_injected, peer_forwarded = message.payload
            self._endpoint_for(message.channel).apply_grant(
                message.time, peer_injected, peer_forwarded)
            return
        if kind is MessageKind.SIGNAL:
            endpoint = self._endpoint_for(message.channel)
            telemetry = endpoint.subsystem.scheduler.telemetry
            traced = telemetry.enabled and message.trace is not None
            if traced:
                # Events this signal injects inherit its trace context,
                # linking the local dispatch chain to the remote send.
                telemetry.cause = message.trace
            try:
                for observer in self.signal_observers:
                    observer(message)
                endpoint.receive_signal(message)
            finally:
                if traced:
                    telemetry.cause = None
            return
        raise TransportError(
            f"{self.name}: no handler for {message.kind} message")

    def handle_call(self, message: Message) -> Message:
        """Synchronous service entry point (safe time, hardware calls)."""
        service = self.call_services.get(message.kind)
        if service is None:
            raise TransportError(
                f"{self.name}: no call service for {message.kind}")
        return service(message)

    # ------------------------------------------------------------------
    # the node's round
    # ------------------------------------------------------------------
    def advance(self, subsystem: Subsystem, until: float, *,
                should_refresh: Optional[Callable[[str, float], bool]] = None
                ) -> Optional[int]:
        """Step ``subsystem`` as far as its safe-time horizon allows.

        Reads the horizon, refreshes it when the next event lies beyond
        (unless ``should_refresh(name, desired)`` declines), then runs
        under it.  The refresh makes blocking network calls, so it runs
        outside the lock.  Returns the events dispatched, or None when
        the subsystem had nothing due or stayed stalled.
        """
        client = self.clients[subsystem.name]
        with self.lock:
            next_time = subsystem.next_event_time()
        if next_time == float("inf") or next_time > until:
            return None
        horizon = client.horizon()
        if horizon < next_time:
            desired = min(next_time, until)
            if should_refresh is None \
                    or should_refresh(subsystem.name, desired):
                horizon = client.refresh(desired)
        if next_time > horizon:
            return None
        with self.lock:
            # The horizon is re-read before every dispatch: sending on a
            # channel shrinks it via the echo bound.
            return subsystem.run(until, horizon=client.horizon)

    def round(self, until: float) -> Tuple[bool, int]:
        """One round of this node's own loop: pump, advance every local
        subsystem, flush this node's frames.  Returns whether anything
        moved and how many events were dispatched.

        No round-boundary push (:meth:`push_grants`) here: a concurrent
        driver's rounds are paced by wall-clock arrivals, so the number
        of pushes, and with it the frame count, would vary from run to
        run.  Stalled peers fall back to explicit requests instead.
        """
        with self.lock:
            moved = self.pump() > 0
        dispatched = 0
        for name in sorted(self.subsystems):
            with self.lock:
                moved = self.pump() > 0 or moved
            dispatched += self.advance(self.subsystems[name], until) or 0
        if getattr(self.transport, "batching", False):
            moved = self.transport.flush_batches(src=self.name) > 0 or moved
        return moved or dispatched > 0, dispatched

    # ------------------------------------------------------------------
    # grants: piggybacked on frames, pushed at round boundaries
    # ------------------------------------------------------------------
    def _grant(self, endpoint: "ChannelEndpoint", grant: float) -> Message:
        """The grant message for one channel end, and its ledger entry:
        the peer is about to learn ``grant`` and our consumption count,
        and a recorded want the grant satisfies needs no further push."""
        if endpoint.peer_want and grant >= endpoint.peer_want:
            endpoint.peer_want = 0.0
        endpoint.injected_reported = endpoint.injected
        endpoint.granted_reported = grant
        return Message(kind=MessageKind.SAFE_TIME_GRANT, src=self.name,
                       dst=endpoint.peer_node,
                       channel=endpoint.channel.channel_id, time=grant,
                       payload=(endpoint.injected, endpoint.forwarded))

    def _granting_channels(self, conservative: bool):
        """(subsystem, endpoint) for every live channel end that reports
        grants, in subsystem and channel name order."""
        for ss_name in sorted(self.subsystems):
            subsystem = self.subsystems[ss_name]
            for channel_id in sorted(subsystem.channels):
                endpoint = subsystem.channels[channel_id]
                if endpoint.severed:
                    continue
                if endpoint.mode is not ChannelMode.CONSERVATIVE \
                        and not conservative:
                    continue
                yield subsystem, endpoint

    def piggyback_grants(self, dst: str) -> List[Message]:
        """Grants riding on this node's next batch frame to ``dst``.

        Called by a batching transport at flush time; the grants travel
        behind the frame's data messages, so by the time the receiver
        applies one, everything its floor assumed is already injected.
        Peers then advance without a synchronous safe-time round trip.

        The lock is only *tried*: a flush may run on a thread serving a
        peer's request, and blocking there could deadlock two nodes
        flushing towards each other.  Failing just means this frame
        carries no grants; the request path still guarantees progress.
        """
        if self.offline(self.name) or not self.lock.acquire(blocking=False):
            return []
        try:
            conservative = self.conservative_override()
            return [self._grant(endpoint, compute_grant(
                        subsystem, endpoint.peer_subsystem,
                        conservative_override=conservative))
                    for subsystem, endpoint
                    in self._granting_channels(conservative)
                    if endpoint.peer_node == dst]
        finally:
            self.lock.release()

    def push_grants(self) -> bool:
        """The cooperative executor's round boundary under batching: push
        a standalone grant frame to each peer with news it may never
        otherwise learn.  Each push is one frame replacing the two-frame
        request round trip the peer would otherwise issue.  Returns True
        if anything was pushed."""
        push = getattr(self.transport, "push_grants", None)
        if push is None:
            return False
        by_dst: Dict[str, List[Message]] = {}
        with self.lock:
            conservative = self.conservative_override()
            runnable = {}
            for name, subsystem in self.subsystems.items():
                # A subsystem that can still run talks to its peers
                # through data frames, whose piggybacked grants carry
                # everything below; only one that cannot (stalled below
                # its next event, or idle) has news to push.
                next_time = subsystem.next_event_time()
                runnable[name] = (next_time != float("inf") and
                                  self.clients[name].horizon() >= next_time)
            for subsystem, endpoint in self._granting_channels(conservative):
                if self.offline(endpoint.peer_node):
                    continue
                want = endpoint.peer_want
                # Unreported consumption must reach the peer so it can
                # release its echo ledger (it skips requests under
                # batching, counting on exactly this push).
                stale = endpoint.injected > endpoint.injected_reported
                if runnable[subsystem.name] and not want:
                    continue
                grant = compute_grant(subsystem, endpoint.peer_subsystem,
                                      conservative_override=conservative)
                if want:
                    # The peer told us what it needs: push only once the
                    # floor passes it (or counts must flow).
                    if grant < want and not stale:
                        continue
                elif not stale and grant <= endpoint.granted_reported:
                    continue    # nothing the peer doesn't already know
                by_dst.setdefault(endpoint.peer_node, []).append(
                    self._grant(endpoint, grant))
        pushed = False
        telemetry = self.transport.telemetry
        for dst, grants in sorted(by_dst.items()):
            if push(self.name, dst, grants):
                pushed = True
                if telemetry.enabled:
                    telemetry.registry.handles.pushed.value += len(grants)
        return pushed

    # ------------------------------------------------------------------
    def start(self) -> None:
        for subsystem in self.subsystems.values():
            subsystem.start()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PiaNode {self.name} subsystems={sorted(self.subsystems)} "
                f"sockets={len(self.sockets)}>")
