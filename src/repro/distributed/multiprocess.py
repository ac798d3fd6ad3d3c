"""Process-per-node driver: real parallelism across OS processes.

The paper's deployment is one JVM *process* per Pia node, joined by RMI —
genuinely parallel machines.  :class:`ThreadedCoSimulation` mirrors the
concurrency shape but executes all Python bytecode under one GIL, so
adding nodes never adds cores.  This module completes the picture: each
:class:`~repro.distributed.node.PiaNode` runs in its own OS process over
the real :class:`~repro.transport.tcp.TcpTransport` (loopback), with the
batched fast path and grant piggybacking on by default, so compute-heavy
subsystems scale with cores.  The protocol step is the node's own
:meth:`~repro.distributed.node.PiaNode.round`, the same one the threaded
driver runs; a worker process only decides when to run it, between
control-plane messages.

Three problems are specific to crossing a process boundary:

* **Bootstrap** — live components cannot cross ``spawn``, so the system
  is described as picklable *specs*: subsystems are named factories
  (dotted-path or :func:`register_factory` names) the worker resolves and
  calls in its own process.
* **Coordination** — a pipe-based control plane starts, probes, quiesces
  and stops the workers; a worker that dies (or a scheduled
  :class:`~repro.faults.NodeCrash` the coordinator fires) surfaces as a
  typed :class:`~repro.core.errors.NodeFailure`, exactly like the
  threaded executor.  Quiescence itself is a distributed property,
  detected by a double probe over logical wire counters
  (``TcpTransport.wire_out``/``wire_in``): two consecutive sweeps showing
  every worker idle, all event queues past ``until``, nothing parked, and
  the global out/in sums balanced and unchanged.
* **Observability** — every worker runs its own
  :class:`~repro.observability.Telemetry`; at quiescence each serialises
  its deterministic snapshot back to the coordinator, which merges them
  (:mod:`repro.observability.merge`) into one
  :class:`~repro.observability.RunReport` with the same shape as a
  single-process report.

Chaos stays reproducible: fault decisions are pure functions of the
*plan seed* and per-link ordinals, so every worker receives
``fault_plan.for_node(...)`` — same seed, crashes filtered — and the
drop/duplicate/delay counters of a seeded run match the single-process
executors bit for bit.

With ``failure_policy="migrate"`` the coordinator becomes a supervisor:
before the run starts it takes a baseline Chandy-Lamport cut (every
worker archives portable images of its subsystems back to the
coordinator — stable storage in the paper's terms), and the supervision
loop feeds a heartbeat :class:`~repro.faults.FailureDetector`.  A worker
that dies, partitions, or is killed by a scheduled
:class:`~repro.faults.NodeCrash` is *replaced*: a fresh pool worker
adopts the lost node, every channel endpoint is re-spliced (peer tables,
shm rings, TCP connections), all workers roll back to the last completed
global snapshot under a new migration epoch (stale pre-failover traffic
is fenced at ingest), recorded in-flight messages are re-injected, and
the run resumes — deterministically, because conservative execution from
a consistent cut is a pure function of the virtual state.
:meth:`MultiprocessCoSimulation.migrate` uses the same machinery to move
a live node between workers on request: halt, drain the wire to
quiescence, cut, re-splice, restore, resume.
"""

from __future__ import annotations

import importlib
import itertools
import json
import multiprocessing
import os
import threading
import time as _time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mpconn
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx

from ..core.errors import (
    ConfigurationError,
    MigrationError,
    NodeFailure,
    SimulationError,
    TopologyError,
    TransportError,
)
from ..core.subsystem import Subsystem
from ..faults import FailureDetector, FaultInjector, FaultPlan, RetryPolicy
from ..observability import (
    LinkHealthMonitor,
    RunReport,
    Telemetry,
    TimeSeriesRecorder,
    TraceKind,
    finalize_health,
    merge_counters,
    merge_gauges,
    merge_health_rows,
    merge_histograms,
    merge_link_rows,
    merge_series,
    merge_timings,
    merge_trace_records,
)
from ..observability.export import stall_attribution, subject_nodes
from ..observability.timeseries import DEFAULT_CAPACITY as SERIES_CAPACITY
from ..observability.report import _link_rows, _subsystem_row
from ..transport.codec import VERSION as CODEC_VERSION
from ..transport.shm import (
    DEFAULT_RING_CAPACITY,
    SharedMemoryTransport,
    create_ring_segment,
)
from ..transport.tcp import TcpTransport
from .channel import Channel, ChannelMode
from .migration import (
    MigrationRecord,
    NodeArchive,
    archive_node,
    resent_counts,
    restore_node,
)
from .node import PiaNode
from .snapshot import SnapshotManager, SnapshotRegistry, new_snapshot_id

#: Failure policies the multiprocess executor understands.
MP_FAILURE_POLICIES = ("raise", "migrate")

#: Factories registered by short name (an alternative to dotted paths).
_FACTORIES: Dict[str, Callable[..., Subsystem]] = {}


def register_factory(name: str, factory: Callable[..., Subsystem]) -> None:
    """Register ``factory`` under ``name`` for use in subsystem specs.

    Registration is per-process: a factory registered only in the
    coordinator is invisible to spawned workers, so registry names are
    mainly for tests and single-process tooling — specs that must cross
    ``spawn`` should use importable dotted paths.
    """
    if not callable(factory):
        raise ConfigurationError(f"factory {name!r} is not callable")
    _FACTORIES[name] = factory


def resolve_factory(ref: str) -> Callable[..., Subsystem]:
    """Resolve a factory reference: a registered name, ``pkg.mod:attr``,
    or ``pkg.mod.attr``."""
    found = _FACTORIES.get(ref)
    if found is not None:
        return found
    if ":" in ref:
        module_name, __, attr_path = ref.partition(":")
    else:
        module_name, __, attr_path = ref.rpartition(".")
    if not module_name or not attr_path:
        raise ConfigurationError(
            f"cannot resolve subsystem factory {ref!r}: use a registered "
            "name or a dotted path like 'package.module:callable'")
    try:
        target = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import factory module {module_name!r}: {exc}") from exc
    for part in attr_path.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise ConfigurationError(
                f"module {module_name!r} has no attribute chain "
                f"{attr_path!r}") from None
    if not callable(target):
        raise ConfigurationError(f"factory {ref!r} resolved to a "
                                 f"non-callable {target!r}")
    return target


@dataclass(frozen=True)
class SubsystemSpec:
    """A picklable recipe for one subsystem: the factory is called as
    ``factory(name, *args, **kwargs)`` in the worker process and must
    return a fully built :class:`~repro.core.subsystem.Subsystem` of that
    name (components added, nets wired)."""

    name: str
    factory: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def build(self) -> Subsystem:
        subsystem = resolve_factory(self.factory)(
            self.name, *self.args, **dict(self.kwargs))
        if not isinstance(subsystem, Subsystem):
            raise ConfigurationError(
                f"factory {self.factory!r} returned "
                f"{type(subsystem).__name__}, not a Subsystem")
        if subsystem.name != self.name:
            raise ConfigurationError(
                f"factory {self.factory!r} built subsystem "
                f"{subsystem.name!r}, expected {self.name!r}")
        return subsystem


@dataclass(frozen=True)
class ChannelSpec:
    """A picklable conservative channel between two subsystem specs.

    ``nets`` are the names of the split nets the channel carries; each
    side's factory must have created its half (same name) via
    ``Subsystem.wire``.
    """

    channel_id: str
    subsystem_a: str
    node_a: str
    subsystem_b: str
    node_b: str
    delay: float = 0.0
    nets: Tuple[str, ...] = ()

    def touches(self, node: str) -> bool:
        return node in (self.node_a, self.node_b)


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything one worker process needs to bootstrap its node."""

    node: str
    subsystems: Tuple[SubsystemSpec, ...]
    channels: Tuple[ChannelSpec, ...]
    batching: bool = True
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None
    trace_capacity: int = 4096
    transport: str = "tcp"
    ring_capacity: int = DEFAULT_RING_CAPACITY
    #: True under ``failure_policy="migrate"``: a vanished peer is the
    #: supervisor's problem, so transport failures wedge the worker
    #: (no progress, await restore) instead of killing it.
    supervised: bool = False
    #: Telemetry plane: time-series cadences (either unset leaves that
    #: cadence off), per-link health estimators, and whether ``status?``
    #: replies carry streaming telemetry deltas.
    series_interval: Optional[float] = None
    series_wall_interval: Optional[float] = None
    health: bool = False
    stream: bool = False


class _ControlInbox:
    """The worker process's single wait point.

    A reader thread pushes every control-pipe message here; the
    transport's ``wakeup_hook`` kicks the same condition when network
    traffic arrives.  The serve loop can therefore *park* — one
    condition wait instead of a ``poll(0)``/sleep spin — and still react
    immediately to either control or data.
    """

    def __init__(self) -> None:
        self._messages: deque = deque()
        self._cond = threading.Condition()
        self._wake = False
        self.eof = False

    def push(self, message) -> None:
        with self._cond:
            self._messages.append(message)
            self._cond.notify_all()

    def push_eof(self) -> None:
        with self._cond:
            self.eof = True
            self._cond.notify_all()

    def kick(self) -> None:
        """Transport wakeup: remembered so a kick that lands between a
        worker's last poll and its park is not lost."""
        with self._cond:
            self._wake = True
            self._cond.notify_all()

    def pop(self):
        """Next queued control message, or None without blocking."""
        with self._cond:
            return self._messages.popleft() if self._messages else None

    def wait_control(self):
        """Block until a control message arrives; None means EOF."""
        with self._cond:
            while not self._messages:
                if self.eof:
                    return None
                self._cond.wait()
            return self._messages.popleft()

    def park(self, timeout: float) -> None:
        """Sleep until control, transport activity, EOF, or ``timeout``."""
        with self._cond:
            if not (self._wake or self._messages or self.eof):
                self._cond.wait(timeout)
            self._wake = False


class _Worker:
    """The child-process side: one node, its subsystems, and a control
    loop that runs the node's rounds between control messages."""

    def __init__(self, spec: _WorkerSpec, conn,
                 inbox: Optional[_ControlInbox] = None) -> None:
        self.spec = spec
        self.conn = conn
        self.inbox = inbox if inbox is not None else _ControlInbox()
        self.telemetry = Telemetry(trace_capacity=spec.trace_capacity)
        if spec.transport == "shm":
            self.transport = SharedMemoryTransport(
                batching=spec.batching, ring_capacity=spec.ring_capacity)
        else:
            self.transport = TcpTransport(batching=spec.batching)
        self.transport.wakeup_hook = self.inbox.kick
        self.transport.attach_telemetry(self.telemetry)
        self.injector: Optional[FaultInjector] = None
        if spec.fault_plan is not None:
            self.injector = FaultInjector(spec.fault_plan,
                                          retry_policy=spec.retry_policy,
                                          telemetry=self.telemetry)
            self.transport.attach_faults(self.injector)
        elif spec.retry_policy is not None:
            self.transport.retry_policy = spec.retry_policy
        self.series: Optional[TimeSeriesRecorder] = None
        if spec.series_interval is not None \
                or spec.series_wall_interval is not None:
            self.series = self.telemetry.attach_series(TimeSeriesRecorder(
                virtual_interval=spec.series_interval,
                wall_interval=spec.series_wall_interval))
        self.health_monitor: Optional[LinkHealthMonitor] = None
        if spec.health:
            self.health_monitor = LinkHealthMonitor()
            self.transport.attach_health(self.health_monitor)
            self.telemetry.health = self.health_monitor
        #: Counter values already shipped in streaming deltas.
        self._streamed: Dict[str, int] = {}
        self.node = PiaNode(spec.node, self.transport)
        for sspec in spec.subsystems:
            subsystem = sspec.build()
            self.node.add_subsystem(subsystem)
            subsystem.attach_telemetry(self.telemetry)
        self._attach_channels()
        # Chandy-Lamport participation: the coordinator triggers cuts
        # over the control pipe; marks cross between workers as ordinary
        # channel traffic.  Completion is judged against the *local*
        # subsystems — the coordinator assembles the global picture from
        # the archives each worker pushes back.
        self.registry = SnapshotRegistry()
        self.snapshots = SnapshotManager(
            self.node, self.registry, lambda: list(self.node.subsystems))
        self.snapshots.telemetry = self.telemetry
        #: Cut ids initiated here whose archive has not been pushed yet.
        self._open_cuts: set = set()
        self.until = float("inf")
        self.dispatched = 0
        self.rounds = 0
        #: Whether the last round moved anything (reported in status).
        self.progress = False

    # ------------------------------------------------------------------
    def _attach_channels(self) -> None:
        name = self.node.name
        for cs in self.spec.channels:
            channel = Channel(cs.channel_id, ChannelMode.CONSERVATIVE,
                              delay=cs.delay)
            sides = (
                (cs.subsystem_a, cs.node_a, cs.subsystem_b, cs.node_b),
                (cs.subsystem_b, cs.node_b, cs.subsystem_a, cs.node_a),
            )
            for local_ss, local_node, peer_ss, peer_node in sides:
                if local_node != name:
                    continue
                subsystem = self.node.subsystem(local_ss)
                endpoint = channel.attach(subsystem, peer_subsystem=peer_ss,
                                          peer_node=peer_node)
                for net_name in cs.nets:
                    net = subsystem.nets.get(net_name)
                    if net is None:
                        raise ConfigurationError(
                            f"channel {cs.channel_id}: subsystem "
                            f"{local_ss!r} has no net {net_name!r} — its "
                            "factory must wire it")
                    endpoint.tap(net)

    def _status(self) -> dict:
        with self.node.lock:
            rows = []
            for name, subsystem in sorted(self.node.subsystems.items()):
                client = self.node.clients[name]
                horizon = client.horizon()
                blocking = client.blocking_endpoint()
                next_time = subsystem.next_event_time()
                rows.append({
                    "name": name,
                    "time": subsystem.now,
                    "next_event": next_time,
                    "dispatched": subsystem.scheduler.dispatched,
                    "stalls": subsystem.scheduler.stalls,
                    "queue_depth": len(subsystem.scheduler.queue),
                    "horizon": horizon,
                    "stalled": next_time != float("inf")
                        and next_time > horizon,
                    "waiting_on": None if blocking is None else
                        f"{blocking.peer_subsystem}@{blocking.peer_node}",
                })
            pending = self.transport.pending()
            status = {
                "node": self.node.name,
                "idle": not self.progress,
                "subsystems": rows,
                "wire_out": self.transport.wire_out,
                "wire_in": self.transport.wire_in,
                "pending": pending,
                "rounds": self.rounds,
                "epoch": self.transport.epoch,
                "stale_drops": self.transport.stale_epoch_drops,
                "wall": _time.time(),
            }
            if self.spec.stream:
                status["telemetry"] = self._stream_delta()
            return status

    def _stream_delta(self) -> dict:
        """Incremental telemetry riding a streaming ``status?`` reply:
        counter *deltas* since the last reply (payload proportional to
        activity, not run length), absolute gauges, the unshipped tail of
        every time-series, and the raw link-health rows.  Lossy by
        design — a delta the coordinator drops as stale is simply absent
        from the live view; the final report merges the workers'
        absolute bundles, so accuracy is never at stake."""
        snap = self.telemetry.registry.snapshot()
        counters: Dict[str, int] = {}
        for name, value in snap["counters"].items():
            shipped = self._streamed.get(name, 0)
            if value != shipped:
                counters[name] = value - shipped
                self._streamed[name] = value
        delta = {"counters": counters, "gauges": snap["gauges"]}
        if self.series is not None:
            delta["series"] = self.series.take_delta()
        if self.health_monitor is not None:
            delta["health"] = self.health_monitor.rows()
        return delta

    def _report_bundle(self) -> dict:
        # The serve-loop round count is wall-paced (how many control
        # sweeps the OS scheduler let us run), so it must NOT enter the
        # gauge registry — gauges land in the report's deterministic
        # projection.  The bundle's own "rounds" field carries it for
        # status views instead.
        with self.node.lock:
            subsystems = [_subsystem_row(subsystem)
                          for __, subsystem
                          in sorted(self.node.subsystems.items())]
            snap = self.telemetry.registry.snapshot()
            return {
                "node": self.node.name,
                "dispatched": self.dispatched,
                "rounds": self.rounds,
                "subsystems": subsystems,
                "links": _link_rows(self.transport),
                "counters": snap["counters"],
                "gauges": snap["gauges"],
                "histograms": snap["histograms"],
                "trace_counts": self.telemetry.trace_buffer.counts_by_kind(),
                "trace_dropped": self.telemetry.trace_buffer.dropped,
                # The full per-worker trace rides home with the bundle so
                # the coordinator can merge one causally linked timeline.
                "trace": [dict(record.to_dict(), node=self.node.name,
                               wall=record.wall)
                          for record in self.telemetry.trace_buffer.records()],
                "timings": self.telemetry.registry.timings(),
                "faults": self.injector.summary()
                          if self.injector is not None else {},
                "wire_out": self.transport.wire_out,
                "wire_in": self.transport.wire_in,
                "series": self.series.to_dict()
                          if self.series is not None else {},
                "health": self.health_monitor.rows()
                          if self.health_monitor is not None else [],
            }

    # ------------------------------------------------------------------
    # migration plumbing (coordinator-triggered, over the control pipe)
    # ------------------------------------------------------------------
    def _drain_round(self) -> bool:
        """Pump and flush without running subsystems — the halted worker's
        round, so in-flight traffic (data, marks, fault-held deliveries)
        keeps draining while the simulation itself is stopped."""
        try:
            with self.node.lock:
                moved = self.node.pump() > 0
            self.transport.flush_batches(src=self.node.name)
        except TransportError:
            if not self.spec.supervised:
                raise
            return False
        return moved

    def _initiate_cut(self, snapshot_id: str) -> None:
        with self.node.lock:
            for name in sorted(self.node.subsystems):
                self.snapshots.initiate(self.node.subsystems[name],
                                        snapshot_id)
        self._open_cuts.add(snapshot_id)

    def _cut_complete(self, snapshot_id: str) -> bool:
        snap = self.registry.snapshots.get(snapshot_id)
        if snap is None:
            return False
        return all(name in snap.cuts and snap.cuts[name].complete
                   for name in self.node.subsystems)

    def _announce_cuts(self) -> None:
        """Push the archive for every locally completed cut — the paper's
        'transmit the checkpoint to stable storage' step, so a restore
        point survives the death of the worker that produced it."""
        for snapshot_id in sorted(self._open_cuts):
            if not self._cut_complete(snapshot_id):
                continue
            self._open_cuts.discard(snapshot_id)
            with self.node.lock:
                archive = archive_node(
                    self.node, self.registry, snapshot_id,
                    self.telemetry.spans.ordinals())
            self.conn.send(("cut-data", archive))

    def _restore(self, payload: dict) -> None:
        """Roll this node back to a restore point under a new epoch."""
        epoch = payload["epoch"]
        # Black box first: the discarded world's last moments are exactly
        # what a restore post-mortem needs, and the rollback wipes them.
        flight = self.telemetry.flight
        if flight.enabled and len(flight):
            flight.note("restore", self.node.name, epoch=epoch)
            flight.dump(tag=self.node.name, reason="restore")
        with self.node.lock:
            # Fence first: traffic minted in the discarded world must not
            # leak into the restored one.  ``set_epoch`` also rebases the
            # logical wire counters to a balanced zero on every worker.
            self.transport.set_epoch(epoch)
            self.transport.flush()
            self.telemetry.spans.set_epoch(epoch)
            minter = payload.get("minter_ordinals")
            if minter:
                self.telemetry.spans.load_ordinals(minter)
            # In-progress cuts recorded state of the discarded world.
            self.registry.snapshots.clear()
            self._open_cuts.clear()
            replayed = restore_node(self.node, payload["images"],
                                    payload["resent"])
            # run()'s contribution counter mirrors the restored schedulers
            # so merged dispatch totals match an uninterrupted run.
            self.dispatched = sum(ss.scheduler.dispatched
                                  for ss in self.node.subsystems.values())
        self.until = payload["until"]
        if self.telemetry.enabled:
            self.telemetry.count("migration.restores")
            if replayed:
                self.telemetry.count("migration.replayed_messages",
                                     replayed)

    # ------------------------------------------------------------------
    def serve(self) -> None:
        conn = self.conn
        inbox = self.inbox
        # Hello carries the wire-codec version: every process must speak
        # the same frame layout, and a mixed deployment (a stale worker
        # importing an old tree) must die at startup, not mid-run with a
        # cryptic decode error.
        conn.send(("port", (self.transport.local_port(self.node.name),
                            CODEC_VERSION)))
        running = False
        crashed = False
        halted = False
        idle_noted = False
        while True:
            message = inbox.pop()
            if message is not None:
                tag = message[0]
                if tag == "peers":
                    for peer, (host, port) in sorted(message[1].items()):
                        self.transport.set_peer(peer, port, host)
                elif tag == "repeer":
                    # Re-splice after a migration: drop the stale address,
                    # cached connections and (shm) retired rings before
                    # learning the node's new home.
                    for peer, (host, port) in sorted(message[1].items()):
                        self.transport.forget_peer(peer)
                        self.transport.set_peer(peer, port, host)
                elif tag == "rings":
                    self._attach_rings(message[1])
                elif tag == "detach-rings":
                    if isinstance(self.transport, SharedMemoryTransport):
                        self.transport.detach_node_rings(message[1])
                elif tag == "start":
                    self.until = message[1]
                    with self.node.lock:
                        self.node.start()
                    running = True
                    halted = False
                    idle_noted = False
                elif tag == "halt":
                    halted = True
                    try:
                        self.transport.flush_batches(src=self.node.name)
                    except TransportError:
                        if not self.spec.supervised:
                            raise
                    # Echo the token: the coordinator drops acks from
                    # coordination rounds a cascading failure aborted.
                    conn.send(("halted", message[1]))
                elif tag == "cut":
                    self._initiate_cut(message[1])
                elif tag == "restore":
                    self._restore(message[1])
                    # Stay parked until the coordinator's start: running
                    # ahead of peers still restoring would only mint
                    # traffic their epoch fence discards.
                    halted = True
                    conn.send(("restored", message[1]["epoch"]))
                elif tag == "status?":
                    conn.send(("status", self._status()))
                elif tag == "crash":
                    crashed = True
                    if self.injector is not None:
                        self.injector.mark_down(self.node.name)
                elif tag == "report?":
                    conn.send(("report", self._report_bundle()))
                elif tag == "stop":
                    return
                continue    # drain queued control before the next round
            if inbox.eof:
                # Coordinator gone: exit rather than linger as an orphan.
                return
            if not running or crashed or halted:
                if not crashed and (halted or self._open_cuts):
                    # Halted (or parked with an open cut): keep the wire
                    # draining so in-flight traffic and marks land, and
                    # push archives as cuts complete.
                    moved = self._drain_round()
                    self._announce_cuts()
                    inbox.park(0.01 if moved else 0.05)
                else:
                    inbox.park(60.0)
                continue
            try:
                self.progress, dispatched = self.node.round(self.until)
                self.dispatched += dispatched
            except TransportError:
                if not self.spec.supervised:
                    raise
                # A peer vanished mid-send.  The supervisor is about to
                # fail over and restore this worker — wedge (report no
                # progress, keep serving control) instead of dying, so
                # one dead node does not cascade into a dead cluster.
                self.progress = False
            self.rounds += 1
            series = self.series
            if series is not None:
                # Sampled at the round boundary, never inside dispatch:
                # the virtual cadence is deterministic for a given
                # schedule, the wall cadence is a measurement.
                with self.node.lock:
                    now = min((ss.now
                               for ss in self.node.subsystems.values()),
                              default=0.0)
                series.tick(now, self.telemetry.registry,
                            wall=_time.monotonic())
            self._announce_cuts()
            if self.progress:
                idle_noted = False
                continue
            if not idle_noted:
                # One note per idle transition wakes the coordinator's
                # supervision wait without a per-round status storm.
                idle_noted = True
                conn.send(("note", "idle"))
            # Park until control or network traffic; the short backstop
            # covers tick-counted fault releases that arrive without a
            # wire-level wakeup.
            inbox.park(0.05)

    def _attach_rings(self, names: Dict[Tuple[str, str], str]) -> None:
        if not isinstance(self.transport, SharedMemoryTransport):
            return
        me = self.node.name
        for (src, dst), name in sorted(names.items()):
            if src == me:
                self.transport.attach_outbound_ring(src, dst, name)
            elif dst == me:
                self.transport.attach_inbound_ring(src, dst, name)

    def close(self) -> None:
        self.transport.close()


def _json_safe(value):
    """``inf`` has no JSON encoding; status snapshots use ``null``."""
    return None if value == float("inf") else value


def status_snapshot(statuses: Dict[str, dict], *,
                    until: float = float("inf"),
                    phase: str = "running") -> dict:
    """Fold per-worker ``status?`` replies into one JSON-safe snapshot.

    The document :mod:`repro.observability.live` renders: per node the
    idle flag, control-loop round count, parked/pending messages, wire
    counters and heartbeat age (seconds since the worker stamped its
    reply), and per subsystem the local virtual time, next event, event
    count, queue depth, safe-time horizon, stall state and the peer
    currently pinning the horizon.
    """
    wall = _time.time()
    nodes = {}
    times = []
    for name in sorted(statuses):
        st = statuses[name]
        rows = []
        for row in st["subsystems"]:
            times.append(row["time"])
            rows.append({
                "name": row["name"],
                "time": row["time"],
                "next_event": _json_safe(row["next_event"]),
                "dispatched": row["dispatched"],
                "stalls": row["stalls"],
                "queue_depth": row["queue_depth"],
                "horizon": _json_safe(row["horizon"]),
                "stalled": row["stalled"],
                "waiting_on": row["waiting_on"],
            })
        nodes[name] = {
            "idle": st["idle"],
            "rounds": st["rounds"],
            "pending": st["pending"],
            "wire_out": st["wire_out"],
            "wire_in": st["wire_in"],
            "epoch": st.get("epoch", 0),
            "heartbeat_age": max(0.0, wall - st.get("wall", wall)),
            "subsystems": rows,
        }
    return {"phase": phase, "wall": wall, "until": _json_safe(until),
            "global_time": min(times, default=0.0), "nodes": nodes}


def _inbox_reader(conn, inbox: _ControlInbox) -> None:
    """Pump every control-pipe message into the inbox; EOF means the
    coordinator closed its end (or died)."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            inbox.push_eof()
            return
        inbox.push(message)


def _pool_main(conn) -> None:
    """Process entry point for a warm pool worker (top-level so it
    survives ``spawn`` pickling).

    The process outlives any single job: it loops receiving ``("job",
    spec)`` messages, runs a full :class:`_Worker` lifetime per job, and
    acknowledges teardown with ``("job-done",)`` so the coordinator
    knows the worker is clean to reuse.  The expensive part of
    process-per-node execution — ``spawn`` plus importing the framework
    — is paid once per *pool worker*, not once per ``run()``.
    """
    inbox = _ControlInbox()
    threading.Thread(target=_inbox_reader, args=(conn, inbox),
                     name="pia-pool-reader", daemon=True).start()
    while True:
        message = inbox.wait_control()
        if message is None:     # coordinator gone
            return
        tag = message[0]
        if tag == "exit":
            return
        if tag != "job":
            # Stray control from a job that already ended (a "stop" or
            # "status?" that raced the job-done ack): ignore.
            continue
        worker = None
        try:
            worker = _Worker(message[1], conn, inbox)
            worker.serve()
        except BaseException as exc:     # surface into the coordinator
            if worker is not None:
                # Crash post-mortem: dump the black box before the
                # process (or the next job) loses it.
                worker.telemetry.flight.dump(
                    tag=worker.node.name,
                    reason=f"{type(exc).__name__}: {exc}")
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except OSError:
                return
        finally:
            if worker is not None:
                try:
                    worker.close()
                except Exception:
                    pass
        try:
            conn.send(("job-done",))
        except OSError:
            return


class _PoolWorker:
    """Coordinator-side handle on one warm worker process."""

    def __init__(self, ctx, index: int) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(target=_pool_main, args=(child_conn,),
                                name=f"pia-pool-{index}", daemon=True)
        self.proc.start()
        child_conn.close()

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)


class WorkerPool:
    """A reusable pool of warm worker processes.

    Spawning a Python process and importing the framework costs far more
    than most short co-simulation runs.  A pool spawns each process
    once; :class:`MultiprocessCoSimulation` checks workers out per
    ``run()`` and returns them afterwards, so repeated runs (parameter
    sweeps, benchmarks, warm services) skip the spawn entirely.  Share
    one pool across executors by passing it as the ``pool=`` argument.
    """

    def __init__(self, *, start_method: str = "spawn") -> None:
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} not available on this "
                f"platform: {multiprocessing.get_all_start_methods()}")
        self.start_method = start_method
        self.ctx = multiprocessing.get_context(start_method)
        self._idle: List[_PoolWorker] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._closed = False
        #: Lifetime spawn count (a warm pool keeps this flat across runs).
        self.spawned = 0

    def acquire(self, count: int) -> List[_PoolWorker]:
        """Check out ``count`` live workers, spawning only on shortfall."""
        with self._lock:
            if self._closed:
                raise ConfigurationError("worker pool is closed")
            workers: List[_PoolWorker] = []
            while self._idle and len(workers) < count:
                worker = self._idle.pop()
                if worker.is_alive():
                    workers.append(worker)
                else:
                    worker.kill()
            while len(workers) < count:
                workers.append(_PoolWorker(self.ctx, next(self._seq)))
                self.spawned += 1
            return workers

    def release(self, worker: _PoolWorker, *, healthy: bool = True) -> None:
        """Return a worker; unhealthy (or post-close) workers are killed.

        A worker that died (or misbehaved) mid-job must not poison its
        pool slot: unless the pool is closed, a replacement is spawned
        into the idle set so capacity stays constant across failures.
        """
        with self._lock:
            if not self._closed:
                if healthy and worker.is_alive():
                    self._idle.append(worker)
                    return
                self._idle.append(_PoolWorker(self.ctx, next(self._seq)))
                self.spawned += 1
        worker.kill()

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    def close(self) -> None:
        """Shut down idle workers; in-flight workers die on release."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
        for worker in idle:
            try:
                worker.proc.join(timeout=1.0)
            except Exception:
                pass
            worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MultiprocessCoSimulation:
    """Run each Pia node in its own OS process (conservative channels).

    The construction API parallels :class:`CoSimulation` but takes *specs*
    instead of live objects: subsystems are named factories resolved in
    the worker process, channels are declared by subsystem and net names.
    Batching and grant piggybacking are on by default — synchronous
    safe-time traffic is what process-parallel deployments can least
    afford.

    With a ``fault_plan``, each worker runs the plan's per-node
    derivation (:meth:`~repro.faults.FaultPlan.for_node` — same seed, own
    crashes): message-fault decisions stay pure functions of the seed and
    per-link ordinals, so seeded chaos counters match the single-process
    executors.  A scheduled crash (fired by the coordinator once global
    virtual time reaches it) or a worker process dying raises a typed
    :class:`~repro.core.errors.NodeFailure` — this executor, like the
    threaded one, cannot roll back.
    """

    def __init__(self, *, telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 batching: bool = True,
                 start_method: str = "spawn",
                 trace_capacity: int = 4096,
                 transport: str = "tcp",
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 pool: Optional[WorkerPool] = None,
                 failure_policy: str = "raise",
                 heartbeat_timeout: float = 5.0,
                 series_interval: Optional[float] = None,
                 series_wall_interval: Optional[float] = None,
                 health: bool = False,
                 stream_telemetry: bool = False) -> None:
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} not available on this "
                f"platform: {multiprocessing.get_all_start_methods()}")
        if transport not in ("tcp", "shm"):
            raise ConfigurationError(
                f"unknown transport {transport!r}: expected 'tcp' (works "
                "across machines) or 'shm' (same-host shared-memory rings)")
        if failure_policy not in MP_FAILURE_POLICIES:
            raise ConfigurationError(
                f"unknown failure policy {failure_policy!r}: expected one "
                f"of {MP_FAILURE_POLICIES}")
        if heartbeat_timeout <= 0:
            raise ConfigurationError(
                f"heartbeat timeout must be positive: {heartbeat_timeout}")
        for label, interval in (("series_interval", series_interval),
                                ("series_wall_interval",
                                 series_wall_interval)):
            if interval is not None and interval <= 0:
                raise ConfigurationError(
                    f"{label} must be positive: {interval}")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.batching = batching
        self.start_method = start_method
        self.trace_capacity = trace_capacity
        self.transport = transport
        self.ring_capacity = ring_capacity
        self._pool = pool
        self._own_pool: Optional[WorkerPool] = None
        self._pool_finalizer = None
        self._nodes: Dict[str, List[SubsystemSpec]] = {}
        self._subsystem_node: Dict[str, str] = {}
        self._channels: List[ChannelSpec] = []
        self._channel_seq = 0
        #: Per-worker report bundles from the last completed run.
        self._bundles: Optional[Dict[str, dict]] = None
        self.dispatched = 0
        self.cpu_seconds = 0.0
        self._status_path: Optional[str] = None
        self._status_interval = 0.5
        self._status_listener: Optional[Callable[[dict], None]] = None
        self._status_published = 0.0
        self._last_statuses: Dict[str, dict] = {}
        # --- continuous telemetry plane ---------------------------------
        #: Per-worker time-series cadences and link-health switch,
        #: forwarded verbatim in every :meth:`worker_spec`.
        self.series_interval = series_interval
        self.series_wall_interval = series_wall_interval
        self.health = health
        #: When on, workers attach streaming deltas to ``status?``
        #: replies and the coordinator folds them into its live status
        #: snapshots (the data :mod:`repro.observability.serve` exposes).
        self.stream_telemetry = stream_telemetry
        #: Folded streaming state: cumulative counters, latest gauges,
        #: bounded per-series point tails, latest health row per link.
        self._stream: Dict[str, dict] = {}
        # --- supervised failover / live migration state -----------------
        self.failure_policy = failure_policy
        self.heartbeat_timeout = heartbeat_timeout
        #: Heartbeat detector for the last/current supervised run.
        self.detector: Optional[FailureDetector] = None
        #: Completed migrations/failovers of the last/current run.
        self.migrations: List[MigrationRecord] = []
        #: Placement timeline: (wall, node, worker process name, event).
        self.placement_log: List[dict] = []
        self._migrate_lock = threading.Lock()
        self._migrate_requests: List[Tuple[str, float]] = []
        self._archives: Dict[str, NodeArchive] = {}
        self._restore_point: Optional[str] = None
        self._run_epoch = 0
        self._carryover: List[Tuple[str, dict]] = []
        #: Tokens for coordination acks (see ``_expect``'s ``match``).
        self._ctl_seq = itertools.count(1)
        # Live per-run control-plane context (set by run(), mutated by
        # failover/migration while the run is in flight).
        self._ports: Dict[str, int] = {}
        self._segments: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        if name in self._nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        self._nodes[name] = []
        return name

    def add_subsystem(self, node: str, name: str, factory: str,
                      *args, **kwargs) -> SubsystemSpec:
        """Declare subsystem ``name`` on ``node``, built in the worker by
        ``factory(name, *args, **kwargs)`` (see :func:`resolve_factory`).
        Positional and keyword arguments must be picklable."""
        if node not in self._nodes:
            raise ConfigurationError(f"no node named {node!r}")
        if name in self._subsystem_node:
            raise ConfigurationError(f"duplicate subsystem {name!r}")
        spec = SubsystemSpec(name, factory, tuple(args), dict(kwargs))
        self._nodes[node].append(spec)
        self._subsystem_node[name] = node
        return spec

    def connect(self, a: str, b: str, *, delay: float = 0.0,
                nets: Tuple[str, ...] = ()) -> ChannelSpec:
        """Declare a conservative channel between subsystems ``a`` and
        ``b`` carrying the named split nets."""
        for name in (a, b):
            if name not in self._subsystem_node:
                raise ConfigurationError(f"no subsystem named {name!r}")
        self._channel_seq += 1
        spec = ChannelSpec(
            channel_id=f"mch{self._channel_seq}-{a}-{b}",
            subsystem_a=a, node_a=self._subsystem_node[a],
            subsystem_b=b, node_b=self._subsystem_node[b],
            delay=delay, nets=tuple(nets))
        self._channels.append(spec)
        return spec

    def worker_spec(self, node: str) -> _WorkerSpec:
        """The picklable bootstrap spec worker ``node`` receives."""
        if node not in self._nodes:
            raise ConfigurationError(f"no node named {node!r}")
        plan = self.fault_plan.for_node(node) \
            if self.fault_plan is not None else None
        return _WorkerSpec(
            node=node,
            subsystems=tuple(self._nodes[node]),
            channels=tuple(cs for cs in self._channels if cs.touches(node)),
            batching=self.batching,
            fault_plan=plan,
            retry_policy=self.retry_policy,
            trace_capacity=self.trace_capacity,
            transport=self.transport,
            ring_capacity=self.ring_capacity,
            supervised=self.failure_policy == "migrate",
            series_interval=self.series_interval,
            series_wall_interval=self.series_wall_interval,
            health=self.health,
            stream=self.stream_telemetry,
        )

    def _ring_links(self) -> List[Tuple[str, str]]:
        """Every directed node pair a channel crosses — one shm ring each."""
        links = set()
        for cs in self._channels:
            if cs.node_a != cs.node_b:
                links.add((cs.node_a, cs.node_b))
                links.add((cs.node_b, cs.node_a))
        return sorted(links)

    def _acquire_pool(self) -> WorkerPool:
        if self._pool is not None:
            return self._pool
        if self._own_pool is None:
            self._own_pool = WorkerPool(start_method=self.start_method)
            # Tie the private pool's lifetime to this executor so dropped
            # instances do not strand warm processes.
            self._pool_finalizer = weakref.finalize(
                self, WorkerPool.close, self._own_pool)
        return self._own_pool

    def close(self) -> None:
        """Shut down the executor's private warm pool (shared pools passed
        via ``pool=`` are the caller's to close)."""
        if self._own_pool is not None:
            self._own_pool.close()
            self._own_pool = None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None

    def __enter__(self) -> "MultiprocessCoSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_topology(self) -> None:
        """Specs cannot see port directions, so the check is the safe
        over-approximation of the paper's simple-cycle rule: treating
        every channel as bidirectional, the subsystem graph must be a
        forest (any undirected cycle of length >= 3 *could* be a
        non-simple directed cycle)."""
        graph = nx.Graph()
        graph.add_nodes_from(self._subsystem_node)
        for cs in self._channels:
            graph.add_edge(cs.subsystem_a, cs.subsystem_b)
        cycles = nx.cycle_basis(graph)
        if cycles:
            rendered = "; ".join(" - ".join(cycle) for cycle in cycles)
            raise TopologyError(
                f"multiprocess channel graph contains cycles: {rendered}. "
                "The process-per-node deployment requires an acyclic "
                "(tree-shaped) channel graph.")

    # ------------------------------------------------------------------
    # live migration requests
    # ------------------------------------------------------------------
    def migrate(self, node: str) -> None:
        """Request a live migration of ``node`` to a fresh pool worker.

        Thread-safe: callable from a ``status_listener`` (or any other
        thread) while :meth:`run` is in flight.  The supervision loop
        picks the request up on its next sweep — requires
        ``failure_policy="migrate"``.
        """
        self.migrate_at(node, float("-inf"))

    def migrate_at(self, node: str, at_time: float) -> None:
        """Request a migration of ``node`` once global virtual time
        reaches ``at_time`` (deterministic trigger point)."""
        if node not in self._nodes:
            raise ConfigurationError(f"no node named {node!r}")
        if self.failure_policy != "migrate":
            raise ConfigurationError(
                "live migration requires failure_policy='migrate'")
        with self._migrate_lock:
            self._migrate_requests.append((node, at_time))

    def _due_migrations(self, global_now: float) -> List[str]:
        due: List[str] = []
        with self._migrate_lock:
            keep = []
            for node, at_time in self._migrate_requests:
                if at_time <= global_now:
                    if node not in due:
                        due.append(node)
                else:
                    keep.append((node, at_time))
            self._migrate_requests = keep
        return due

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = float("inf"), *,
            timeout: float = 60.0,
            status_path: Optional[str] = None,
            status_interval: float = 0.5,
            status_listener: Optional[Callable[[dict], None]] = None) -> int:
        """Run all nodes in parallel processes until global quiescence
        (or every event queue passes ``until``); returns total events.

        ``status_path`` enables live introspection: the coordinator's
        supervision loop writes a JSON :func:`status_snapshot` there
        (atomically, every ``status_interval`` seconds, plus a final
        ``phase: "done"`` snapshot) which ``python -m
        repro.observability.live <path>`` tails as a console view.
        ``status_listener`` receives the same snapshots in-process.
        """
        if not self._nodes:
            return 0
        self._check_topology()
        self._status_path = status_path
        self._status_interval = status_interval
        self._status_listener = status_listener
        self._status_published = 0.0
        self._last_statuses: Dict[str, dict] = {}
        self._stream = {}
        self.migrations = []
        self.placement_log = []
        self._archives = {}
        self._restore_point = None
        self._run_epoch = 0
        self._carryover = []
        self.detector = FailureDetector(timeout=self.heartbeat_timeout) \
            if self.failure_policy == "migrate" else None
        started_at = _time.perf_counter()
        pool = self._acquire_pool()
        names = sorted(self._nodes)
        workers = pool.acquire(len(names))
        assigned: Dict[str, _PoolWorker] = dict(zip(names, workers))
        procs: Dict[str, _PoolWorker] = assigned
        pipes: Dict[str, object] = {name: worker.conn
                                    for name, worker in assigned.items()}
        self._segments = {}
        deadline = _time.monotonic() + timeout
        for name in names:
            self._log_placement(name, assigned[name], "assigned")
        try:
            for name in names:
                pipes[name].send(("job", self.worker_spec(name)))
            self._ports = {name: self._hello_port(pipes, procs, name,
                                                  deadline)
                           for name in names}
            if self.transport == "shm":
                # One SPSC ring per directed link, created here so the
                # coordinator owns (and can always unlink) the segments.
                for link in self._ring_links():
                    self._segments[link] = \
                        create_ring_segment(self.ring_capacity)
                ring_names = {link: seg.name
                              for link, seg in self._segments.items()}
                for name in names:
                    mine = {link: ring for link, ring in ring_names.items()
                            if name in link}
                    pipes[name].send(("rings", mine))
            for name in names:
                peers = {peer: ("127.0.0.1", port)
                         for peer, port in self._ports.items()
                         if peer != name}
                pipes[name].send(("peers", peers))
            if self.failure_policy == "migrate":
                # Baseline restore point: a pre-start Chandy-Lamport cut,
                # archived coordinator-side before any event dispatches.
                self._take_snapshot(pipes, procs, deadline)
            for name in names:
                pipes[name].send(("start", until))
            self._supervise(pipes, procs, until, deadline)
            bundles: Dict[str, dict] = {}
            for name in names:
                pipes[name].send(("report?",))
                bundles[name] = self._expect(pipes, procs, name, "report",
                                             deadline)
            self._bundles = bundles
            self.dispatched = sum(b["dispatched"] for b in bundles.values())
            if self._last_statuses:
                self._publish_status(self._last_statuses, until,
                                     phase="done", force=True)
        finally:
            for name in names:
                try:
                    pipes[name].send(("stop",))
                except OSError:
                    pass
            for name in names:
                worker = assigned[name]
                clean = self._drain_job_done(worker, timeout=2.5)
                pool.release(worker, healthy=clean)
            # Workers have detached from their ring segments (job-done
            # comes after transport close), so unlink retires them.
            for segment in self._segments.values():
                try:
                    segment.close()
                    segment.unlink()
                except OSError:
                    pass
            self._segments = {}
        elapsed = _time.perf_counter() - started_at
        self.cpu_seconds += elapsed
        if self.telemetry.enabled:
            self.telemetry.registry.timer("executor.run").add(elapsed)
            self.telemetry.gauge("mp.workers", len(procs))
            self.telemetry.gauge("mp.pool_spawned", pool.spawned)
        return self.dispatched

    @staticmethod
    def _drain_job_done(worker: _PoolWorker, *, timeout: float) -> bool:
        """Wait for the worker's ``job-done`` teardown ack, swallowing
        whatever the aborted job left queued (stale statuses, idle notes,
        parting errors).  Returns False — do not reuse — on silence or a
        dead pipe."""
        deadline = _time.monotonic() + timeout
        while True:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                return False
            try:
                if not worker.conn.poll(remaining):
                    return False
                message = worker.conn.recv()
            except (EOFError, OSError):
                return False
            if message[0] == "job-done":
                return True

    #: Reply tags a cascading failure can leave queued from an aborted
    #: coordination round (plus status replies that outlive their sweep).
    #: They are dropped when a different tag is expected; token-bearing
    #: acks are additionally vetted by ``match``.
    _STALE_OK = frozenset(("halted", "restored", "cut-data", "status"))

    def _hello_port(self, pipes, procs, name: str, deadline: float) -> int:
        """Receive a worker's ``port`` hello and vet its codec version.

        The wire format is only compatible between processes importing
        the same codec layout; a stale worker must fail the deployment
        loudly here instead of poisoning peers with undecodable frames.
        """
        payload = self._expect(pipes, procs, name, "port", deadline)
        port, version = payload
        if version != CODEC_VERSION:
            raise ConfigurationError(
                f"worker {name!r} speaks wire codec v{version}, "
                f"coordinator speaks v{CODEC_VERSION} — all processes "
                "must run the same build")
        return port

    def _expect(self, pipes, procs, name: str, tag: str, deadline: float,
                *, match=None):
        """Wait for one ``tag`` message from worker ``name``.

        ``note`` messages (idle-edge wakeups) are advisory and skipped,
        as are stale acks from aborted coordination rounds (see
        ``_STALE_OK``); ``match`` vets the payload of a matching tag and
        skips it when it returns False (an ack for an older token).
        A worker that died with a parting ``error`` still queued gets
        that error surfaced — its pipe reads succeed until drained —
        rather than a generic death message.
        """
        conn = pipes[name]
        while True:
            remaining = max(0.0, deadline - _time.monotonic())
            if not conn.poll(remaining):
                if not procs[name].is_alive():
                    raise NodeFailure(
                        f"node {name!r}: worker process died without a "
                        f"{tag!r} reply", node=name)
                raise SimulationError(
                    f"node {name!r}: worker unresponsive (no {tag!r} within "
                    "the run timeout)")
            try:
                message = conn.recv()
            except EOFError:
                raise NodeFailure(
                    f"node {name!r}: worker process died mid-run",
                    node=name) from None
            if message[0] == "note":
                continue
            if message[0] == "error":
                raise NodeFailure(
                    f"node {name!r} worker failed: {message[1]}", node=name)
            if message[0] != tag:
                if message[0] in self._STALE_OK:
                    continue
                raise SimulationError(
                    f"node {name!r}: expected {tag!r} from worker, got "
                    f"{message[0]!r}")
            if match is not None and not match(message[1]):
                continue
            return message[1]

    def _fold_stream(self, statuses: Dict[str, dict]) -> None:
        """Fold workers' streaming telemetry deltas into the live view:
        counters accumulate, gauges and health rows replace, series grow
        bounded tails keyed ``node/metric``."""
        for name in sorted(statuses):
            delta = statuses[name].get("telemetry")
            if not delta:
                continue
            counters = self._stream.setdefault("counters", {})
            for key, value in delta.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
            self._stream.setdefault("gauges", {}).update(
                delta.get("gauges", {}))
            series = self._stream.setdefault("series", {})
            for sname, fresh in delta.get("series", {}).items():
                points = series.setdefault(f"{name}/{sname}",
                                           {"points": []})["points"]
                points.extend(fresh)
                del points[:-SERIES_CAPACITY]
            health = self._stream.setdefault("health", {})
            for row in delta.get("health", []):
                health[(row["src"], row["dst"])] = row

    def _stream_sections(self, snapshot: dict) -> None:
        """Attach the folded streaming state to a status snapshot (the
        sections :mod:`repro.observability.serve` renders)."""
        if not self._stream:
            return
        snapshot["telemetry"] = {
            "counters": dict(sorted(
                self._stream.get("counters", {}).items())),
            "gauges": {key: _json_safe(value) for key, value
                       in sorted(self._stream.get("gauges", {}).items())},
        }
        series = self._stream.get("series")
        if series:
            snapshot["series"] = {
                sname: {"points": [[t, _json_safe(v)]
                                   for t, v in row["points"]]}
                for sname, row in sorted(series.items())}
        health = self._stream.get("health")
        if health:
            # Live advisory scoring: no stall attribution mid-run (that
            # needs the merged trace), so stall fractions read 0 and the
            # score reflects queue depth and delay only.  The final
            # report re-scores against the real attribution.
            snapshot["health"] = finalize_health(
                [dict(health[key]) for key in sorted(health)])

    def _publish_status(self, statuses: Dict[str, dict], until: float, *,
                        phase: str = "running", force: bool = False) -> None:
        """Surface the latest worker statuses for live introspection."""
        self._last_statuses = statuses
        if self.stream_telemetry:
            self._fold_stream(statuses)
        if self._status_path is None and self._status_listener is None:
            return
        now = _time.monotonic()
        if not force and now - self._status_published < self._status_interval:
            return
        self._status_published = now
        snapshot = status_snapshot(statuses, until=until, phase=phase)
        if self.failure_policy == "migrate":
            snapshot["epoch"] = self._run_epoch
            snapshot["placement"] = [dict(entry)
                                     for entry in self.placement_log]
            snapshot["migrations"] = [record.to_dict()
                                      for record in self.migrations]
        self._stream_sections(snapshot)
        if self._status_listener is not None:
            self._status_listener(snapshot)
        if self._status_path is not None:
            # Atomic replace after an fsync: a concurrent reader always
            # sees a complete JSON document, and a crash straddling the
            # replace cannot leave a zero-length file where a monitor
            # expected the last good snapshot.
            tmp = f"{self._status_path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._status_path)

    # ------------------------------------------------------------------
    # supervised failover / live migration
    # ------------------------------------------------------------------
    def _log_placement(self, node: str, worker: _PoolWorker,
                       event: str) -> None:
        self.placement_log.append({
            "wall": _time.time(), "node": node, "event": event,
            "worker": getattr(worker.proc, "name", "?"),
            "pid": getattr(worker.proc, "pid", None),
            "epoch": self._run_epoch,
        })

    def _take_snapshot(self, pipes, procs, deadline: float) -> str:
        """Coordinate a Chandy-Lamport cut and archive it here.

        Every worker cuts its local subsystems, lets the marks cross,
        and pushes a :class:`NodeArchive` back — the coordinator is the
        run's stable storage, so the restore point survives any worker.
        """
        names = sorted(self._nodes)
        snapshot_id = new_snapshot_id()
        for name in names:
            pipes[name].send(("cut", snapshot_id))
        archives: Dict[str, NodeArchive] = {}
        for name in names:
            archives[name] = self._expect(
                pipes, procs, name, "cut-data", deadline,
                match=lambda a: a.snapshot_id == snapshot_id)
        self._archives = archives
        self._restore_point = snapshot_id
        if self.telemetry.enabled:
            self.telemetry.count("migration.snapshots")
        return snapshot_id

    def _drain_wire(self, pipes, procs, deadline: float) -> None:
        """Wait until nothing is in flight anywhere: all queued batches
        flushed, inboxes pumped dry, fault-held deliveries released, and
        the global wire counters balanced across two consecutive probes.
        Workers must already be halted (their drain rounds keep pumping)."""
        previous = None
        while True:
            if _time.monotonic() > deadline:
                raise SimulationError(
                    "migration drain did not reach wire quiescence "
                    "within the timeout")
            for name in sorted(procs):
                pipes[name].send(("status?",))
            statuses = {name: self._expect(pipes, procs, name, "status",
                                           deadline)
                        for name in sorted(procs)}
            if self.stream_telemetry:
                # Workers already consumed these deltas replying; fold
                # them or the drain window goes dark in the live view.
                self._fold_stream(statuses)
            wire_out = sum(st["wire_out"] for st in statuses.values())
            wire_in = sum(st["wire_in"] for st in statuses.values())
            pending = sum(st["pending"] for st in statuses.values())
            balanced = pending == 0 and wire_out == wire_in
            signature = (wire_out, wire_in)
            if balanced and signature == previous:
                return
            previous = signature if balanced else None
            _time.sleep(0.01)

    def _resplice(self, moved, pipes, procs) -> None:
        """Re-splice every channel endpoint that touches a moved node:
        shm rings are recreated (a killed producer can leave a torn
        frame), survivors drop cached connections and stale peer
        addresses, and the moved nodes learn the full peer map."""
        names = sorted(self._nodes)
        moved_set = set(moved)
        fresh: Dict[Tuple[str, str], str] = {}
        if self.transport == "shm":
            for link in self._ring_links():
                if not (set(link) & moved_set):
                    continue
                old = self._segments.pop(link, None)
                if old is not None:
                    try:
                        old.close()
                        old.unlink()
                    except OSError:
                        pass
                segment = create_ring_segment(self.ring_capacity)
                self._segments[link] = segment
                fresh[link] = segment.name
        repeer = {name: ("127.0.0.1", self._ports[name])
                  for name in sorted(moved_set)}
        for name in names:
            if name in moved_set:
                continue
            # ``repeer`` first: it retires the survivor's rings to the
            # moved nodes (shm) and closes cached connections, so the
            # fresh ring attach below cannot be clobbered.
            pipes[name].send(("repeer", repeer))
            touched = {link: ring for link, ring in fresh.items()
                       if name in link}
            if touched:
                pipes[name].send(("rings", touched))
        for name in sorted(moved_set):
            if self.transport == "shm":
                mine = {link: seg.name
                        for link, seg in self._segments.items()
                        if name in link}
                pipes[name].send(("rings", mine))
            peers = {peer: ("127.0.0.1", port)
                     for peer, port in self._ports.items() if peer != name}
            pipes[name].send(("peers", peers))

    def _restore_all(self, pipes, procs, until: float,
                     deadline: float) -> Tuple[int, int]:
        """Roll every worker back to the current restore point under a
        new migration epoch.  Returns (archived bytes, replayed count)."""
        names = sorted(self._nodes)
        self._run_epoch += 1
        resent = resent_counts(self._archives.values())
        snapshot_bytes = 0
        for name in names:
            archive = self._archives[name]
            snapshot_bytes += archive.storage_bytes()
            pipes[name].send(("restore", {
                "epoch": self._run_epoch,
                "until": until,
                "images": archive.images,
                "resent": resent,
                "minter_ordinals": archive.minter_ordinals,
            }))
        epoch = self._run_epoch
        for name in names:
            self._expect(pipes, procs, name, "restored", deadline,
                         match=lambda e: e == epoch)
        return snapshot_bytes, sum(resent.values())

    def _failover(self, dead_nodes, pipes, procs, until: float,
                  deadline: float, global_now: float, *,
                  reason: str) -> None:
        """Replace dead workers and roll the run back to the last
        completed global snapshot (tolerating cascading deaths)."""
        if self._restore_point is None:
            raise NodeFailure(
                f"node {dead_nodes[0]!r} failed before a restore point "
                "existed — cannot fail over", node=dead_nodes[0])
        names = sorted(self._nodes)
        wall_started = _time.perf_counter()
        flight = self.telemetry.flight
        if flight.enabled:
            flight.note("failover", ",".join(sorted(dead_nodes)),
                        time=global_now, reason=reason,
                        epoch=self._run_epoch + 1)
            flight.dump(tag="coordinator", reason=f"failover: {reason}")
        if self.telemetry.enabled:
            for name in dead_nodes:
                self.telemetry.count("migration.failovers")
                self.telemetry.trace(TraceKind.MIGRATION, time=global_now,
                                     subject=name, reason=reason,
                                     epoch=self._run_epoch + 1)
        pool = self._acquire_pool()
        dead = sorted(set(dead_nodes))
        token = f"halt-{next(self._ctl_seq)}"
        halt_sent: set = set()
        halt_acked: set = set()
        job_sent: set = set()
        ported: set = set()
        adopted: Dict[str, _PoolWorker] = {}
        attempts = 0
        while True:
            fresh = sorted(name for name in dead if name not in adopted)
            for name in fresh:
                old = procs[name]
                old.kill()
                pool.release(old, healthy=False)   # respawns the slot
                self._log_placement(name, old, "lost")
                if self.detector is not None:
                    self.detector.forget(name)
            replacements = pool.acquire(len(fresh))
            for name, worker in zip(fresh, replacements):
                procs[name] = worker
                pipes[name] = worker.conn
                adopted[name] = worker
                self._log_placement(name, worker, "adopted")
            try:
                for name in names:
                    if name not in dead and name not in halt_sent:
                        pipes[name].send(("halt", token))
                        halt_sent.add(name)
                for name in names:
                    if name not in dead and name not in halt_acked:
                        self._expect(pipes, procs, name, "halted", deadline,
                                     match=lambda t: t == token)
                        halt_acked.add(name)
                for name in sorted(dead):
                    if name not in job_sent:
                        pipes[name].send(("job", self.worker_spec(name)))
                        job_sent.add(name)
                for name in sorted(dead):
                    if name not in ported:
                        self._ports[name] = self._hello_port(
                            pipes, procs, name, deadline)
                        ported.add(name)
                self._resplice(dead, pipes, procs)
                snapshot_bytes, replayed = self._restore_all(
                    pipes, procs, until, deadline)
                for name in names:
                    pipes[name].send(("start", until))
            except NodeFailure as exc:
                # Another worker (survivor or replacement) died during
                # the splice: fold it in and restart the round.  Stale
                # acks the aborted round left queued are token-vetted,
                # so the retry cannot misread them.
                attempts += 1
                if exc.node is None or attempts > 2 * len(names) + 4:
                    raise
                dead = sorted(set(dead) | {exc.node})
                for tracker in (adopted, ):
                    tracker.pop(exc.node, None)
                for tracker in (halt_sent, halt_acked, job_sent, ported):
                    tracker.discard(exc.node)
                continue
            break
        if self.detector is not None:
            now = _time.monotonic()
            for name in names:
                self.detector.beat(name, now)
        wall_pause = _time.perf_counter() - wall_started
        for name in dead:
            self.migrations.append(MigrationRecord(
                kind="failover", node=name, reason=reason,
                epoch=self._run_epoch, snapshot_id=self._restore_point,
                at_global_time=global_now, wall_pause=wall_pause,
                snapshot_bytes=snapshot_bytes,
                replayed_messages=replayed))

    def _do_migrate(self, nodes, pipes, procs, until: float,
                    deadline: float, global_now: float) -> None:
        """Move live nodes to fresh workers: halt, drain the wire, cut,
        re-splice, restore under a new epoch, resume."""
        names = sorted(self._nodes)
        moved = sorted(set(name for name in nodes if name in procs))
        if not moved:
            return
        wall_started = _time.perf_counter()
        flight = self.telemetry.flight
        if flight.enabled:
            flight.note("migrate", ",".join(moved), time=global_now,
                        epoch=self._run_epoch + 1)
            flight.dump(tag="coordinator", reason="migrate")
        if self.telemetry.enabled:
            for name in moved:
                self.telemetry.count("migration.migrations")
                self.telemetry.trace(TraceKind.MIGRATION, time=global_now,
                                     subject=name, reason="requested",
                                     epoch=self._run_epoch + 1)
        # 1. Stop the world; halted workers keep pumping the wire dry.
        token = f"halt-{next(self._ctl_seq)}"
        for name in names:
            pipes[name].send(("halt", token))
        for name in names:
            self._expect(pipes, procs, name, "halted", deadline,
                         match=lambda t: t == token)
        # 2. Nothing in flight may be dropped (or duplicated) by the
        #    re-splice, so the cut happens on a provably empty wire.
        self._drain_wire(pipes, procs, deadline)
        # 3. Cut at the drained state: this *advances* the restore point
        #    (a later failover resumes from here, not from t=0).
        snapshot_id = self._take_snapshot(pipes, procs, deadline)
        pool = self._acquire_pool()
        # Acquire every replacement *before* releasing the old workers:
        # a released worker goes straight back into the idle set, and a
        # "migration" that re-adopts the process it just left would move
        # nothing.
        replacements = dict(zip(moved, pool.acquire(len(moved))))
        for name in moved:
            # 4. Carry the old worker's telemetry home before releasing
            #    it: pre-migrate spans must stay in the merged trace so
            #    post-migrate receives still chain to their sends.
            pipes[name].send(("report?",))
            self._carryover.append(
                (name, self._expect(pipes, procs, name, "report", deadline)))
            old = procs[name]
            try:
                pipes[name].send(("stop",))
            except OSError:
                pass
            clean = self._drain_job_done(old, timeout=2.5)
            pool.release(old, healthy=clean)
            self._log_placement(name, old, "released")
            replacement = replacements[name]
            procs[name] = replacement
            pipes[name] = replacement.conn
            self._log_placement(name, replacement, "adopted")
            pipes[name].send(("job", self.worker_spec(name)))
            self._ports[name] = self._hello_port(pipes, procs, name,
                                                 deadline)
        # 5. Re-splice every affected endpoint, restore, resume.
        self._resplice(moved, pipes, procs)
        snapshot_bytes, replayed = self._restore_all(pipes, procs, until,
                                                     deadline)
        for name in names:
            pipes[name].send(("start", until))
        if self.detector is not None:
            now = _time.monotonic()
            for name in names:
                self.detector.beat(name, now)
        wall_pause = _time.perf_counter() - wall_started
        for name in moved:
            self.migrations.append(MigrationRecord(
                kind="migrate", node=name, reason="requested",
                epoch=self._run_epoch, snapshot_id=snapshot_id,
                at_global_time=global_now, wall_pause=wall_pause,
                snapshot_bytes=snapshot_bytes,
                replayed_messages=replayed))

    def _supervise(self, pipes, procs, until: float,
                   deadline: float) -> None:
        """Probe workers until distributed quiescence (double probe over
        idle flags, event horizons and wire-counter sums), firing
        scheduled crashes when global virtual time reaches them.

        Under ``failure_policy="migrate"`` this is the supervisor: every
        status reply feeds the heartbeat detector, and a dead, silent or
        crashed worker triggers :meth:`_failover` instead of a raised
        :class:`NodeFailure`."""
        pending_crashes = sorted(
            self.fault_plan.crashes, key=lambda c: (c.at_time, c.node)) \
            if self.fault_plan is not None else []
        for crash in pending_crashes:
            if crash.node not in procs:
                raise ConfigurationError(
                    f"scheduled crash for unknown node {crash.node!r}")
        supervised = self.failure_policy == "migrate"
        detector = self.detector
        if detector is not None:
            now = _time.monotonic()
            for name in sorted(procs):
                detector.beat(name, now)
        previous = None
        while True:
            if _time.monotonic() > deadline:
                self.telemetry.flight.note("timeout", "supervise")
                self.telemetry.flight.dump(tag="coordinator",
                                           reason="quiesce-timeout")
                raise SimulationError(
                    "multiprocess run did not quiesce within the timeout")
            dead: List[str] = []
            for name in sorted(procs):
                if not procs[name].is_alive():
                    if supervised:
                        dead.append(name)
                        continue
                    # Give a parting "error" message precedence over the
                    # bare death, if one is queued.  A dead worker's pipe
                    # never blocks (EOF is readable), so the real run
                    # deadline is safe — and unlike a zero deadline it
                    # cannot race past a queued error into the generic
                    # "unresponsive" path.
                    self._expect(pipes, procs, name, "status", deadline)
                try:
                    pipes[name].send(("status?",))
                except OSError:
                    if not supervised:
                        raise NodeFailure(
                            f"node {name!r}: control pipe closed mid-run",
                            node=name)
                    dead.append(name)
            statuses: Dict[str, dict] = {}
            for name in sorted(procs):
                if name in dead:
                    continue
                probe_deadline = deadline if not supervised else min(
                    deadline, _time.monotonic() + self.heartbeat_timeout)
                try:
                    statuses[name] = self._expect(pipes, procs, name,
                                                  "status", probe_deadline)
                except NodeFailure:
                    if not supervised:
                        raise
                    dead.append(name)
                    continue
                except SimulationError:
                    if not supervised:
                        raise
                    # Silent within the heartbeat window: no beat this
                    # sweep — the detector decides when silence becomes
                    # a confirmed failure.
                    continue
                if detector is not None:
                    detector.beat(name, _time.monotonic())
            if detector is not None:
                for name in detector.suspects(_time.monotonic()):
                    if name not in dead:
                        dead.append(name)
            times = [row["time"] for st in statuses.values()
                     for row in st["subsystems"]]
            global_now = min(times, default=0.0)
            if dead:
                self._failover(sorted(set(dead)), pipes, procs, until,
                               deadline, global_now, reason="worker-death")
                previous = None
                continue
            self._publish_status(statuses, until, phase="running")
            fired = False
            while pending_crashes and pending_crashes[0].at_time <= global_now:
                crash = pending_crashes.pop(0)
                if self.telemetry.enabled:
                    self.telemetry.count("fault.node_crashes")
                    self.telemetry.trace(TraceKind.NODE_CRASH,
                                         time=global_now, subject=crash.node)
                if not supervised:
                    pipes[crash.node].send(("crash",))
                    raise NodeFailure(
                        f"node {crash.node!r} crashed at global time "
                        f"{global_now:g} — the multiprocess executor cannot "
                        "roll back; rerun under CoSimulation with "
                        "failure_policy='recover' for crash recovery, or "
                        "use failure_policy='migrate' here for supervised "
                        "failover",
                        node=crash.node)
                # Supervised: a scheduled NodeCrash models the whole
                # machine dying — kill the worker process and fail over.
                procs[crash.node].kill()
                self._failover([crash.node], pipes, procs, until, deadline,
                               global_now, reason="scheduled-crash")
                fired = True
            if fired:
                previous = None
                continue
            if supervised:
                requested = self._due_migrations(global_now)
                if requested:
                    try:
                        self._do_migrate(requested, pipes, procs, until,
                                         deadline, global_now)
                    except NodeFailure as exc:
                        # A worker died mid-migration.  The migration is
                        # abandoned; every node it had in flight (plus
                        # the dead one) fails over to a fresh worker so
                        # none is left half-adopted.
                        if exc.node is None:
                            raise
                        self._failover(sorted(set(requested) | {exc.node}),
                                       pipes, procs, until, deadline,
                                       global_now, reason="worker-death")
                    previous = None
                    continue
            quiet = len(statuses) == len(procs)
            signature = []
            wire_out = wire_in = 0
            for name in sorted(statuses):
                st = statuses[name]
                if not st["idle"] or st["pending"]:
                    quiet = False
                for row in st["subsystems"]:
                    next_time = row["next_event"]
                    if next_time != float("inf") and next_time <= until:
                        quiet = False
                    signature.append((row["name"], row["time"],
                                      row["dispatched"]))
                wire_out += st["wire_out"]
                wire_in += st["wire_in"]
                signature.append((name, st["wire_out"], st["wire_in"]))
            if wire_out != wire_in:
                quiet = False
            signature = tuple(signature)
            if quiet and signature == previous:
                return
            if quiet:
                # First quiet sweep: confirm immediately.  The double
                # probe only needs two observations with no progress in
                # between; waiting would just delay the finish line.
                previous = signature
                continue
            previous = None
            # Busy sweep: park until a worker speaks (an idle note, a
            # queued error) instead of polling on a fixed 5 ms cadence.
            # The backstop keeps scheduled crashes and status publishing
            # on time even if every pipe stays silent.
            if pending_crashes:
                backstop = 0.05
            elif self._status_path is not None \
                    or self._status_listener is not None:
                backstop = min(0.25, max(0.05, self._status_interval / 2))
            else:
                backstop = 0.25
            _mpconn.wait([pipes[name] for name in sorted(procs)],
                         timeout=min(backstop,
                                     max(0.0,
                                         deadline - _time.monotonic())))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def global_time(self) -> float:
        """The slowest subsystem's final time (after a completed run)."""
        if not self._bundles:
            return 0.0
        return min((row["time"] for bundle in self._bundles.values()
                    for row in bundle["subsystems"]), default=0.0)

    def report(self, *, title: Optional[str] = None) -> RunReport:
        """Merge every worker's telemetry into one
        :class:`~repro.observability.RunReport` (single-process shape)."""
        if self._bundles is None:
            raise SimulationError(
                "no completed multiprocess run to report on — call run() "
                "first")
        report = RunReport(title or "multiprocess co-simulation")
        snap = self.telemetry.registry.snapshot()
        counters = dict(snap["counters"])
        gauges = dict(snap["gauges"])
        histograms = {name: dict(row, buckets=dict(row["buckets"]))
                      for name, row in snap["histograms"].items()}
        faults: Dict[str, int] = {}
        trace_counts: Dict[str, int] = {}
        timings = {name: dict(row)
                   for name, row in self.telemetry.registry.timings().items()}
        link_rows: List[dict] = []
        subsystem_rows: List[dict] = []
        trace_dropped = 0
        dropped_by_node: Dict[str, int] = {}
        trace_by_node: Dict[str, List[dict]] = {}
        for name in sorted(self._bundles):
            bundle = self._bundles[name]
            subsystem_rows.extend(bundle["subsystems"])
            link_rows.extend(bundle["links"])
            merge_counters(counters, bundle["counters"])
            merge_gauges(gauges, bundle["gauges"])
            merge_histograms(histograms, bundle["histograms"])
            merge_counters(faults, bundle["faults"])
            merge_counters(trace_counts, bundle["trace_counts"])
            merge_timings(timings, bundle["timings"])
            trace_dropped += bundle["trace_dropped"]
            dropped_by_node[name] = bundle["trace_dropped"]
            trace_by_node[name] = bundle.get("trace", [])
        for name, bundle in self._carryover:
            # A migrated-away worker's parting telemetry: the activity it
            # hosted before the move.  Its placement rows (subsystems,
            # links, gauges, dispatched) are superseded by the adopting
            # worker's final bundle, but its counters and — critically —
            # its trace records are not: post-migrate receives chain to
            # spans only this bundle recorded.
            merge_counters(counters, bundle["counters"])
            merge_histograms(histograms, bundle["histograms"])
            merge_counters(faults, bundle["faults"])
            merge_counters(trace_counts, bundle["trace_counts"])
            merge_timings(timings, bundle["timings"])
            trace_dropped += bundle["trace_dropped"]
            dropped_by_node[name] = dropped_by_node.get(name, 0) \
                + bundle["trace_dropped"]
            trace_by_node[name] = bundle.get("trace", []) \
                + trace_by_node.get(name, [])
        if self.detector is not None:
            gauges["mp.suspicions"] = self.detector.suspicions
        report.subsystems = sorted(subsystem_rows, key=lambda r: r["name"])
        report.links = merge_link_rows(link_rows)
        report.counters = dict(sorted(counters.items()))
        report.gauges = dict(sorted(gauges.items()))
        report.histograms = dict(sorted(histograms.items()))
        report.faults = dict(sorted(faults.items()))
        report.trace_counts = dict(sorted(trace_counts.items()))
        report.trace_dropped = trace_dropped
        report.trace_dropped_by_node = dropped_by_node
        report.trace_records = merge_trace_records(trace_by_node)
        report.stall_attribution = stall_attribution(
            report.trace_records, nodes=subject_nodes(report))
        # Telemetry plane: per-node series keep their identity under a
        # ``node/metric`` key (points at unaligned times cannot sum);
        # health rows merge per directed link, then the finalize pass
        # derives stall fractions and advisory scores from the merged
        # stall attribution — same shape as a single-process report.
        per_node_series = {name: self._bundles[name].get("series") or {}
                           for name in sorted(self._bundles)}
        if any(per_node_series.values()):
            report.timeseries = merge_series(per_node_series)
        health_rows: List[dict] = []
        for name in sorted(self._bundles):
            health_rows.extend(self._bundles[name].get("health") or [])
        if health_rows:
            report.link_health = finalize_health(
                merge_health_rows(health_rows),
                stall_attribution=report.stall_attribution,
                subsystems=report.subsystems)
        report.timings = dict(sorted(timings.items()))
        report.migrations = [record.to_dict() for record in self.migrations]
        return report
