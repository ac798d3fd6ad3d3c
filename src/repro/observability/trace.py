"""The bounded structured trace: typed records of what the kernel did.

Where metrics answer "how many", the trace answers "what happened, in
order": every record carries the virtual time it describes, the subject
(usually a subsystem or a directed link) and kind-specific detail fields.
The buffer is a ring — old records are dropped, never the run — so
tracing is safe to leave on for arbitrarily long simulations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class TraceKind:
    """The record vocabulary.  Plain strings so records JSON-serialise."""

    #: A scheduler dispatched one event.
    DISPATCH = "dispatch"
    #: A scheduler stopped at a channel horizon with work remaining.
    STALL = "stall"
    #: A safe-time grant was accepted from a peer.
    GRANT = "grant"
    #: An optimistic straggler forced a coordinated rollback.
    ROLLBACK = "rollback"
    #: A local checkpoint image was saved.
    CHECKPOINT_SAVE = "checkpoint-save"
    #: A subsystem was restored from a checkpoint image.
    CHECKPOINT_RESTORE = "checkpoint-restore"
    #: A subsystem performed its Chandy-Lamport cut.
    SNAPSHOT_CUT = "snapshot-cut"
    #: A message entered the transport.
    MSG_SEND = "msg-send"
    #: A message was drained from a node's inbox.
    MSG_RECV = "msg-recv"
    #: A fault plan perturbed a message (drop/duplicate/delay/reorder).
    FAULT_INJECT = "fault-inject"
    #: A send attempt was retried (injected drop or real transport error).
    RETRY = "retry"
    #: A scheduled node crash took effect.
    NODE_CRASH = "node-crash"
    #: A failed node was restored from the last consistent snapshot.
    NODE_RECOVER = "node-recover"
    #: A failed node was dropped from the run (graceful degradation).
    NODE_DROP = "node-drop"
    #: A node moved to a fresh worker (live migration or failover).
    MIGRATION = "migration"


#: Core field names details must never shadow (see TraceRecord.to_dict).
_CORE_FIELDS = frozenset(("seq", "kind", "time", "subject"))


@dataclass(frozen=True)
class TraceRecord:
    """One structured observation."""

    seq: int              # per-telemetry monotone ordinal
    kind: str             # a :class:`TraceKind` value
    time: float           # virtual time the record describes
    subject: str          # subsystem, component or "src->dst" link
    details: dict = field(default_factory=dict)
    #: Wall clock at record time — nondeterministic, so excluded from
    #: equality and :meth:`to_dict` (the wall-clock timeline view reads
    #: it straight off the record).
    wall: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        """Flatten into one dict; detail keys that would shadow a core
        field are emitted namespaced as ``detail.<key>`` instead."""
        data = {"seq": self.seq, "kind": self.kind, "time": self.time,
                "subject": self.subject}
        for key, value in self.details.items():
            data[f"detail.{key}" if key in _CORE_FIELDS else key] = value
        return data


class TraceBuffer:
    """A bounded ring of trace entries; never blocking.

    The ring holds raw ``(seq, kind, time, subject, details, wall)``
    tuples -- the field order of :class:`TraceRecord` -- because most
    entries of a long run are evicted unread.  Records are built only
    when read.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        #: Records ever appended (dropped ones included).
        self.appended = 0

    def append(self, record: TraceRecord) -> None:
        self.append_raw((record.seq, record.kind, record.time,
                         record.subject, record.details, record.wall))

    def append_raw(self, entry: tuple) -> None:
        """Append one entry in :class:`TraceRecord` field order."""
        self._entries.append(entry)
        self.appended += 1

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        return self.appended - len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def records(self, kind: Optional[str] = None) -> List[TraceRecord]:
        if kind is None:
            return [TraceRecord(*entry) for entry in self._entries]
        return [TraceRecord(*entry) for entry in self._entries
                if entry[1] == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self._entries:
            kind = entry[1]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        self._entries.clear()
        self.appended = 0
