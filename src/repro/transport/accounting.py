"""Per-link traffic accounting.

Table 1 of the paper reports wall-clock simulation times whose remote
configurations are dominated by network cost.  Because this reproduction
runs on one machine, the network component of wall time is *modelled*: each
message crossing a link is charged ``latency + size/bandwidth`` against
that link, and experiments report measured CPU time plus the accumulated
link time (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..observability import NULL_TELEMETRY
from .latency import SAME_HOST, LatencyModel


@dataclass
class LinkStats:
    """Accumulated traffic over one directed link."""

    model: LatencyModel
    messages: int = 0
    bytes: int = 0
    #: Wire frames carrying those messages.  Without batching every
    #: message is its own frame; a batch frame carries many.
    frames: int = 0
    #: Total modelled wall-clock time spent on the wire, assuming the
    #: communication is serialised (conservative, like the paper's setup
    #: where the simulator blocks on channel traffic).
    delay: float = 0.0
    #: The link's ``link.<src>-><dst>.messages``/``.bytes`` counters and
    #: the :class:`~repro.observability.metrics.CounterHandles` they were
    #: bound under (see :meth:`NetworkAccounting.record`).
    handles: object = field(default=None, repr=False, compare=False)
    message_counter: object = field(default=None, repr=False, compare=False)
    byte_counter: object = field(default=None, repr=False, compare=False)

    def bind(self, registry, src: str, dst: str) -> None:
        """Bind this link's counters in ``registry``; they stay valid
        while ``registry.handles`` is the instance recorded here."""
        self.handles = registry.handles
        link = f"link.{src}->{dst}"
        self.message_counter = registry.counter(f"{link}.messages")
        self.byte_counter = registry.counter(f"{link}.bytes")

    def record(self, size: int) -> float:
        d = self.model.delay(size, seq=self.messages)
        self.messages += 1
        self.frames += 1
        self.bytes += size
        self.delay += d
        return d

    def record_frame(self, size: int, messages: int) -> float:
        """Charge one batch frame carrying ``messages`` logical messages.

        The latency model is consulted once — per frame, not per message —
        which is precisely the saving batching buys."""
        d = self.model.delay(size, seq=self.frames)
        self.messages += messages
        self.frames += 1
        self.bytes += size
        self.delay += d
        return d


class NetworkAccounting:
    """Traffic accounting across every directed link of a Pia system."""

    def __init__(self, default_model: LatencyModel = SAME_HOST) -> None:
        self.default_model = default_model
        self._models: Dict[Tuple[str, str], LatencyModel] = {}
        self.links: Dict[Tuple[str, str], LinkStats] = {}
        #: Telemetry sink; every recorded message also feeds the global
        #: and per-link counters of the observability registry.
        self.telemetry = NULL_TELEMETRY
        #: Optional :class:`~repro.observability.health.LinkHealthMonitor`.
        #: record()/record_frame() are the universal send boundary — every
        #: transport and the batched path funnel through them — so one
        #: hook here feeds the per-link estimators in every mode.  Pay
        #: for use: ``None`` costs one attribute read per frame.
        self.health = None

    def set_model(self, src: str, dst: str, model: LatencyModel,
                  *, both_ways: bool = True) -> None:
        self._models[(src, dst)] = model
        if both_ways:
            self._models[(dst, src)] = model

    def model_for(self, src: str, dst: str) -> LatencyModel:
        return self._models.get((src, dst), self.default_model)

    def _stats(self, src: str, dst: str) -> LinkStats:
        key = (src, dst)
        stats = self.links.get(key)
        if stats is None:
            stats = self.links[key] = LinkStats(self.model_for(src, dst))
        return stats

    def record(self, src: str, dst: str, size: int) -> float:
        """Charge one message (its own wire frame); returns its delay."""
        stats = self._stats(src, dst)
        telemetry = self.telemetry
        if telemetry.enabled:
            # Bound handles: no name formatting, lookup or method call
            # per message (see CounterHandles).
            registry = telemetry.registry
            handles = registry.handles
            handles.messages.value += 1
            handles.bytes.value += size
            handles.frames_sent.value += 1
            handles.bytes_on_wire.value += size
            if stats.handles is not handles:
                stats.bind(registry, src, dst)
            stats.message_counter.value += 1
            stats.byte_counter.value += size
        delay = stats.record(size)
        health = self.health
        if health is not None:
            health.on_send(src, dst, size, 1, delay)
        return delay

    def record_frame(self, src: str, dst: str, size: int,
                     messages: int) -> float:
        """Charge one batch frame of ``messages`` coalesced messages."""
        stats = self._stats(src, dst)
        telemetry = self.telemetry
        if telemetry.enabled:
            registry = telemetry.registry
            handles = registry.handles
            handles.messages.value += messages
            handles.bytes.value += size
            handles.frames_sent.value += 1
            handles.bytes_on_wire.value += size
            if stats.handles is not handles:
                stats.bind(registry, src, dst)
            stats.message_counter.value += messages
            stats.byte_counter.value += size
            if messages:
                # Grant-only push frames carry no data messages and would
                # only dilute the coalescing histogram.
                telemetry.observe("transport.batch_size", messages)
        delay = stats.record_frame(size, messages)
        health = self.health
        if health is not None:
            health.on_send(src, dst, size, messages, delay)
        return delay

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.links.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.links.values())

    @property
    def total_frames(self) -> int:
        return sum(s.frames for s in self.links.values())

    @property
    def total_delay(self) -> float:
        return sum(s.delay for s in self.links.values())

    def reset(self) -> None:
        self.links.clear()

    def report(self) -> list:
        """Rows of (src, dst, model, messages, bytes, delay, frames)."""
        return [
            (src, dst, stats.model.name, stats.messages, stats.bytes,
             stats.delay, stats.frames)
            for (src, dst), stats in sorted(self.links.items())
        ]
