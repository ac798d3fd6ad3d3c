"""Metric definitions: the end-to-end metrics of untraced runs and the
per-layer metrics of traced runs.

Which end-to-end metric and workload each per-layer metric should move
is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from perfbench.tracing import LAYERS, ROOT, SpanSummary


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


#: Metrics of untraced runs (``--trace 0``).
END_TO_END = (
    Metric("run_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("paper_time_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: (span summary of one traced repetition, its exact counts, span
    #: summary of the traced set-up or None) -> value.
    value: Callable[[SpanSummary, dict, Optional[SpanSummary]], float]


#: Metrics of traced runs (``--trace 1``), each a median over the run's
#: traced repetitions.  ``*_s`` times are inclusive span time unless the
#: name says ``self``; ``*_calls`` count spans.
PER_LAYER = (
    LayerMetric("executor.rounds", "count", "lower",
                lambda s, c, u: c["rounds"]),
    LayerMetric("executor.rounds_per_event", "ratio", "lower",
                lambda s, c, u: _per(c["rounds"], c["events"])),
    LayerMetric("executor.self_s", "s", "lower",
                lambda s, c, u: s.self_seconds("executor.run")),
    LayerMetric("node.pump_calls", "count", "lower",
                lambda s, c, u: s.count("node.pump")),
    LayerMetric("node.pump_hit_ratio", "ratio", "higher",
                lambda s, c, u: s.hit_ratio("node.pump")),
    LayerMetric("node.pump_s", "s", "lower",
                lambda s, c, u: s.seconds("node.pump")),
    LayerMetric("transport.poll_calls", "count", "lower",
                lambda s, c, u: s.count("transport.poll")),
    LayerMetric("transport.polls_per_event", "ratio", "lower",
                lambda s, c, u: _per(s.count("transport.poll"), c["events"])),
    LayerMetric("transport.poll_hit_ratio", "ratio", "higher",
                lambda s, c, u: s.hit_ratio("transport.poll")),
    LayerMetric("transport.send_s", "s", "lower",
                lambda s, c, u: s.seconds("transport.send")),
    LayerMetric("transport.poll_s", "s", "lower",
                lambda s, c, u: s.seconds("transport.poll")),
    LayerMetric("transport.call_calls", "count", "lower",
                lambda s, c, u: s.count("transport.call")),
    LayerMetric("transport.call_s", "s", "lower",
                lambda s, c, u: s.seconds("transport.call")),
    LayerMetric("transport.flush_calls", "count", "lower",
                lambda s, c, u: s.count("transport.flush")),
    LayerMetric("transport.flush_hit_ratio", "ratio", "higher",
                lambda s, c, u: s.hit_ratio("transport.flush")),
    LayerMetric("transport.frames", "count", "lower",
                lambda s, c, u: c["frames"]),
    LayerMetric("transport.messages", "count", "lower",
                lambda s, c, u: c["messages"]),
    LayerMetric("transport.wire_bytes", "bytes", "lower",
                lambda s, c, u: c["wire_bytes"]),
    LayerMetric("transport.frames_per_event", "ratio", "lower",
                lambda s, c, u: _per(c["frames"], c["events"])),
    LayerMetric("batch.take_calls", "count", "lower",
                lambda s, c, u: s.count("batch.take")),
    LayerMetric("batch.take_hit_ratio", "ratio", "higher",
                lambda s, c, u: s.hit_ratio("batch.take")),
    LayerMetric("batch.messages_per_frame", "ratio", "higher",
                lambda s, c, u: _per(c["messages"], c["frames"])),
    LayerMetric("codec.encode_calls", "count", "lower",
                lambda s, c, u: s.count("codec.encode", "codec.encode_batch")),
    LayerMetric("codec.encode_s", "s", "lower",
                lambda s, c, u: s.seconds("codec.encode",
                                          "codec.encode_batch")),
    LayerMetric("codec.decode_calls", "count", "lower",
                lambda s, c, u: s.count("codec.decode", "codec.decode_any")),
    LayerMetric("codec.decode_s", "s", "lower",
                lambda s, c, u: s.seconds("codec.decode", "codec.decode_any")),
    LayerMetric("conservative.refresh_calls", "count", "lower",
                lambda s, c, u: s.count("conservative.refresh")),
    LayerMetric("conservative.refresh_s", "s", "lower",
                lambda s, c, u: s.seconds("conservative.refresh")),
    LayerMetric("conservative.refresh_advance_ratio", "ratio", "higher",
                lambda s, c, u: s.hit_ratio("conservative.refresh")),
    LayerMetric("conservative.serve_calls", "count", "lower",
                lambda s, c, u: s.count("conservative.serve")),
    LayerMetric("conservative.serve_s", "s", "lower",
                lambda s, c, u: s.seconds("conservative.serve")),
    LayerMetric("safetime.requests", "count", "lower",
                lambda s, c, u: c["safetime.requests"]),
    LayerMetric("safetime.piggybacked", "count", "higher",
                lambda s, c, u: c["safetime.piggybacked"]),
    LayerMetric("safetime.pushed", "count", "lower",
                lambda s, c, u: c["safetime.pushed"]),
    LayerMetric("scheduler.stalls", "count", "lower",
                lambda s, c, u: c["scheduler.stalls"]),
    LayerMetric("scheduler.events", "count", "lower",
                lambda s, c, u: c["events"]),
    LayerMetric("subsystem.run_calls", "count", "lower",
                lambda s, c, u: s.count("subsystem.run")),
    LayerMetric("subsystem.events_per_run_call", "ratio", "higher",
                lambda s, c, u: _per(c["events"], s.count("subsystem.run"))),
    LayerMetric("subsystem.self_s", "s", "lower",
                lambda s, c, u: s.self_seconds("subsystem.run")),
    LayerMetric("apps.jpeg_decode_calls", "count", "lower",
                lambda s, c, u: s.count("apps.jpeg_decode")),
    LayerMetric("apps.jpeg_decode_s", "s", "lower",
                lambda s, c, u: s.seconds("apps.jpeg_decode")),
    LayerMetric("protocols.codec_s", "s", "lower",
                lambda s, c, u: s.seconds("protocols.expand",
                                          "protocols.reassemble")),
    LayerMetric("telemetry.count_calls", "count", "lower",
                lambda s, c, u: s.count("telemetry.count")),
    LayerMetric("telemetry.counts_per_event", "ratio", "lower",
                lambda s, c, u: _per(s.count("telemetry.count"), c["events"])),
    LayerMetric("telemetry.trace_calls", "count", "lower",
                lambda s, c, u: s.count("telemetry.trace")),
    LayerMetric("telemetry.s", "s", "lower",
                lambda s, c, u: s.layer_self("observability.telemetry")),
    LayerMetric("mp.spawn_s", "s", "lower",
                lambda s, c, u: u.seconds("mp.acquire") if u else 0.0),
    LayerMetric("mp.run_s", "s", "lower",
                lambda s, c, u: s.seconds("mp.run")),
    LayerMetric("mp.report_merge_s", "s", "lower",
                lambda s, c, u: s.seconds("mp.report")),
    LayerMetric("shm.frames", "count", "lower",
                lambda s, c, u: c["shm.frames"]),
    LayerMetric("mp.frames_per_round", "ratio", "lower",
                lambda s, c, u: _per(c["frames"], c["mp.rounds"])),
    LayerMetric("trace.unattributed_frac", "ratio", "lower",
                lambda s, c, u: _per(s.self_seconds(ROOT), s.root_seconds)),
) + tuple(
    LayerMetric(f"self_frac.{layer}", "ratio", "lower",
                lambda s, c, u, layer=layer: _per(s.layer_self(layer),
                                                  s.root_seconds))
    for layer in LAYERS
)

#: Metrics that only a multiprocess workload exercises; every other
#: workload reads 0 for them.
MULTIPROCESS = (
    "mp.spawn_s", "mp.run_s", "mp.report_merge_s", "shm.frames",
    "mp.frames_per_round", "self_frac.distributed.multiprocess",
    "self_frac.transport.shm",
)


def per_layer(multiprocess: bool) -> tuple:
    """The per-layer metrics a traced run of a workload reports."""
    return tuple(metric for metric in PER_LAYER
                 if multiprocess or metric.name not in MULTIPROCESS)


#: Computed from the medians of traced and untraced ``run()`` times,
#: not per repetition.
OVERHEAD = Metric("trace.overhead_ratio", "ratio", "lower")
