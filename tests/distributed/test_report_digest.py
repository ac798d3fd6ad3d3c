"""Whole-report identity, pinned by digest.

A change to how telemetry is recorded (counter handles, the trace ring,
the transport's copy rule) must not change one byte of what a run
reports: counter key sets and values, trace records and counts,
``trace.dropped`` and stall attribution.  The digests below are SHA-256
of the canonical JSON of ``RunReport.to_dict(include_trace=True)``,
recorded before those paths were rewritten.  If a change *means* to
alter a report, re-record them and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.bench.workloads import compute_star

from .test_node_round import build_fig4

DIGESTS = {
    "fig4_unbatched":
        "dc2df1ca29629f7dcfb252601e597f65e35e2b1adfa9bf8b548e9cd0805493c3",
    "fig4_batched":
        "5e1a7105c5654f68f12c893f45b9ae2b03f0945d5d364e0ef754701536fdc362",
    "star":
        "e9f10d570ccfa0e5caee5a63138b5ff79ce313fa167405fb57792dc76e7fe437",
}

SCENARIOS = {
    "fig4_unbatched": lambda: build_fig4(40, batching=False),
    "fig4_batched": lambda: build_fig4(40, batching=True),
    "star": lambda: compute_star(2, 6, words=50),
}


def report_digest(cosim) -> str:
    cosim.run()
    document = json.dumps(cosim.report().to_dict(include_trace=True),
                          sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest_is_pinned(name):
    assert report_digest(SCENARIOS[name]()) == DIGESTS[name]
