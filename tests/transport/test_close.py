"""Closing a socket transport ends its threads.

A thread blocked in ``accept()`` on a closed listener is never woken on
Linux, and it keeps its endpoint -- and through it the transport, the
node and the node's telemetry -- alive.  In a warm pool worker that was
one leaked thread and one whole run's object graph per job.
"""

import os
import sys
import threading
import time

import pytest

from repro.bench.workloads import compute_star_multiprocess
from repro.distributed import WorkerPool
from repro.transport import MessageKind, TcpTransport
from repro.transport.shm import SharedMemoryTransport, create_ring_segment

from .test_transport import _msg


def _settles_to(baseline: int, timeout: float = 5.0) -> int:
    """Thread count once receiver threads have seen their peers close
    (they end on EOF, a moment after the close that caused it)."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def _accept_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("pia-accept-")]


def test_tcp_close_ends_its_threads():
    baseline = threading.active_count()
    transport = TcpTransport()
    try:
        transport.register("a")
        transport.register("b", call_handler=lambda m: m.reply(
            MessageKind.SAFE_TIME_REPLY, time=m.time))
        transport.send(_msg())
        transport.call(_msg(kind=MessageKind.SAFE_TIME_REQUEST))
        deadline = time.monotonic() + 5.0
        while not transport.poll("b") and time.monotonic() < deadline:
            time.sleep(0.002)
        assert threading.active_count() > baseline
    finally:
        transport.close()
    assert _accept_threads() == []
    assert _settles_to(baseline) == baseline


def test_shm_close_ends_its_threads():
    baseline = threading.active_count()
    t_a, t_b = SharedMemoryTransport(), SharedMemoryTransport()
    t_a.register("a")
    t_b.register("b")
    t_a.set_peer("b", t_b.local_port("b"))
    t_b.set_peer("a", t_a.local_port("a"))
    segment = create_ring_segment(4096)
    try:
        t_a.attach_outbound_ring("a", "b", segment.name)
        t_b.attach_inbound_ring("a", "b", segment.name)
        t_a.send(_msg())
        deadline = time.monotonic() + 5.0
        while not t_b.poll("b") and time.monotonic() < deadline:
            time.sleep(0.002)
    finally:
        t_a.close()
        t_b.close()
        segment.close()
        segment.unlink()
    assert _accept_threads() == []
    assert _settles_to(baseline) == baseline


def _task_counts(pool, count):
    workers = pool.acquire(count)
    try:
        return [len(os.listdir(f"/proc/{w.proc.pid}/task"))
                for w in workers]
    finally:
        for worker in workers:
            pool.release(worker)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts a worker's threads under /proc")
@pytest.mark.parametrize("transport", ["shm", "tcp"])
def test_warm_pool_worker_threads_stay_flat(transport):
    with WorkerPool() as pool:
        counts = []
        for __ in range(5):
            compute_star_multiprocess(1, 20, words=100, transport=transport,
                                      pool=pool).run(timeout=60.0)
            counts.append(_task_counts(pool, 2))
        first = sorted(counts[0])
        deadline = time.monotonic() + 5.0
        # A receiver thread may still be reading its peer's EOF when the
        # job returns; only growth that persists is a leak.
        while sorted(counts[-1]) > first and time.monotonic() < deadline:
            time.sleep(0.05)
            counts[-1] = _task_counts(pool, 2)
        assert sorted(counts[-1]) <= first, counts
