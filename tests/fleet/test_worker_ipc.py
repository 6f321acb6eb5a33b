"""Worker-pipe IPC: the event loop owns every pipe.

A ``WorkerPool.predict`` is one write and one loop callback — no reader
thread, no executor hop — and ``close()`` gives back every fd, thread
and child process the pool took. A crash respawn that fails does not
wedge its slots: waiting requests fail fast with the retryable
:class:`WorkerCrashedError`, and the next request spawns again.

Messages keep ``multiprocessing.Connection``'s framing, so the worker
side stays a plain ``recv()``/``send()`` loop. CI runs the tier-1 suite
under both ``fork`` and ``spawn`` (``$REPRO_MP_START``), so each test
here runs under both.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time
from multiprocessing import resource_tracker
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.fleet import FleetDispatcher, WorkerCrashedError
from repro.fleet.worker import WorkerPool, _frame, _unframe


def run(coro):
    return asyncio.run(coro)


def _slot_rows(registry, scans):
    """``(label, slot-width rows, direct answer)`` for every slot."""
    out = []
    for deployment in registry.buildings:
        block = deployment.block(scans)
        for floor, slot in deployment.slots.items():
            expected = slot.entry.localizer.predict_batched(block)
            out.append((f"{deployment.name}/f{floor}", block, expected))
    return out


def _process_state() -> tuple:
    multiprocessing.active_children()  # reaps finished children
    return (
        sorted(os.listdir("/proc/self/fd")),
        sorted(t.ident for t in threading.enumerate()),
        sorted(p.pid for p in multiprocessing.active_children()),
    )


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_predict_is_one_hop_and_close_leaks_nothing(
    fleet_registry, fleet_traffic
):
    slots = _slot_rows(fleet_registry, fleet_traffic[0][:6])
    # The tracker process (and its pipe) outlives any one pool.
    resource_tracker.ensure_running()
    gc.collect()
    before = _process_state()
    pool = WorkerPool(fleet_registry, workers=2)

    async def serve():
        loop = asyncio.get_running_loop()
        hops = []
        real = loop.run_in_executor

        def counting(executor, fn, *args):
            hops.append(fn)
            return real(executor, fn, *args)

        loop.run_in_executor = counting
        answers = await asyncio.gather(
            *(pool.predict(label, rows) for label, rows, _ in slots)
        )
        names = [t.name for t in threading.enumerate()]
        return answers, hops, names

    try:
        # Two successive loops: the second takes the pipes over.
        for _ in range(2):
            answers, hops, names = run(serve())
            for (_, _, expected), got in zip(slots, answers):
                np.testing.assert_array_equal(got, expected)
            assert hops == []
            assert not [n for n in names if n.startswith("repro-fleet-reader")]
        assert len({pool.owner(label) for label, _, _ in slots}) == 2
    finally:
        pool.close()
    del pool
    gc.collect()
    assert _process_state() == before


def test_failed_respawn_fails_fast_then_next_request_respawns(
    fleet_registry, fleet_traffic
):
    d = FleetDispatcher(fleet_registry, batch_window_ms=1.0, workers=2)
    try:
        pool = d.pool
        real_spawn = pool._spawn
        injected = []

        def spawn_failing_once(worker_id, labels):
            if not injected:
                injected.append(worker_id)
                raise RuntimeError("injected spawn failure")
            return real_spawn(worker_id, labels)

        pool._spawn = spawn_failing_once
        victim = pool._workers[pool._owner["HQ/f0"]]
        os.kill(victim.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)
        rows = fleet_traffic[0][:8]

        t0 = time.monotonic()
        with pytest.raises(WorkerCrashedError, match="retry"):
            run(
                asyncio.wait_for(
                    d.localize(rows, building="HQ", floor=0), timeout=15.0
                )
            )
        assert time.monotonic() - t0 < 5.0
        assert injected == [victim.id]

        coords, _ = run(
            asyncio.wait_for(
                d.localize(rows, building="HQ", floor=0), timeout=60.0
            )
        )
        deployment = fleet_registry.buildings[0]
        expected = deployment.slots[0].entry.localizer.predict_batched(
            deployment.block(rows)
        )
        np.testing.assert_array_equal(coords, expected)
        stats = {w["worker"]: w for w in pool.worker_stats()}
        assert stats[victim.id]["restarts"] >= 1
        assert stats[victim.id]["alive"]
    finally:
        d.close()


class TestFraming:
    """The parent's frames are ``multiprocessing.Connection``'s, both ways."""

    def test_frames_read_by_connection_recv(self):
        parent, child = socket.socketpair()
        conn = Connection(child.detach())
        try:
            msgs = [("req", 1, "predict", ("HQ/f0", np.arange(6.0))),
                    ("req", 2, "stop", None)]
            parent.sendall(b"".join(_frame(m) for m in msgs))
            got = [conn.recv() for _ in msgs]
            assert got[1] == msgs[1]
            np.testing.assert_array_equal(got[0][3][1], msgs[0][3][1])
        finally:
            conn.close()
            parent.close()

    def test_unframe_reads_connection_send_and_keeps_partial_tail(self):
        msgs = [("res", 7, True, [1, 2]), ("res", 8, False, "boom")]
        parent, child = socket.socketpair()
        conn = Connection(child.detach())
        try:
            for msg in msgs:
                conn.send(msg)
            conn.close()
            parent.settimeout(5.0)
            data = b""
            while chunk := parent.recv(1 << 16):  # until EOF
                data += chunk
        finally:
            conn.close()
            parent.close()
        buf = bytearray(data[:-3])
        assert _unframe(buf) == msgs[:1]
        buf += data[-3:]
        assert _unframe(buf) == msgs[1:]
        assert buf == bytearray()

    def test_unframe_reads_the_large_payload_header(self):
        payload = bytes(ForkingPickler.dumps(("res", 9, True, None)))
        # Above 2 GiB Connection writes -1 then a !Q size; recv accepts
        # that header for any size, so a small payload exercises it.
        buf = bytearray(
            struct.pack("!i", -1) + struct.pack("!Q", len(payload)) + payload
        )
        assert _unframe(buf[:10]) == []
        assert _unframe(buf) == [("res", 9, True, None)]
