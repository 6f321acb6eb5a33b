"""Micro-batching dispatcher: coalescing, back-pressure, bit-identity,
GIFT fallback."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.obs.trace import Trace
from repro.serve import BatchingDispatcher


def _gather(dispatcher, rows):
    """Submit every row as its own concurrent request; stack the answers."""

    async def go():
        try:
            results = await asyncio.gather(
                *[dispatcher.localize(row) for row in rows]
            )
            return np.vstack(results)
        finally:
            dispatcher.close()

    return asyncio.run(go())


class TestMicroBatching:
    def test_coalesced_equals_batched_bit_identically(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )
        out = _gather(dispatcher, query_rows)
        reference = knn_entry.localizer.predict_batched(query_rows)
        np.testing.assert_array_equal(out, reference)

    def test_concurrent_requests_actually_coalesce(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )
        _gather(dispatcher, query_rows)
        stats = dispatcher.stats
        assert stats.requests == len(query_rows)
        assert stats.rows == len(query_rows)
        assert stats.batches < stats.requests
        assert stats.mean_batch_rows() > 1.0

    def test_max_batch_bounds_coalescing(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=8
        )
        out = _gather(dispatcher, query_rows)
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows)
        )
        assert dispatcher.stats.max_batch_rows <= 8
        assert dispatcher.stats.batches >= len(query_rows) // 8

    def test_max_batch_one_is_per_request_dispatch(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1
        )
        rows = query_rows[:10]
        out = _gather(dispatcher, rows)
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(rows)
        )
        assert dispatcher.stats.batches == len(rows)

    def test_multi_row_request_rides_one_batch(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )

        async def go():
            try:
                single, batch = await asyncio.gather(
                    dispatcher.localize(query_rows[0]),
                    dispatcher.localize(query_rows[1:5]),
                )
                return single, batch
            finally:
                dispatcher.close()

        single, batch = asyncio.run(go())
        assert single.shape == (1, 2)
        assert batch.shape == (4, 2)
        np.testing.assert_array_equal(
            np.vstack([single, batch]),
            knn_entry.localizer.predict_batched(query_rows[:5]),
        )
        assert dispatcher.stats.batches == 1

    def test_chunk_size_does_not_change_values(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer,
            batch_window_ms=50.0,
            max_batch=1024,
            chunk_size=7,
        )
        out = _gather(dispatcher, query_rows)
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows)
        )


class GatedCompute:
    """A ``compute=`` callable that holds every call until ``gate`` opens.

    Records each call's row count, then answers with ``predict_batched``
    on a worker thread (the same hop the default compute takes).
    """

    def __init__(self, localizer):
        self.localizer = localizer
        self.gate = asyncio.Event()
        self.calls: list[int] = []

    async def __call__(self, rows):
        self.calls.append(rows.shape[0])
        await self.gate.wait()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.localizer.predict_batched, rows
        )

    async def wait_calls(self, n, timeout=5.0):
        """Yield to the loop until ``n`` computes have started."""
        deadline = asyncio.get_running_loop().time() + timeout
        while len(self.calls) < n:
            assert asyncio.get_running_loop().time() < deadline, self.calls
            await asyncio.sleep(0.001)


class TestBackPressure:
    """An idle dispatcher flushes on the next tick; rows coalesce only
    behind an in-flight compute."""

    def test_lone_request_does_not_wait_out_the_window(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=60_000.0
        )
        traces = [Trace() for _ in range(5)]

        async def go():
            # One request at a time, each answered before the next is
            # sent, so every one of them finds the dispatcher idle.
            try:
                return [
                    await asyncio.wait_for(
                        dispatcher.localize(row, trace=trace), 1.0
                    )
                    for row, trace in zip(query_rows, traces)
                ]
            finally:
                dispatcher.close()

        # A timing pin on the production loop: asyncio's debug mode
        # (python -X dev) records a stack per callback, ~0.1 ms here.
        out = np.vstack(asyncio.run(go(), debug=False))
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:5])
        )
        assert dispatcher.stats.batches == 5
        queue_ms = [
            span["ms"]
            for trace in traces
            for span in trace.spans
            if span["stage"] == "queue"
        ]
        assert len(queue_ms) == 5
        # The median shrugs off one request preempted by the host.
        assert np.median(queue_ms) < 0.1, queue_ms

    def test_arrivals_behind_inflight_compute_ride_one_batch(
        self, knn_entry, query_rows
    ):
        compute = GatedCompute(knn_entry.localizer)
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=60_000.0, compute=compute
        )

        async def go():
            try:
                first = asyncio.ensure_future(dispatcher.localize(query_rows[0]))
                await compute.wait_calls(1)
                rest = [
                    asyncio.ensure_future(dispatcher.localize(row))
                    for row in query_rows[1:6]
                ]
                await asyncio.sleep(0.01)
                assert compute.calls == [1]  # queued behind the busy compute
                compute.gate.set()
                return await asyncio.wait_for(asyncio.gather(first, *rest), 5.0)
            finally:
                dispatcher.close()

        out = np.vstack(asyncio.run(go()))
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:6])
        )
        assert compute.calls == [1, 5]
        assert dispatcher.stats.batches == 2
        assert dispatcher.stats.max_batch_rows == 5

    def test_max_batch_flushes_while_busy(self, knn_entry, query_rows):
        compute = GatedCompute(knn_entry.localizer)
        dispatcher = BatchingDispatcher(
            knn_entry.localizer,
            batch_window_ms=60_000.0,
            max_batch=4,
            compute=compute,
        )

        async def go():
            try:
                first = asyncio.ensure_future(dispatcher.localize(query_rows[0]))
                await compute.wait_calls(1)
                rest = [
                    asyncio.ensure_future(dispatcher.localize(row))
                    for row in query_rows[1:5]
                ]
                await compute.wait_calls(2)  # the first is still gated
                compute.gate.set()
                return await asyncio.wait_for(asyncio.gather(first, *rest), 5.0)
            finally:
                dispatcher.close()

        out = np.vstack(asyncio.run(go()))
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:5])
        )
        assert compute.calls == [1, 4]

    def test_window_flushes_behind_a_slow_compute(self, knn_entry, query_rows):
        compute = GatedCompute(knn_entry.localizer)
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=20.0, compute=compute
        )

        async def go():
            try:
                first = asyncio.ensure_future(dispatcher.localize(query_rows[0]))
                await compute.wait_calls(1)
                rest = [
                    asyncio.ensure_future(dispatcher.localize(row))
                    for row in query_rows[1:4]
                ]
                await compute.wait_calls(2)  # the first is still gated
                compute.gate.set()
                return await asyncio.wait_for(asyncio.gather(first, *rest), 5.0)
            finally:
                dispatcher.close()

        out = np.vstack(asyncio.run(go()))
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:4])
        )
        assert compute.calls == [1, 3]

    def test_drain_answers_rows_queued_behind_inflight_compute(
        self, knn_entry, query_rows
    ):
        compute = GatedCompute(knn_entry.localizer)
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=60_000.0, compute=compute
        )

        async def go():
            first = asyncio.ensure_future(dispatcher.localize(query_rows[0]))
            await compute.wait_calls(1)
            drainer = asyncio.ensure_future(dispatcher.drain())
            await asyncio.sleep(0)  # drain now waits on the gated compute
            late = asyncio.ensure_future(dispatcher.localize(query_rows[1]))
            await asyncio.sleep(0)  # queued behind it
            compute.gate.set()
            await asyncio.wait_for(drainer, 5.0)
            # Drained means answered: the late row's flush, fired when
            # the first compute delivered, completed before drain returned.
            assert dispatcher.stats.batches == 2
            dispatcher.close()
            return await asyncio.gather(first, late)

        out = np.vstack(asyncio.run(go()))
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:2])
        )
        assert compute.calls == [1, 1]
        assert dispatcher.stats.errors == 0


class TestSequentialFallback:
    def test_gift_dispatches_per_request(self, gift_entry, query_rows):
        dispatcher = BatchingDispatcher(
            gift_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )
        assert not dispatcher.batched
        rows = query_rows[:12]
        out = _gather(dispatcher, rows)
        # GIFT keeps no cross-call state, so per-request dispatch equals
        # predicting each row alone, in any order.
        reference = np.vstack(
            [gift_entry.localizer.predict(row[None, :]) for row in rows]
        )
        np.testing.assert_array_equal(out, reference)
        assert dispatcher.stats.sequential_requests == len(rows)
        # No cross-request coalescing on the sequential path.
        assert dispatcher.stats.batches == len(rows)
        assert dispatcher.stats.max_batch_rows == 1

    def test_gift_multi_row_request_stays_one_walk(
        self, gift_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(gift_entry.localizer)
        walk = query_rows[:6]

        async def go():
            try:
                return await dispatcher.localize(walk)
            finally:
                dispatcher.close()

        out = asyncio.run(go())
        np.testing.assert_array_equal(out, gift_entry.localizer.predict(walk))


class TestErrors:
    def test_bad_shape_raises_without_poisoning_dispatcher(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=1.0
        )

        async def go():
            try:
                with pytest.raises(ValueError):
                    await dispatcher.localize(np.zeros(3))  # wrong n_aps
                return await dispatcher.localize(query_rows[0])
            finally:
                dispatcher.close()

        out = asyncio.run(go())
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:1])
        )
        assert dispatcher.stats.errors == 1

    def test_empty_request_rejected(self, knn_entry, tiny_suite):
        dispatcher = BatchingDispatcher(knn_entry.localizer)

        async def go():
            try:
                await dispatcher.localize(
                    np.empty((0, tiny_suite.n_aps))
                )
            finally:
                dispatcher.close()

        with pytest.raises(ValueError):
            asyncio.run(go())

    def test_invalid_settings_rejected(self, knn_entry):
        with pytest.raises(ValueError):
            BatchingDispatcher(knn_entry.localizer, batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            BatchingDispatcher(knn_entry.localizer, max_batch=0)
        with pytest.raises(ValueError):
            BatchingDispatcher(knn_entry.localizer, chunk_size=0)

    def test_closed_dispatcher_rejects_requests(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(knn_entry.localizer)
        dispatcher.close()

        async def go():
            await dispatcher.localize(query_rows[0])

        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(go())
