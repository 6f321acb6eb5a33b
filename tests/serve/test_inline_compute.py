"""The one offload rule on the dispatcher's default compute.

A batch whose rows x ``macs_per_row`` stay within ``INLINE_MAX_MACS``
computes inline on the event loop: it finishes sooner than a thread hop
returns. A larger batch, and any batch of a model that declares no cost
(STONE), takes exactly one ``run_in_executor`` hop to the dispatcher's
inference thread, which the first such hop starts. Answers are the same
on both sides of the bound.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core import StoneConfig, StoneLocalizer
from repro.datasets import generate_path_suite
from repro.geometry import build_grid_floorplan
from repro.serve import BatchingDispatcher, ModelStore
from repro.serve.dispatcher import INLINE_MAX_MACS

from ..conftest import make_synthetic_dataset

THREAD_PREFIX = "repro-serve-predict"


@pytest.fixture(scope="module")
def office():
    return generate_path_suite("office", 0)


@pytest.fixture(scope="module")
def office_knn(office):
    return ModelStore().get_or_fit("KNN", office, seed=0, fast=True).localizer


@pytest.fixture(scope="module")
def office_rows(office):
    return np.vstack([ds.rssi for ds in office.test_epochs])


@pytest.fixture(scope="module")
def stone():
    train = make_synthetic_dataset(n_rps=6, fpr=4, n_aps=64, seed=3)
    fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
    config = StoneConfig(epochs=1, steps_per_epoch=2, batch_size=16, seed=1)
    localizer = StoneLocalizer(config).fit(train, fp, rng=np.random.default_rng(1))
    return localizer, train.rssi


def serve_counting_hops(dispatcher, requests):
    """Answer ``requests`` one after another; count executor calls."""

    async def go():
        loop = asyncio.get_running_loop()
        hops = []
        real = loop.run_in_executor

        def counting(executor, fn, *args):
            hops.append(fn)
            return real(executor, fn, *args)

        loop.run_in_executor = counting
        try:
            return [await dispatcher.localize(rows) for rows in requests], hops
        finally:
            dispatcher.close()

    return asyncio.run(go())


def predict_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith(THREAD_PREFIX)}


def test_office_knn_declares_one_distance_pass(office, office_knn):
    n_refs = office.train.n_samples
    assert office_knn.macs_per_row == n_refs * office.n_aps == 11_760
    assert INLINE_MAX_MACS // office_knn.macs_per_row == 66


@pytest.mark.parametrize("n_rows", [1, 64, 66])
def test_office_knn_within_bound_computes_inline(office_knn, office_rows, n_rows):
    rows = office_rows[:n_rows]
    (out,), hops = serve_counting_hops(BatchingDispatcher(office_knn), [rows])
    assert hops == []
    np.testing.assert_array_equal(out, office_knn.predict_batched(rows))


def test_knn_one_row_above_bound_takes_one_hop(office_knn, office_rows):
    n = INLINE_MAX_MACS // office_knn.macs_per_row + 1
    rows = office_rows[:n]
    (out,), hops = serve_counting_hops(BatchingDispatcher(office_knn), [rows])
    assert len(hops) == 1
    np.testing.assert_array_equal(out, office_knn.predict_batched(rows))


@pytest.mark.parametrize("n_rows", [1, 64])
def test_stone_batch_always_takes_one_hop(stone, n_rows):
    localizer, rssi = stone
    assert localizer.macs_per_row is None
    rows = rssi[:n_rows]
    (out,), hops = serve_counting_hops(BatchingDispatcher(localizer), [rows])
    assert len(hops) == 1
    np.testing.assert_array_equal(out, localizer.predict_batched(rows))


def test_inline_predict_error_fails_only_its_batch(
    office_knn, office_rows, monkeypatch
):
    predict = office_knn.predict_batched
    calls = []

    def failing_once(rows, **kwargs):
        calls.append(rows.shape[0])
        if len(calls) == 1:
            raise FloatingPointError("boom")
        return predict(rows, **kwargs)

    monkeypatch.setattr(office_knn, "predict_batched", failing_once)
    dispatcher = BatchingDispatcher(office_knn)

    async def go():
        try:
            with pytest.raises(FloatingPointError, match="boom"):
                await dispatcher.localize(office_rows[:3])
            return await dispatcher.localize(office_rows[3:5])
        finally:
            dispatcher.close()

    out = asyncio.run(asyncio.wait_for(go(), 5.0))
    np.testing.assert_array_equal(out, predict(office_rows[3:5]))
    assert calls == [3, 2]
    assert dispatcher.stats.errors == 1
    assert dispatcher.stats.batches == 1


def test_drain_answers_pending_inline_batches(office_knn, office_rows):
    dispatcher = BatchingDispatcher(office_knn, batch_window_ms=60_000.0)
    rows = office_rows[:5]

    async def go():
        try:
            requests = [
                asyncio.ensure_future(dispatcher.localize(row)) for row in rows
            ]
            await asyncio.sleep(0)  # every request enqueued, none flushed
            assert dispatcher.stats.requests == 5
            assert dispatcher.stats.batches == 0
            await asyncio.wait_for(dispatcher.drain(), 1.0)
            assert dispatcher.stats.batches == 1
            return np.vstack(await asyncio.gather(*requests))
        finally:
            dispatcher.close()

    out = asyncio.run(go())
    np.testing.assert_array_equal(out, office_knn.predict_batched(rows))


def test_inference_thread_starts_on_first_offload(office_knn, office_rows):
    before = predict_threads()
    dispatcher = BatchingDispatcher(office_knn)
    big = office_rows[: INLINE_MAX_MACS // office_knn.macs_per_row + 1]

    async def go():
        for row in office_rows[:100]:
            await dispatcher.localize(row)
        assert predict_threads() - before == set()
        await dispatcher.localize(big)
        return predict_threads() - before

    started = asyncio.run(go())
    assert dispatcher.stats.batches == 101
    assert len(started) == 1
    dispatcher.close()
    (thread,) = started
    thread.join(timeout=5.0)
    assert not thread.is_alive()
