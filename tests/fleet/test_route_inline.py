"""Small batches route inline on the event loop; large ones take one
executor hop.

Routing a handful of rows (building, then the floor vote) finishes
faster than a ``run_in_executor`` round trip returns, so
``FleetDispatcher.localize`` classifies inline while rows x the floor
classifier's multiply-adds per row stay within ``INLINE_MAX_MACS`` (the
one offload rule, ``run_inline_or_offload``).
With worker processes computing the slots, a small request then makes
no executor call at all. Answers are the same on both sides of the
bound.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.fleet import FleetDispatcher
from repro.serve.dispatcher import INLINE_MAX_MACS

from .conftest import direct_slot_predictions


@pytest.fixture(scope="module")
def dispatcher(fleet_registry):
    d = FleetDispatcher(fleet_registry, batch_window_ms=1.0, workers=2)
    yield d
    d.close()


def localize_counting_hops(dispatcher, scans, **kwargs):
    """``dispatcher.localize`` plus every executor call it made."""

    async def go():
        loop = asyncio.get_running_loop()
        hops = []
        real = loop.run_in_executor

        def counting(executor, fn, *args):
            hops.append(fn)
            return real(executor, fn, *args)

        loop.run_in_executor = counting
        return await dispatcher.localize(scans, **kwargs), hops

    return asyncio.run(go())


def assert_answers_direct(registry, router, scans, coords, decision, building=None):
    expected = (
        router.route(scans)
        if building is None
        else router.route_building(scans, building)
    )
    np.testing.assert_array_equal(decision.building_idx, expected.building_idx)
    np.testing.assert_array_equal(decision.floors, expected.floors)
    np.testing.assert_array_equal(
        coords,
        direct_slot_predictions(
            registry, scans, decision.building_idx, decision.floors
        ),
    )


def above_bound_rows(router, building=None) -> int:
    return INLINE_MAX_MACS // router.macs_per_row(building) + 1


def test_small_unpinned_batch_makes_no_executor_call(
    dispatcher, fleet_registry, fleet_traffic
):
    scans = fleet_traffic[0][:4]
    (coords, decision), hops = localize_counting_hops(dispatcher, scans)
    assert hops == []
    assert not decision.forced
    assert_answers_direct(
        fleet_registry, dispatcher.router, scans, coords, decision
    )


def test_small_building_pinned_batch_makes_no_executor_call(
    dispatcher, fleet_registry, fleet_traffic
):
    scans, true_b, _, _ = fleet_traffic
    lab = scans[true_b == fleet_registry.building_index("LAB")][:4]
    (coords, decision), hops = localize_counting_hops(
        dispatcher, lab, building="LAB"
    )
    assert hops == []
    assert decision.forced
    assert_answers_direct(
        fleet_registry, dispatcher.router, lab, coords, decision, "LAB"
    )


@pytest.mark.parametrize("building", [None, "HQ"])
def test_batch_above_bound_takes_exactly_one_executor_hop(
    dispatcher, fleet_registry, fleet_traffic, building
):
    router = dispatcher.router
    n = above_bound_rows(router, building)
    scans = fleet_traffic[0]
    assert scans.shape[0] >= n
    scans = scans[:n]
    (coords, decision), hops = localize_counting_hops(
        dispatcher, scans, building=building
    )
    assert len(hops) == 1
    assert_answers_direct(
        fleet_registry, router, scans, coords, decision, building
    )

