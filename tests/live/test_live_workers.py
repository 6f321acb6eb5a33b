"""Hot-swap through the worker pipe protocol: workers=2 acceptance.

The in-process swap is a dict assignment; the multi-process swap has to
republish the slot's shared-memory payload and make every future
request — including ones answered by a *respawned* worker — land on the
new version. These tests cover the acceptance criteria: zero dropped
requests, answers bit-identical to exactly one version, a SIGKILL
racing the swap window, and no leaked ``/dev/shm`` segments.
"""

from __future__ import annotations

import asyncio
import glob
import os
import signal

import numpy as np
import pytest

from repro.fleet import FleetDispatcher, WorkerCrashedError
from repro.fleet.experiment import fleet_epoch_traffic
from repro.live import LiveManager

from .conftest import direct_answer, make_fleet, matches_exactly_one_version, run


@pytest.fixture()
def shm_audit():
    before = set(glob.glob("/dev/shm/repro-shm-*"))
    created: set[str] = set()

    def snapshot():
        now = set(glob.glob("/dev/shm/repro-shm-*")) - before
        created.update(now)
        return now

    yield snapshot
    # Nothing this test created may survive it.
    assert set(glob.glob("/dev/shm/repro-shm-*")) & created == set()


def open_worker_fleet(request, model_dir):
    """A two-worker fleet with a live loop, closed when ``request`` ends."""
    registry = make_fleet(model_dir)
    dispatcher = FleetDispatcher(registry, batch_window_ms=0.5, workers=2)
    live = LiveManager(dispatcher)
    request.addfinalizer(dispatcher.close)
    request.addfinalizer(live.close)  # finalizers run last-in, first-out
    return registry, dispatcher, live


@pytest.fixture()
def worker_fleet(request, tmp_path):
    return open_worker_fleet(request, tmp_path / "models")


def _observations(registry, n=48):
    scans, true_b, true_f, true_xy = fleet_epoch_traffic(registry, 1)
    mask = (true_b == 0) & (true_f == 0)
    return scans[mask][:n], true_xy[mask][:n]


@pytest.mark.slow
class TestWorkersSwap:
    def test_swap_under_traffic_zero_dropped(
        self, request, child_stderr, shm_audit, tmp_path
    ):
        # Workers fork in the test body: pytest swaps capfd's file
        # after setup, so a fixture's children would write elsewhere.
        registry, dispatcher, live = open_worker_fleet(
            request, tmp_path / "models"
        )
        obs_scans, obs_xy = _observations(registry)
        probe = obs_scans[:8]
        v1 = direct_answer(registry, "HQ", 0, probe)
        f1_before = direct_answer(registry, "HQ", 1, probe)
        segments_before = len(shm_audit())

        async def go():
            answers = {0: [], 1: []}
            dropped = 0
            swapped = asyncio.Event()

            async def client(floor):
                nonlocal dropped
                post = 0
                while post < 3:
                    if swapped.is_set():
                        post += 1
                    try:
                        coords, _ = await dispatcher.localize(
                            probe, building="HQ", floor=floor
                        )
                    except Exception:
                        dropped += 1
                        continue
                    answers[floor].append(np.asarray(coords))

            tasks = [
                asyncio.create_task(client(floor)) for floor in (0, 1)
            ]
            await live.observe(obs_scans, obs_xy, building="HQ", floor=0)
            summary = await live.refit_now("HQ", 0)
            swapped.set()
            await asyncio.gather(*tasks)
            return answers, dropped, summary

        answers, dropped, summary = run(go())
        v2 = direct_answer(registry, "HQ", 0, probe)

        assert dropped == 0
        assert not np.array_equal(v1, v2)
        assert all(
            matches_exactly_one_version(c, v1, v2) for c in answers[0]
        )
        assert np.array_equal(answers[0][-1], v2)
        assert all(np.array_equal(c, f1_before) for c in answers[1])
        assert summary["refit"]["old_digest"] != summary["refit"]["new_digest"]
        # The republished payload replaced the old segment 1:1 — the
        # swap may not leak segments as refits accumulate.
        assert len(shm_audit()) == segments_before
        # Workers drop a model before closing its mapping, on the adopt
        # and at stop: SharedMemory.__del__ printed no BufferError.
        live.close()
        dispatcher.close()
        err = child_stderr()
        assert "BufferError" not in err and "Exception ignored" not in err, err

    def test_respawn_after_sigkill_lands_on_new_version(
        self, shm_audit, worker_fleet
    ):
        """Kill the slot's owner worker right after the swap: the
        respawned worker must serve the NEW version (the pool's payload
        table was updated before the adopt), never the old one."""
        registry, dispatcher, live = worker_fleet
        obs_scans, obs_xy = _observations(registry)
        probe = obs_scans[:8]
        v1 = direct_answer(registry, "HQ", 0, probe)
        shm_audit()

        async def go():
            await live.observe(obs_scans, obs_xy, building="HQ", floor=0)
            return await live.refit_now("HQ", 0)

        run(go())
        v2 = direct_answer(registry, "HQ", 0, probe)
        assert not np.array_equal(v1, v2)

        pool = dispatcher.pool
        victim = pool._workers[pool._owner["HQ/f0"]]
        os.kill(victim.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)

        try:
            coords, _ = run(
                asyncio.wait_for(
                    dispatcher.localize(probe, building="HQ", floor=0),
                    timeout=60.0,
                )
            )
        except WorkerCrashedError as exc:
            assert "retry" in str(exc)
            coords, _ = run(
                asyncio.wait_for(
                    dispatcher.localize(probe, building="HQ", floor=0),
                    timeout=60.0,
                )
            )
        np.testing.assert_array_equal(coords, v2)
        stats = {w["worker"]: w for w in pool.worker_stats()}
        assert stats[victim.id]["restarts"] >= 1

    def test_sigkill_racing_the_swap_window(self, shm_audit, worker_fleet):
        """SIGKILL the owner while the refit+swap is in flight: the
        swap still completes, traffic settles on the new version and
        nothing hangs."""
        registry, dispatcher, live = worker_fleet
        obs_scans, obs_xy = _observations(registry)
        probe = obs_scans[:8]
        v1 = direct_answer(registry, "HQ", 0, probe)
        shm_audit()
        pool = dispatcher.pool
        victim = pool._workers[pool._owner["HQ/f0"]]

        async def go():
            await live.observe(obs_scans, obs_xy, building="HQ", floor=0)
            refit = asyncio.create_task(live.refit_now("HQ", 0))
            await asyncio.sleep(0.002)
            os.kill(victim.pid, signal.SIGKILL)
            return await asyncio.wait_for(refit, timeout=120.0)

        summary = run(go())
        v2 = direct_answer(registry, "HQ", 0, probe)
        assert summary["refit"]["new_digest"] != summary["refit"]["old_digest"]
        assert not np.array_equal(v1, v2)

        # The pool serves the new version once the respawn settles.
        for _ in range(3):
            try:
                coords, _ = run(
                    asyncio.wait_for(
                        dispatcher.localize(probe, building="HQ", floor=0),
                        timeout=60.0,
                    )
                )
                break
            except WorkerCrashedError as exc:
                assert "retry" in str(exc)
        else:  # pragma: no cover - three consecutive crash retries
            pytest.fail("pool never recovered after SIGKILL during swap")
        np.testing.assert_array_equal(coords, v2)
