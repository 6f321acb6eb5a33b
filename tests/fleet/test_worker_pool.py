"""Multi-process fleet execution: bit-identity, placement, crashes, shm.

The contracts pinned here are the tentpole's acceptance bar:

* answers from a :class:`WorkerPool`-backed dispatcher are
  **bit-identical** to the in-process dispatcher (hypothesis property
  over forced-slot routing + full routed traffic);
* slots are placed round-robin over ``registry.slots()`` order, fixed
  for the pool's life;
* a worker killed mid-batch is retried or fails with the *retryable*
  :class:`WorkerCrashedError` — never a hang — and its replacement
  respawns warm;
* every shared-memory segment is released on shutdown (no leaked
  ``/dev/shm`` entries — audited from a subprocess), and no worker
  closes a mapping under a live model view.
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetDispatcher, WorkerCrashedError
from repro.fleet.worker import WorkerPool
from repro.serve.dispatcher import DispatchStats

from .conftest import direct_slot_predictions


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def mp_dispatcher(fleet_registry):
    d = FleetDispatcher(fleet_registry, batch_window_ms=1.0, workers=2)
    yield d
    d.close()


def _slot_expected(registry, label, scans_rows):
    """Reference answer for rows forced into one slot, computed directly."""
    building, floor = label.split("/f")
    deployment = next(b for b in registry.buildings if b.name == building)
    localizer = deployment.slots[int(floor)].entry.localizer
    return localizer.predict_batched(deployment.block(scans_rows))


class TestBitIdentity:
    def test_executor_mode(self, mp_dispatcher):
        desc = mp_dispatcher.describe()["executor"]
        assert desc["mode"] == "multi-process"
        assert len(desc["workers"]) == 2
        assert desc["shared_segments"] > 0

    @given(
        building=st.integers(min_value=0, max_value=1),
        floor=st.integers(min_value=0, max_value=1),
        picks=st.lists(
            st.integers(min_value=0, max_value=59), min_size=1, max_size=10
        ),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_forced_slot_routing_matches_direct(
        self, mp_dispatcher, fleet_registry, fleet_traffic, building, floor, picks
    ):
        """The pinned property: any rows forced into any slot answer with
        exactly the bytes that slot's localizer produces in-process."""
        scans = fleet_traffic[0]
        rows = scans[np.asarray(picks)]
        deployment = fleet_registry.buildings[building]
        coords, decision = run(
            mp_dispatcher.localize(
                rows, building=deployment.name, floor=floor
            )
        )
        assert decision.forced
        expected = _slot_expected(
            fleet_registry, f"{deployment.name}/f{floor}", rows
        )
        np.testing.assert_array_equal(coords, expected)

    def test_routed_traffic_identical_to_in_process(
        self, mp_dispatcher, fleet_registry, fleet_traffic
    ):
        scans = fleet_traffic[0][:48]
        sp = FleetDispatcher(fleet_registry, batch_window_ms=1.0)
        try:
            mp_coords, mp_decision = run(mp_dispatcher.localize(scans))
            sp_coords, sp_decision = run(sp.localize(scans))
        finally:
            sp.close()
        np.testing.assert_array_equal(
            mp_decision.building_idx, sp_decision.building_idx
        )
        np.testing.assert_array_equal(mp_decision.floors, sp_decision.floors)
        np.testing.assert_array_equal(mp_coords, sp_coords)

    def test_concurrent_coalesced_requests_identical(
        self, mp_dispatcher, fleet_registry, fleet_traffic
    ):
        scans = fleet_traffic[0][:32]

        async def go():
            chunks = [scans[i : i + 4] for i in range(0, 32, 4)]
            return await asyncio.gather(
                *(mp_dispatcher.localize(c) for c in chunks)
            )

        results = run(go())
        coords = np.vstack([c for c, _ in results])
        b = np.concatenate([d.building_idx for _, d in results])
        f = np.concatenate([d.floors for _, d in results])
        direct = direct_slot_predictions(fleet_registry, scans, b, f)
        np.testing.assert_array_equal(coords, direct)

    def test_spawn_start_method_identical(self, fleet_registry, fleet_traffic):
        # One worker keeps the re-import cost of spawn bounded; the
        # point is payload picklability + placement determinism, which
        # don't depend on worker count.
        scans = fleet_traffic[0][:12]
        d = FleetDispatcher(
            fleet_registry, batch_window_ms=1.0, workers=1,
            start_method="spawn",
        )
        try:
            assert d.describe()["executor"]["start_method"] == "spawn"
            coords, decision = run(d.localize(scans))
        finally:
            d.close()
        direct = direct_slot_predictions(
            fleet_registry, scans, decision.building_idx, decision.floors
        )
        np.testing.assert_array_equal(coords, direct)


class TestCrashRestart:
    @pytest.fixture()
    def dispatcher(self, fleet_registry):
        d = FleetDispatcher(fleet_registry, batch_window_ms=1.0, workers=2)
        yield d
        d.close()

    def test_worker_killed_mid_batch_never_hangs(
        self, dispatcher, fleet_registry, fleet_traffic
    ):
        """SIGKILL racing an in-flight batch: the request is either
        retried transparently (bit-identical answer) or fails with the
        retryable 503 error — and the pool serves again right after."""
        pool = dispatcher.pool
        label = "HQ/f0"
        victim = pool._workers[pool._owner[label]]
        scans = fleet_traffic[0]
        rows = scans[:40]

        async def go():
            task = asyncio.ensure_future(
                dispatcher.localize(rows, building="HQ", floor=0)
            )
            await asyncio.sleep(0.002)
            os.kill(victim.pid, signal.SIGKILL)
            return await asyncio.wait_for(task, timeout=60.0)

        try:
            coords, _ = run(go())
            np.testing.assert_array_equal(
                coords, _slot_expected(fleet_registry, label, rows)
            )
        except WorkerCrashedError as exc:
            assert "retry" in str(exc)  # the 503 contract: retryable
        # The admission reservation was released either way...
        assert dispatcher.pending_rows == 0
        # ...and the respawned worker answers, warm, bit-identically.
        coords, _ = run(
            asyncio.wait_for(
                dispatcher.localize(rows[:6], building="HQ", floor=0),
                timeout=60.0,
            )
        )
        np.testing.assert_array_equal(
            coords, _slot_expected(fleet_registry, label, rows[:6])
        )
        stats = {w["worker"]: w for w in pool.worker_stats()}
        assert stats[victim.id]["restarts"] >= 1
        assert stats[victim.id]["alive"]

    def test_kill_between_requests_is_invisible(
        self, dispatcher, fleet_registry, fleet_traffic
    ):
        pool = dispatcher.pool
        label = "LAB/f1"
        victim = pool._workers[pool._owner[label]]
        os.kill(victim.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)
        rows = fleet_traffic[0][:8]
        coords, _ = run(
            asyncio.wait_for(
                dispatcher.localize(rows, building="LAB", floor=1),
                timeout=60.0,
            )
        )
        np.testing.assert_array_equal(
            coords, _slot_expected(fleet_registry, label, rows)
        )


class TestPlacement:
    """Slot *i* of ``registry.slots()`` lives on worker *i* mod N."""

    def test_round_robin_over_registry_order(self, mp_dispatcher, fleet_registry):
        pool = mp_dispatcher.pool
        labels = [s.slot.label for s in fleet_registry.slots()]
        assert [pool.owner(label) for label in labels] == [
            i % 2 for i in range(len(labels))
        ]
        # A literal: earlier fleet benchmark runs (fleet-mixed,
        # bench_fleet_scale) served this very table, so their numbers
        # stay comparable.
        assert {label: pool.owner(label) for label in labels} == {
            "HQ/f0": 0, "HQ/f1": 1, "LAB/f0": 0, "LAB/f1": 1,
        }
        assert pool.describe()["placement"] == {
            "strategy": "round-robin", "n_workers": 2,
        }

    def test_four_slots_on_four_workers_one_each(self, fleet_registry):
        pool = WorkerPool(fleet_registry, workers=4)
        try:
            stats = pool.worker_stats()
            assert [w["worker"] for w in stats] == [0, 1, 2, 3]
            assert [w["slots"] for w in stats] == [
                ["HQ/f0"], ["HQ/f1"], ["LAB/f0"], ["LAB/f1"],
            ]
            assert pool.n_workers == 4
        finally:
            pool.close()


#: Both execution modes: in-process compute and two worker processes.
BOTH_MODES = {"argvalues": [0, 2], "ids": ["workers=0", "workers=2"]}


@pytest.fixture(scope="module")
def seam_dispatcher(request, fleet_registry):
    """A fleet computing in-process (0) or in worker processes (2)."""
    if request.param:
        yield request.getfixturevalue("mp_dispatcher")
        return
    d = FleetDispatcher(fleet_registry, batch_window_ms=1.0)
    yield d
    d.close()


class TestExecutorSeam:
    """Both modes share one per-slot dispatcher: same errors, same stats."""

    @pytest.mark.parametrize("seam_dispatcher", indirect=True, **BOTH_MODES)
    def test_unknown_slot_rejected(self, seam_dispatcher, fleet_registry):
        scans = np.zeros((1, fleet_registry.n_aps))
        with pytest.raises(KeyError, match="no floor 9"):
            run(seam_dispatcher.localize(scans, building="HQ", floor=9))
        if seam_dispatcher.pool is not None:
            with pytest.raises(KeyError, match="unknown slot"):
                run(seam_dispatcher.pool.predict("NOWHERE/f0", np.zeros((1, 4))))

    @pytest.mark.parametrize("workers", **BOTH_MODES)
    def test_closed_pool_rejects(self, fleet_registry, workers):
        d = FleetDispatcher(fleet_registry, workers=workers)
        d.close()
        with pytest.raises(RuntimeError, match="closed"):
            run(d.localize(np.zeros((1, fleet_registry.n_aps))))
        if d.pool is not None:
            with pytest.raises(RuntimeError, match="closed"):
                run(d.pool.predict("HQ/f0", np.zeros((1, 4))))

    @pytest.mark.parametrize("seam_dispatcher", indirect=True, **BOTH_MODES)
    def test_slot_stats_shape(self, seam_dispatcher, fleet_traffic):
        run(seam_dispatcher.localize(fleet_traffic[0][:8]))
        stats = seam_dispatcher.slot_stats()
        assert set(stats) == {"HQ/f0", "HQ/f1", "LAB/f0", "LAB/f1"}
        keys = set(DispatchStats().as_dict())
        for entry in stats.values():
            counters = entry["dispatcher"]
            if seam_dispatcher.pool is None:
                assert set(counters) == keys
            else:
                assert set(counters) == keys | {"worker"}
                assert counters["worker"] in (0, 1)
            assert counters["errors"] == 0
        total = sum(e["dispatcher"]["rows"] for e in stats.values())
        assert total >= 8

    def test_workers_validation(self, fleet_registry):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(fleet_registry, workers=0)
        with pytest.raises(ValueError, match="workers"):
            FleetDispatcher(fleet_registry, workers=-1)


class TestSharedMemoryLifecycle:
    def test_segments_exist_while_open_and_vanish_on_close(self):
        """Audited from a subprocess so no session fixture can mask a
        leak: after close(), zero repro-shm-* entries remain."""
        import json
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        code = """
import glob, json
from repro.fleet import FleetDispatcher, parse_fleet_spec
from repro.fleet.registry import FleetRegistry

def segments():
    return set(glob.glob("/dev/shm/repro-shm-*"))

before = segments()
registry = FleetRegistry.from_specs(
    parse_fleet_spec("HQ:2"), framework="KNN", seed=0, fast=True,
    months=2, aps_per_floor=8,
)
dispatcher = FleetDispatcher(registry, batch_window_ms=1.0, workers=2)
while_open = segments() - before
dispatcher.close()
leaked = segments() - before
print(json.dumps({
    "while_open": len(while_open), "leaked": sorted(leaked),
}))
"""
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=300,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["while_open"] > 0
        assert report["leaked"] == []

    def test_close_after_crash_still_unlinks_everything(
        self, child_stderr, fleet_registry, fleet_traffic
    ):
        import glob

        before = set(glob.glob("/dev/shm/repro-shm-*"))
        d = FleetDispatcher(fleet_registry, batch_window_ms=1.0, workers=2)
        pool = d.pool
        created = set(glob.glob("/dev/shm/repro-shm-*")) - before
        assert created
        victim = pool._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)
        # The next request finds the dead worker and respawns it first.
        run(d.localize(fleet_traffic[0][:4]))
        d.close()
        assert set(glob.glob("/dev/shm/repro-shm-*")) & created == set()
        # Every worker dropped its models before closing their mappings:
        # no BufferError printed by SharedMemory.__del__ at exit.
        err = child_stderr()
        assert "BufferError" not in err and "Exception ignored" not in err, err
