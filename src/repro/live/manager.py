"""Live-update orchestration: ingest → drift → refit → hot-swap.

One :class:`LiveManager` sits beside the fleet dispatcher on the
serving event loop.  ``POST /observe`` lands in :meth:`observe`:
validated scans append to the slot's crash-safe buffer, and a guarded
background task replays the buffer through the slot's current model,
scores the drift, and — when the :class:`~repro.live.policy.DriftPolicy`
says so — refits off the loop and atomically hot-swaps the slot.
Serving never blocks on any of it: drift scoring and refitting run in
executors, and the swap itself is the dispatcher's atomic flip (old
model serves everything admitted before the flip; unchanged slots are
untouched).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs.metrics import MetricsRegistry
from .buffer import ObservationBuffer
from .policy import DriftPolicy, drift_score
from .refit import refit_slot


@dataclass
class SlotLiveState:
    """Per-slot live bookkeeping surfaced on ``/fleet`` and ``/metrics``."""

    buffer: ObservationBuffer
    observations: int = 0
    drift_score_m: float | None = None
    refits: int = 0
    swaps: int = 0
    last_reason: str | None = None
    refit_inflight: bool = False
    errors: int = 0

    def describe(self) -> dict:
        return {
            "buffered": self.buffer.n_rows,
            "observations": self.observations,
            "drift_score_m": (
                round(self.drift_score_m, 3) if self.drift_score_m is not None else None
            ),
            "refits": self.refits,
            "swaps": self.swaps,
            "last_reason": self.last_reason,
            "refit_inflight": self.refit_inflight,
            "errors": self.errors,
        }


class LiveManager:
    """Streaming observation ingest + drift-triggered refit for a fleet.

    Parameters
    ----------
    dispatcher:
        The :class:`~repro.fleet.frontend.FleetDispatcher` serving the
        fleet; swaps go through its mode-independent ``swap_slot``.
    policy:
        The :class:`DriftPolicy`.  The all-default policy only refits
        on a full buffer, so a fleet that never sees ``/observe``
        traffic serves exactly as before.
    buffer_dir:
        Where observation segments persist.  Defaults to
        ``<model_dir>/live`` when the fleet's store is disk-backed
        (buffers then survive restarts beside the artifacts they will
        produce), else a self-cleaning temp directory.
    max_buffer_rows / segment_rows:
        Forwarded to each slot's :class:`ObservationBuffer`.
    """

    def __init__(
        self,
        dispatcher,
        *,
        policy: DriftPolicy | None = None,
        buffer_dir: str | Path | None = None,
        max_buffer_rows: int = 8192,
        segment_rows: int = 512,
    ) -> None:
        self.dispatcher = dispatcher
        self.registry = dispatcher.registry
        self.policy = policy if policy is not None else DriftPolicy()
        self._own_tmpdir: str | None = None
        if buffer_dir is not None:
            self.buffer_dir = Path(buffer_dir)
        elif self.registry.store.model_dir is not None:
            self.buffer_dir = self.registry.store.model_dir / "live"
        else:
            self._own_tmpdir = tempfile.mkdtemp(prefix="repro-live-")
            self.buffer_dir = Path(self._own_tmpdir)
        self.max_buffer_rows = int(max_buffer_rows)
        self.segment_rows = int(segment_rows)
        self._states: dict[str, SlotLiveState] = {}
        self._refit_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-live-refit"
        )
        self._tasks: set[asyncio.Task] = set()
        self._closed = False
        # Bound metric families (bind_metrics); None = not recording.
        self._m_observations = None
        self._m_buffered = None
        self._m_drift = None
        self._m_refits = None
        self._m_swaps = None
        self._m_swap_seconds = None

    # -- metrics -----------------------------------------------------------

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        self._m_observations = registry.counter(
            "repro_live_observations_total",
            "Labeled observation rows ingested, by slot.",
            ("slot",),
        )
        self._m_buffered = registry.gauge(
            "repro_live_buffered_scans",
            "Observation rows currently buffered, by slot.",
            ("slot",),
        )
        self._m_drift = registry.gauge(
            "repro_live_drift_score_m",
            "Latest drift score (mean error, meters) of the buffered "
            "observations under the slot's serving model.",
            ("slot",),
        )
        self._m_refits = registry.counter(
            "repro_live_refits_total",
            "Background refits completed, by slot.",
            ("slot",),
        )
        self._m_swaps = registry.counter(
            "repro_live_swaps_total",
            "Model hot-swaps completed, by slot.",
            ("slot",),
        )
        self._m_swap_seconds = registry.histogram(
            "repro_live_swap_seconds",
            "Hot-swap latency (executor flip through registry rebind).",
        )

    # -- state -------------------------------------------------------------

    def state_for(self, building: str, floor: int) -> SlotLiveState:
        """This slot's live state, creating its buffer lazily."""
        slot = self.registry.slot(building, floor)
        label = slot.slot.label
        state = self._states.get(label)
        if state is None:
            deployment = self.registry.building(building)
            state = SlotLiveState(
                buffer=ObservationBuffer(
                    self.buffer_dir,
                    label,
                    deployment.n_aps,
                    max_rows=self.max_buffer_rows,
                    segment_rows=self.segment_rows,
                )
            )
            self._states[label] = state
        return state

    # -- ingest ------------------------------------------------------------

    async def observe(
        self,
        scans: np.ndarray,
        locations: np.ndarray,
        *,
        building: str,
        floor: int,
    ) -> dict:
        """Ingest labeled fleet-wide scans for one slot.

        ``scans`` is ``(n, fleet_aps)`` — the same shape ``/localize``
        takes — and is sliced to the building's AP block before it hits
        the slot's buffer (the slot's AP namespace is what's
        validated).  ``locations`` is the ``(n, 2)`` ground truth.
        Raises ``KeyError`` for unknown building/floor and
        ``ValueError`` for malformed payloads, both *before* any byte
        is buffered.
        """
        if self._closed:
            raise RuntimeError("live manager is closed")
        slot = self.registry.slot(building, floor)
        deployment = self.registry.building(building)
        scans = np.asarray(scans, dtype=np.float64)
        if scans.ndim != 2 or scans.shape[1] != self.registry.n_aps:
            raise ValueError(
                f"observation scans must be (n, {self.registry.n_aps}) "
                f"fleet-wide rows, got shape {scans.shape}"
            )
        block = deployment.block(scans)
        state = self.state_for(building, floor)
        loop = asyncio.get_running_loop()
        # The fsync'd append runs off the loop; validation inside
        # append() raises before any write.
        appended = await loop.run_in_executor(
            None, state.buffer.append, block, np.asarray(locations, dtype=np.float64)
        )
        state.observations += appended
        label = slot.slot.label
        if self._m_observations is not None:
            self._m_observations.labels(label).inc(appended)
            self._m_buffered.labels(label).set(state.buffer.n_rows)
        self._spawn_maybe_refit(building, floor)
        return {
            "slot": label,
            "version": slot.version,
            "appended": appended,
            "buffered": state.buffer.n_rows,
            "drift_score_m": state.drift_score_m,
        }

    def _spawn_maybe_refit(self, building: str, floor: int) -> None:
        task = asyncio.get_running_loop().create_task(
            self._maybe_refit(building, floor)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- drift / refit / swap ----------------------------------------------

    async def _maybe_refit(self, building: str, floor: int) -> dict | None:
        """Score drift and refit+swap if the policy fires.  Guarded."""
        state = self.state_for(building, floor)
        if state.refit_inflight:
            return None
        slot = self.registry.slot(building, floor)
        label = slot.slot.label
        loop = asyncio.get_running_loop()
        n_rows = state.buffer.n_rows
        score = state.drift_score_m
        if n_rows >= self.policy.min_scans and self.policy.drift_threshold_m is not None:
            rssi, xy = state.buffer.rows()
            # Replay through the *serving* model, off the loop (predict
            # is read-only, so it can run beside live inference).
            score = await loop.run_in_executor(
                None, drift_score, slot.entry.localizer, rssi, xy
            )
            state.drift_score_m = score
            if self._m_drift is not None:
                self._m_drift.labels(label).set(score)
        should, reason = self.policy.decision(
            n_rows, state.buffer.age_s(), score
        )
        if not should or state.refit_inflight:
            return None
        return await self._refit_and_swap(building, floor, reason)

    async def refit_now(self, building: str, floor: int) -> dict:
        """Force an immediate refit + hot-swap, bypassing the policy.

        Manual lever for benches, tests and operators; requires a
        non-empty buffer.
        """
        state = self.state_for(building, floor)
        if state.refit_inflight:
            raise RuntimeError(
                f"slot {building}/f{floor} already has a refit in flight"
            )
        if state.buffer.n_rows == 0:
            raise ValueError(
                f"slot {building}/f{floor} has no buffered observations"
            )
        return await self._refit_and_swap(building, floor, "manual")

    async def _refit_and_swap(
        self, building: str, floor: int, reason: str | None
    ) -> dict:
        state = self.state_for(building, floor)
        slot = self.registry.slot(building, floor)
        label = slot.slot.label
        state.refit_inflight = True
        try:
            rssi, xy = state.buffer.rows()
            content_hash = state.buffer.content_hash
            n_used = int(rssi.shape[0])
            loop = asyncio.get_running_loop()
            # The fit runs on the dedicated refit thread — the serving
            # inference threads never queue behind a training job.
            result = await loop.run_in_executor(
                self._refit_executor,
                lambda: refit_slot(
                    self.registry.store, slot, rssi, xy, content_hash=content_hash
                ),
            )
            state.refits += 1
            if self._m_refits is not None:
                self._m_refits.labels(label).inc()
            t_swap = time.perf_counter()
            summary = await self.dispatcher.swap_slot(
                building, floor, entry=result.entry, suite=result.suite
            )
            swap_elapsed = time.perf_counter() - t_swap
            state.swaps += 1
            state.last_reason = reason
            if self._m_swaps is not None:
                self._m_swaps.labels(label).inc()
                self._m_swap_seconds.observe(swap_elapsed)
            # Only the consumed rows clear; observations that arrived
            # mid-refit stay as evidence for the next cycle.
            state.buffer.clear_rows(n_used)
            state.drift_score_m = None
            if self._m_buffered is not None:
                self._m_buffered.labels(label).set(state.buffer.n_rows)
            return {
                **summary,
                "reason": reason,
                "refit": result.describe(),
            }
        except Exception:
            state.errors += 1
            raise
        finally:
            state.refit_inflight = False

    # -- introspection / lifecycle -----------------------------------------

    def describe(self) -> dict:
        return {
            "policy": self.policy.to_dict(),
            "buffer_dir": str(self.buffer_dir),
            "slots": {
                label: state.describe() for label, state in self._states.items()
            },
        }

    async def drain(self) -> None:
        """Wait for every in-flight ingest-triggered task (tests)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        self._refit_executor.shutdown(wait=False)
        if self._own_tmpdir is not None:
            shutil.rmtree(self._own_tmpdir, ignore_errors=True)
