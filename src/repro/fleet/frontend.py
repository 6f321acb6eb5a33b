"""Fleet admission/routing front-end over per-slot dispatchers.

One asyncio event loop fronts the whole fleet: every request is
**admitted** (bounded queue, atomic check+reserve), **routed**
(hierarchical building/floor classification, inline or on the executor
by the dispatcher's one offload rule) and then its row groups are
**coalesced** per slot by one
:class:`~repro.serve.dispatcher.BatchingDispatcher` each. The two
execution modes differ only in the dispatchers' compute callable:

* ``workers=0`` (the default) — each dispatcher runs its slot's model
  inside this process by the offload rule: a small flush inline on the
  loop, a large one (or one of a model with no declared cost) on the
  dispatcher's own inference thread.
* ``workers>=1`` — each flush is one pipe round trip
  (:meth:`~repro.fleet.worker.WorkerPool.predict`) to the worker
  process owning the slot (slots placed round-robin when the pool
  starts, fixed for its life); every model array is
  mapped read-only from the slot's shared-memory segment, so a replica
  costs only its small private pickle blob.

Every contract is mode-independent and pinned by the same tests
against both: bounded admission with atomic 429s happens *here*, before
anything is enqueued anywhere; answers are bit-identical across modes
(``predict_batched`` is row-independent and the model state is
byte-for-byte the same); ``pending_rows`` counts rows admitted but not
yet answered, whichever process computes them.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.trace import Trace
from ..serve.dispatcher import BatchingDispatcher, run_inline_or_offload
from ..serve.protocol import MAX_BATCH_ROWS
from .registry import FleetRegistry, FleetSlot
from .router import RoutingDecision, ScanRouter
from .worker import WorkerPool

#: Default admission bound: two protocol-maximum batches, so any batch
#: the HTTP layer accepts (``MAX_BATCH_ROWS``) is admissible on an idle
#: fleet and one giant request cannot monopolize the whole queue.
DEFAULT_MAX_PENDING_ROWS = 2 * MAX_BATCH_ROWS


class FleetOverloadError(RuntimeError):
    """Admission queue full; the HTTP layer answers 429."""

    def __init__(self, pending_rows: int, max_pending_rows: int, n_rows: int) -> None:
        super().__init__(
            f"fleet overloaded: {pending_rows} rows in flight + {n_rows} "
            f"requested > {max_pending_rows} admitted max"
        )
        self.pending_rows = pending_rows
        self.max_pending_rows = max_pending_rows


@dataclass
class SlotCounters:
    """Per-slot routing/traffic counters for ``/fleet`` and ``/models``."""

    requests: int = 0
    rows: int = 0
    forced_rows: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "forced_rows": self.forced_rows,
        }


@dataclass
class FleetStats:
    """Fleet-level admission and routing counters."""

    requests: int = 0
    rows: int = 0
    forced_requests: int = 0
    rejected_requests: int = 0
    errors: int = 0
    per_slot: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "rows": self.rows,
            "forced_requests": self.forced_requests,
            "rejected_requests": self.rejected_requests,
            "errors": self.errors,
        }


class FleetDispatcher:
    """Admit, route and execute fleet requests behind one loop.

    Parameters
    ----------
    registry:
        The fitted fleet.
    batch_window_ms / max_batch / chunk_size:
        Micro-batching knobs, forwarded to every slot's dispatcher. An
        idle slot dispatches on the next loop tick; ``batch_window_ms``
        only bounds how long rows wait behind the slot's in-flight
        compute.
    max_pending_rows:
        Fleet-wide bound on rows admitted but not yet answered; the
        backpressure knob (``repro serve --max-pending-rows``).
    workers:
        ``0`` computes in-process; ``>= 1`` spawns that many worker
        processes
        (:class:`~repro.fleet.worker.WorkerPool`) mapping each slot's
        model arrays from shared memory (``repro serve --workers``).
    start_method:
        Multiprocessing start method for the worker pool; ``None``
        resolves through ``$REPRO_MP_START`` (:mod:`repro.mp`).
    """

    def __init__(
        self,
        registry: FleetRegistry,
        *,
        batch_window_ms: float = 2.0,
        max_batch: int = 256,
        chunk_size: int | None = None,
        max_pending_rows: int = DEFAULT_MAX_PENDING_ROWS,
        workers: int = 0,
        start_method: str | None = None,
    ) -> None:
        if max_pending_rows < 1:
            raise ValueError("max_pending_rows must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.registry = registry
        self.router = ScanRouter(registry)
        self.max_pending_rows = int(max_pending_rows)
        self.workers = int(workers)
        self.stats = FleetStats(
            per_slot={
                slot.slot.label: SlotCounters() for slot in registry.slots()
            }
        )
        self._batch_window_ms = batch_window_ms
        self._max_batch = max_batch
        self._chunk_size = chunk_size
        self._pool = (
            WorkerPool(
                registry,
                workers=workers,
                chunk_size=chunk_size,
                start_method=start_method,
            )
            if workers
            else None
        )
        self._metrics: MetricsRegistry | None = None
        try:
            self._dispatchers = {
                slot.slot.label: self._dispatcher(slot.slot.label, slot.entry.localizer)
                for slot in registry.slots()
            }
        except BaseException:
            # Invalid micro-batching knobs: release the spawned workers.
            if self._pool is not None:
                self._pool.close()
            raise
        self._pending_rows = 0
        self._closed = False
        self._m_requests = None
        self._m_rows = None
        self._m_rejected = None
        self._m_errors = None
        self._m_routing_seconds = None
        self._m_pending = None

    def _dispatcher(self, label: str, localizer) -> BatchingDispatcher:
        """A slot's coalescer; the mode only picks its compute."""
        dispatcher = BatchingDispatcher(
            localizer,
            batch_window_ms=self._batch_window_ms,
            max_batch=self._max_batch,
            chunk_size=self._chunk_size,
            slot=label,
            compute=None if self._pool is None else partial(self._pool.predict, label),
        )
        if self._metrics is not None:
            dispatcher.bind_metrics(self._metrics)
        return dispatcher

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Record admission/routing series into ``registry``.

        Also binds every slot dispatcher (per-slot dispatch series) so
        one call from the server instruments the whole frontend.
        """
        self._metrics = registry
        self._m_requests = registry.counter(
            "repro_fleet_requests_total",
            "Fleet requests answered successfully.",
        )
        self._m_rows = registry.counter(
            "repro_fleet_rows_total",
            "Scan rows answered across the fleet.",
        )
        self._m_rejected = registry.counter(
            "repro_fleet_rejected_total",
            "Requests refused at admission (HTTP 429).",
        )
        self._m_errors = registry.counter(
            "repro_fleet_errors_total",
            "Fleet requests failed after admission.",
        )
        self._m_routing_seconds = registry.histogram(
            "repro_routing_seconds",
            "Building/floor classification time per request.",
        )
        self._m_pending = registry.gauge(
            "repro_fleet_pending_rows",
            "Rows admitted and not yet answered (queue depth).",
        )
        for dispatcher in self._dispatchers.values():
            dispatcher.bind_metrics(registry)

    def update_gauges(self) -> None:
        """Refresh scrape-time gauges (queue depth, worker liveness)."""
        if self._metrics is None:
            return
        self._m_pending.set(self._pending_rows)
        if self._pool is not None:
            alive = self._metrics.gauge(
                "repro_fleet_workers_alive",
                "Worker processes currently alive.",
            )
            jobs = self._metrics.gauge(
                "repro_worker_jobs",
                "Predict ops answered by each worker (parent view).",
                ("worker",),
            )
            restarts = self._metrics.gauge(
                "repro_worker_restarts",
                "Crash respawns of each worker slot.",
                ("worker",),
            )
            stats = self._pool.worker_stats()
            alive.set(sum(1 for w in stats if w["alive"]))
            for w in stats:
                jobs.labels(str(w["worker"])).set(w["jobs"])
                restarts.labels(str(w["worker"])).set(w["restarts"])

    async def collect_worker_metrics(self) -> list[MetricsSnapshot]:
        """Worker-process metric snapshots (empty for in-process mode)."""
        if self._pool is not None:
            return await self._pool.collect_metrics()
        return []

    def worker_liveness(self) -> dict:
        """Compact worker summary for ``/healthz`` probes."""
        if self._pool is None:
            return {"mode": "in-process"}
        stats = self._pool.worker_stats()
        return {
            "mode": "multi-process",
            "workers": len(stats),
            "alive": sum(1 for w in stats if w["alive"]),
            "restarts": sum(w["restarts"] for w in stats),
        }

    @property
    def pending_rows(self) -> int:
        """Rows admitted and not yet answered (the queue depth)."""
        return self._pending_rows

    @property
    def pool(self) -> WorkerPool | None:
        """The worker pool (``None`` when computing in-process)."""
        return self._pool

    # -- dispatch ----------------------------------------------------------

    async def localize(
        self,
        scans: np.ndarray,
        *,
        decision: RoutingDecision | None = None,
        building: str | None = None,
        floor: int | None = None,
        trace: Trace | None = None,
    ) -> tuple[np.ndarray, RoutingDecision]:
        """Admit, route and answer one request's fleet-wide scan rows.

        Routing resolves one of three ways: ``decision`` pins every row
        outright; ``building`` (optionally with ``floor``) pins the
        building and classifies only what's left; ``None`` classifies
        hierarchically. Classification always runs *after* admission
        (a rejected request never pays for it), by the one offload rule
        (:func:`~repro.serve.dispatcher.run_inline_or_offload`): inline
        on the event loop while rows x the floor classifier's
        multiply-adds per row stay within
        :data:`~repro.serve.dispatcher.INLINE_MAX_MACS`, on the default
        executor above it.
        Raises :class:`FleetOverloadError` when the admission bound
        would be exceeded — before any row is enqueued — and
        ``KeyError`` for a pin naming an unknown building/floor.
        """
        if self._closed:
            raise RuntimeError("fleet dispatcher is closed")
        if decision is not None and building is not None:
            raise ValueError("pass either decision= or building=, not both")
        if floor is not None and building is None:
            raise ValueError("floor= requires building=")
        t_admit = time.perf_counter()
        scans = self.router.check_scans(scans)
        n = scans.shape[0]
        if n > self.max_pending_rows:
            # Structurally unservable: no amount of retrying fits this
            # batch under the bound. A client error (400), not a 429 —
            # the retry hint would loop forever.
            raise ValueError(
                f"batch of {n} rows can never be admitted "
                f"(max_pending_rows={self.max_pending_rows}); split it"
            )
        # Check + reserve with no await in between: on the single-threaded
        # event loop this is atomic, so concurrent requests can never
        # jointly overshoot the bound.
        if self._pending_rows + n > self.max_pending_rows:
            self.stats.rejected_requests += 1
            if self._m_rejected is not None:
                self._m_rejected.inc()
            raise FleetOverloadError(self._pending_rows, self.max_pending_rows, n)
        self._pending_rows += n
        if trace is not None:
            trace.add("admission", time.perf_counter() - t_admit)
        try:
            t_route = time.perf_counter()
            if decision is not None:
                if decision.n_rows != n:
                    raise ValueError(
                        f"decision covers {decision.n_rows} rows, scans have {n}"
                    )
            elif building is not None and floor is not None:
                decision = self.router.decide_slot(building, floor, n)
            else:
                # Classification is dense numpy work, offloaded by the
                # dispatchers' rule: a small batch classifies inline,
                # faster than an executor hop returns; a large one runs
                # off the loop so other requests keep being admitted and
                # the slot micro-batch windows keep filling meanwhile.
                route = (
                    self.router.route
                    if building is None
                    else partial(self.router.route_building, building=building)
                )
                decision = await run_inline_or_offload(
                    route, scans, self.router.macs_per_row(building)
                )
            routing_elapsed = time.perf_counter() - t_route
            if self._m_routing_seconds is not None:
                self._m_routing_seconds.observe(routing_elapsed)
            if trace is not None:
                trace.add("routing", routing_elapsed)
            groups = self.router.group_rows(decision)
            self.router.check_groups_cover(groups, n)
            coords = np.empty((n, 2), dtype=np.float64)
            names = [b.name for b in self.registry.buildings]
            t_execute = time.perf_counter()

            async def run_slot(slot_key: tuple[int, int], rows: np.ndarray) -> None:
                deployment = self.registry.buildings[slot_key[0]]
                block = deployment.block(scans[rows])
                label = f"{names[slot_key[0]]}/f{slot_key[1]}"
                coords[rows] = await self._localize_slot(label, block, trace)
                counters = self.stats.per_slot[label]
                counters.requests += 1
                counters.rows += rows.shape[0]
                if decision.forced:
                    counters.forced_rows += rows.shape[0]

            # return_exceptions so every slot batch finishes before the
            # admission reservation is released in the finally below —
            # pending_rows must never under-count work still computing
            # in a sibling slot's dispatcher.
            results = await asyncio.gather(
                *(run_slot(key, rows) for key, rows in groups.items()),
                return_exceptions=True,
            )
            errors = [r for r in results if isinstance(r, BaseException)]
            if errors:
                self.stats.errors += 1
                if self._m_errors is not None:
                    self._m_errors.inc()
                raise errors[0]
            if trace is not None:
                # Scatter-back: slot answers landed in `coords` as each
                # run_slot wrote its rows; this span is the full fan-out
                # (submit through last slot's scatter).
                trace.add(
                    "scatter", time.perf_counter() - t_execute,
                    slots=len(groups),
                )
        finally:
            self._pending_rows -= n
        self.stats.requests += 1
        self.stats.rows += n
        if self._m_requests is not None:
            self._m_requests.inc()
            self._m_rows.inc(n)
        if decision.forced:
            self.stats.forced_requests += 1
        return coords, decision

    async def _localize_slot(
        self, label: str, scans: np.ndarray, trace: Trace | None
    ) -> np.ndarray:
        while True:
            dispatcher = self._dispatchers[label]
            try:
                return await dispatcher.localize(scans, trace=trace)
            except RuntimeError:
                # A swap can close the dispatcher between our lookup and
                # the enqueue; if the slot has already been rebound,
                # retry on the replacement — the request is never
                # dropped. Any other RuntimeError propagates.
                if self._dispatchers.get(label) is dispatcher:
                    raise

    async def swap_slot(self, building: str, floor: int, *, entry, suite) -> dict:
        """Atomically hot-swap one slot to a new model version.

        The compute flips first (old model answers everything admitted
        before the flip, the new one everything after — no request ever
        sees a mixed-version batch and none drop), then the registry
        rebinding bumps the slot's ``version`` for ``/models`` and
        ``/fleet``. In-process, a warm replacement dispatcher is
        installed in one loop-tick assignment and the old one drains
        (every enqueued and in-flight request completes on the old
        model) before closing. Worker pools republish the slot's
        shared-memory radio map and re-adopt it on its owner (releasing
        the old segments); the slot's dispatcher stays.
        """
        slot = self.registry.slot(building, floor)
        label = slot.slot.label
        t0 = time.perf_counter()
        if self._pool is not None:
            staged = FleetSlot(
                slot=slot.slot, suite=suite, entry=entry, index=slot.index
            )
            await self._pool.swap_slot(staged)
            # The worker computes; drop the parent's hold on the old model.
            self._dispatchers[label].localizer = entry.localizer
        else:
            old = self._dispatchers[label]
            # Single assignment on the event-loop thread = the atomic flip.
            self._dispatchers[label] = self._dispatcher(label, entry.localizer)
            await old.drain()
            old.close()
        self.registry.rebind_slot(building, floor, entry=entry, suite=suite)
        return {
            "slot": label,
            "version": slot.version,
            "digest": entry.key.digest[:16],
            "seconds": time.perf_counter() - t0,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every slot dispatcher (failing pending requests), then
        the worker pool."""
        if self._closed:
            return
        self._closed = True
        for dispatcher in self._dispatchers.values():
            dispatcher.close()
        if self._pool is not None:
            self._pool.close()

    # -- introspection -----------------------------------------------------

    def slot_stats(self) -> dict:
        """Per-slot dispatcher + routing counters, keyed by slot label.

        Multi-process fleets add the owning ``worker`` id to each
        slot's ``dispatcher`` counters.
        """
        out = {}
        for label, dispatcher in self._dispatchers.items():
            stats = dispatcher.stats.as_dict()
            if self._pool is not None:
                stats["worker"] = self._pool.owner(label)
            out[label] = {
                "routing": self.stats.per_slot[label].as_dict(),
                "dispatcher": stats,
            }
        return out

    def describe(self) -> dict:
        """JSON-ready dispatch state for ``/fleet`` and ``/healthz``."""
        return {
            "admission": {
                "max_pending_rows": self.max_pending_rows,
                "pending_rows": self._pending_rows,
            },
            "fleet": self.stats.as_dict(),
            "executor": (
                {"mode": "in-process"} if self._pool is None
                else self._pool.describe()
            ),
            "slots": self.slot_stats(),
        }
