"""Async micro-batching request dispatcher.

The serving hot path: many concurrent clients each submit one
``(n_aps,)`` scan, but the fitted models are dramatically faster per
query when driven through ``predict_batched`` on a coalesced
``(n, n_aps)`` matrix (PR 1's batched contract — one distance/forward
block instead of n tiny ones). The :class:`BatchingDispatcher` bridges
the two:

* Batching comes from back-pressure, not from a timer. Requests
  enqueue into a pending list. When no compute is in flight, the first
  arrival flushes on the next event-loop tick, so a lone request never
  waits and arrivals of the same tick still coalesce. While a compute
  is in flight, arrivals accumulate; they flush the moment it answers,
  once ``max_batch`` rows are pending, or when ``batch_window_ms``
  expires, whichever comes first. Everything in one flush rides a
  single ``predict_batched`` call, then results are split back to the
  awaiting futures row-for-row.
* Because ``BatchedLocalizer.predict`` is row-independent by contract,
  the coalesced answer is **bit-identical** to dispatching each request
  alone — micro-batching changes latency and throughput, never values
  (``tests/serve/test_dispatcher.py`` asserts this).
* Frameworks whose online phase is stateful over the scan sequence
  (GIFT's walk decoding — ``batched_inference`` is False) cannot be
  coalesced across clients: interleaving two users' scans into one
  "walk" would corrupt both. Those fall back to **per-request
  dispatch**, each request's rows handled as one ordered sequence, in
  arrival order.

Every flush, and every sequential request, goes through one **compute
callable**: ``compute(rows)`` returns an awaitable of the ``(n, 2)``
coordinates. The default applies the one **offload rule**
(:func:`run_inline_or_offload`): a call whose ``rows x
macs_per_row`` (the multiply-adds the model declares per query row)
stays within :data:`INLINE_MAX_MACS` runs inline on the event loop,
because it finishes sooner than a thread hop returns; anything larger,
or a model that declares no cost (``macs_per_row`` is ``None``), runs
on a single inference thread (``run_in_executor``), so the loop keeps
accepting and coalescing new arrivals while the batch computes — that
overlap is where micro-batching throughput comes from. The thread is
started by the first offloaded call, and it serializes
sequential-framework requests without extra locking. The fleet
front-end routes by the same rule. A fleet served by worker processes
passes a pipe round trip instead
(:meth:`~repro.fleet.worker.WorkerPool.predict`); coalescing, stats,
metrics and trace spans are the same code either way.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..baselines.base import BatchedLocalizer, Localizer
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Trace

#: ``compute(rows)`` -> awaitable of the ``(n, 2)`` coordinates.
Compute = Callable[[np.ndarray], Awaitable[np.ndarray]]

#: Largest call (rows x multiply-adds per row) run inline on the event
#: loop: 16,384 floor-classifier references at 48 APs. On a 2-vCPU host
#: a route of 4 rows against the perfbench fleet's 396 x 48 references
#: took 0.35 ms inline against 0.55 ms through an executor; the bound
#: (41 such rows, 66 rows of office KNN) keeps a routine inline stall
#: of the loop under ~0.7 ms. Larger calls pay one executor hop.
INLINE_MAX_MACS = 16_384 * 48


def run_inline_or_offload(
    fn: Callable[[np.ndarray], object],
    rows: np.ndarray,
    macs_per_row: int | None,
    executor: Callable[[], Executor | None] = lambda: None,
) -> asyncio.Future:
    """``fn(rows)`` inline while it is small, on an executor otherwise.

    Inline when ``len(rows) * macs_per_row <= INLINE_MAX_MACS``: the
    result (or the exception ``fn`` raised) is returned on an
    already-resolved future, so awaiting it does not yield. Above the
    bound, or when ``macs_per_row`` is ``None`` (cost unknown), the call
    runs on ``executor()`` (``None``: the loop's default executor),
    which is asked for only then.
    """
    loop = asyncio.get_running_loop()
    if macs_per_row is not None and rows.shape[0] * macs_per_row <= INLINE_MAX_MACS:
        fut = loop.create_future()
        try:
            fut.set_result(fn(rows))
        except Exception as exc:
            fut.set_exception(exc)
        return fut
    return loop.run_in_executor(executor(), fn, rows)


@dataclass
class DispatchStats:
    """Counters the health/models endpoints surface."""

    requests: int = 0
    rows: int = 0
    batches: int = 0
    max_batch_rows: int = 0
    sequential_requests: int = 0
    errors: int = 0

    def record_batch(self, n_rows: int) -> None:
        """Account one completed dispatch of ``n_rows`` rows."""
        self.batches += 1
        self.rows += n_rows
        self.max_batch_rows = max(self.max_batch_rows, n_rows)

    def mean_batch_rows(self) -> float:
        """Average coalesced rows per dispatch (1.0 = no coalescing)."""
        return self.rows / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot."""
        return {
            "requests": self.requests,
            "rows": self.rows,
            "batches": self.batches,
            "mean_batch_rows": round(self.mean_batch_rows(), 2),
            "max_batch_rows": self.max_batch_rows,
            "sequential_requests": self.sequential_requests,
            "errors": self.errors,
        }


class BatchingDispatcher:
    """Coalesce concurrent localization requests into batched inference.

    Parameters
    ----------
    localizer:
        A *fitted* localizer. Batch-safe ones (``BatchedLocalizer``)
        get micro-batching; sequential decoders get ordered per-request
        dispatch.
    batch_window_ms:
        Upper bound on how long rows wait behind an in-flight compute
        before they flush anyway. An idle dispatcher never waits: it
        flushes on the next event-loop tick (coalescing only arrivals
        of that tick), so sparse traffic pays no window. Under load the
        window caps the queueing added when one compute outlasts it.
    max_batch:
        Flush immediately once this many rows are pending, even while a
        compute is in flight. Does not split a single
        larger-than-``max_batch`` request (use ``chunk_size`` to bound
        its memory instead).
    chunk_size:
        Forwarded to ``predict_batched`` — caps rows per inference
        block; changes peak memory, never values.
    slot:
        Label stamped on this dispatcher's trace spans and metric
        series (the fleet slot; the single-model server uses ``"_"``).
    compute:
        Where coalesced rows are answered. ``None`` runs ``localizer``
        by the offload rule (:func:`run_inline_or_offload`): inline on
        the loop when small, else on this dispatcher's own inference
        thread; a fleet with worker processes passes the slot's pipe
        round trip.
    """

    def __init__(
        self,
        localizer: Localizer,
        *,
        batch_window_ms: float = 2.0,
        max_batch: int = 256,
        chunk_size: int | None = None,
        slot: str = "_",
        compute: Compute | None = None,
    ) -> None:
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.localizer = localizer
        self.batched = isinstance(localizer, BatchedLocalizer)
        self.batch_window_ms = float(batch_window_ms)
        self.max_batch = int(max_batch)
        self.chunk_size = chunk_size
        self.slot = slot
        self.stats = DispatchStats()
        self._pending: list[tuple[np.ndarray, asyncio.Future, Trace | None, float]] = []
        self._pending_rows = 0
        #: The scheduled flush: next tick when idle, the window when busy.
        self._flush_handle: asyncio.Handle | None = None
        #: Dispatched computes not yet answered (what ``drain`` awaits).
        self._inflight: set[asyncio.Future] = set()
        #: The inference thread, started by the first offloaded compute.
        self._executor: ThreadPoolExecutor | None = None
        if compute is None:
            self._predict = (
                partial(localizer.predict_batched, chunk_size=chunk_size)
                if self.batched
                else localizer.predict
            )
            compute = self._compute_local
        self._compute = compute
        self._closed = False
        # Bound metric children (bind_metrics); None = not recording.
        self._m_batch_seconds = None
        self._m_rows = None
        self._m_batches = None
        self._m_errors = None

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Record per-flush counters/latency into ``registry``.

        Series are labeled with this dispatcher's ``slot``. Families
        are get-or-created, so any number of dispatchers can bind the
        same registry.
        """
        batch_seconds = registry.histogram(
            "repro_batch_compute_seconds",
            "Coalesced-batch inference time, by slot.",
            ("slot",),
        )
        rows = registry.counter(
            "repro_dispatch_rows_total",
            "Scan rows resolved through the dispatcher, by slot.",
            ("slot",),
        )
        batches = registry.counter(
            "repro_dispatch_batches_total",
            "Coalesced flushes dispatched, by slot.",
            ("slot",),
        )
        errors = registry.counter(
            "repro_dispatch_errors_total",
            "Requests failed inside dispatch, by slot.",
            ("slot",),
        )
        self._m_batch_seconds = batch_seconds.labels(self.slot)
        self._m_rows = rows.labels(self.slot)
        self._m_batches = batches.labels(self.slot)
        self._m_errors = errors.labels(self.slot)

    # -- public API --------------------------------------------------------

    async def localize(
        self, rssi: np.ndarray, *, trace: Trace | None = None
    ) -> np.ndarray:
        """Resolve ``(n, n_aps)`` (or a single ``(n_aps,)``) scan rows.

        Awaits until the request's batch is dispatched and returns the
        ``(n, 2)`` coordinates for exactly the submitted rows. Raises
        whatever the underlying ``predict`` raises. A failed dispatch
        rejects every future of its batch; it never corrupts results of
        other batches. (The HTTP layer validates shapes per request
        before enqueueing, so one client's malformed scan cannot fail a
        co-batched client.)
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        rssi = np.asarray(rssi, dtype=np.float64)
        if rssi.ndim == 1:
            rssi = rssi[None, :]
        if rssi.ndim != 2 or rssi.shape[0] == 0:
            raise ValueError(f"expected (n>=1, n_aps) scans, got {rssi.shape}")
        self.stats.requests += 1
        if not self.batched:
            return await self._dispatch_sequential(rssi, trace)
        return await self._enqueue(rssi, trace)

    async def drain(self) -> None:
        """Complete every enqueued and in-flight request, failing none.

        The hot-swap half of ``close()``: a live swap first points new
        traffic at the replacement dispatcher, then drains this one so
        requests that already hold its reference finish on the *old*
        model, then closes it. Flushes whatever is pending and waits
        for every dispatched compute to answer, until neither is left:
        rows that arrive meanwhile, including those a delivering
        compute flushes, are answered before this returns.
        """
        while self._pending or self._inflight:
            self._flush()
            if self._inflight:
                await asyncio.wait(list(self._inflight))

    def close(self) -> None:
        """Fail pending requests and release the inference thread."""
        if self._closed:
            return
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        self._fail(pending, RuntimeError("dispatcher closed"))
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # -- compute -----------------------------------------------------------

    def _compute_local(self, rows: np.ndarray) -> asyncio.Future:
        # A bare future, not a Task: the flush path delivers a resolved
        # one at once and adds its done-callback to an executor one, so
        # a lone request pays no extra hop.
        return run_inline_or_offload(
            self._predict, rows, self.localizer.macs_per_row, self._inference_thread
        )

    def _inference_thread(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-predict"
            )
        return self._executor

    def _record(self, n_rows: int, elapsed: float) -> None:
        # Counted only on success, so the /healthz batch counters
        # reflect completed work.
        self.stats.record_batch(n_rows)
        if self._m_batch_seconds is not None:
            self._m_batch_seconds.observe(elapsed)
            self._m_rows.inc(n_rows)
            self._m_batches.inc()

    def _fail(self, batch: list, exc: BaseException) -> None:
        for _, fut, _, _ in batch:
            if not fut.done():
                fut.set_exception(exc)

    def _count_errors(self, n: int) -> None:
        self.stats.errors += n
        if self._m_errors is not None:
            self._m_errors.inc(n)

    # -- sequential fallback -----------------------------------------------

    async def _dispatch_sequential(
        self, rssi: np.ndarray, trace: Trace | None
    ) -> np.ndarray:
        # One compute per request, in submission order; each request's
        # rows stay one ordered walk.
        self.stats.sequential_requests += 1
        t_submit = time.perf_counter()
        try:
            job = asyncio.ensure_future(self._compute(rssi))
            self._inflight.add(job)
            try:
                result = await job
            finally:
                self._inflight.discard(job)
        except Exception:
            self._count_errors(1)
            raise
        elapsed = time.perf_counter() - t_submit
        self._record(rssi.shape[0], elapsed)
        if trace is not None:
            trace.add("compute", elapsed, slot=self.slot)
        return result

    # -- micro-batching core -----------------------------------------------

    async def _enqueue(
        self, rssi: np.ndarray, trace: Trace | None
    ) -> np.ndarray:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._pending.append((rssi, fut, trace, time.perf_counter()))
        self._pending_rows += rssi.shape[0]
        if self._pending_rows >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            if self._inflight:
                # Busy: coalesce behind the running compute; _deliver
                # flushes when it answers, the window bounds the wait.
                self._flush_handle = loop.call_later(
                    self.batch_window_ms / 1000.0, self._flush
                )
            else:
                self._flush_handle = loop.call_soon(self._flush)
        return await fut

    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        self._pending_rows = 0
        if not batch:
            return
        t_flush = time.perf_counter()
        for _, _, trace, t_enqueue in batch:
            if trace is not None:
                # Coalescing wait: enqueue until this flush fired.
                trace.add("queue", t_flush - t_enqueue, slot=self.slot)
        try:
            # Raises when direct API callers coalesce inconsistent row
            # widths; fail this batch rather than hang its futures.
            matrix = (
                batch[0][0]
                if len(batch) == 1
                else np.concatenate([rows for rows, _, _, _ in batch], axis=0)
            )
            job = asyncio.ensure_future(self._compute(matrix))
        except Exception as exc:
            self._count_errors(len(batch))
            self._fail(batch, exc)
            return
        if job.done():
            # Computed inline: answer in this tick, not on a callback.
            self._deliver(batch, job, t_flush)
            return
        self._inflight.add(job)
        job.add_done_callback(
            lambda done: self._deliver(batch, done, t_flush)
        )

    def _deliver(
        self,
        batch: list[tuple[np.ndarray, asyncio.Future, Trace | None, float]],
        done: asyncio.Future,
        t_flush: float,
    ) -> None:
        self._inflight.discard(done)
        if not self._inflight:
            # Back-pressure released: rows that piled up behind this
            # compute start computing before its results fan out.
            self._flush()
        exc = done.exception()
        if exc is not None:
            self._count_errors(len(batch))
            self._fail(batch, exc)
            return
        coords = done.result()
        elapsed = time.perf_counter() - t_flush
        n_rows = sum(rows.shape[0] for rows, _, _, _ in batch)
        self._record(n_rows, elapsed)
        offset = 0
        for rows, fut, trace, _ in batch:
            n = rows.shape[0]
            if trace is not None:
                trace.add("compute", elapsed, slot=self.slot, batch_rows=n_rows)
            if not fut.done():
                fut.set_result(np.array(coords[offset : offset + n]))
            offset += n
