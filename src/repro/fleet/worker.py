"""Fleet worker processes: shared-memory slots behind a pipe protocol.

The multi-process fleet splits :class:`~repro.fleet.frontend.FleetDispatcher`
into the admission/routing front-end (which stays in the serving
process) and N **worker processes** that run the actual inference. This
module is the worker half:

* :func:`build_slot_payload` pickles a fitted slot's localizer with
  protocol 5 and a ``buffer_callback``: every contiguous ndarray in the
  model (radio maps, training matrices, encoder weights, index tables)
  leaves the pickle out-of-band and is copied once into the slot's one
  :class:`~repro.kernels.SharedArtifactRegion`. Shipping a slot to a
  worker costs the small remaining pickle blob plus a
  :class:`~repro.kernels.SharedRegionHandle`; :func:`rehydrate_slot`
  unpickles over read-only slices of the segment, so every array of a
  replica is a view over the shared pages and only the blob's objects
  are private per worker.
* :func:`worker_main` is the child-process entry point: rehydrate the
  assigned slots, then serve a request/response loop over a duplex
  pipe. It works under both ``fork`` and ``spawn``
  (:mod:`repro.mp` / ``$REPRO_MP_START``) — every message is picklable
  and nothing depends on inherited parent state.
* :class:`WorkerPool` is the parent-side handle: process lifecycle,
  consistent-hash slot placement
  (:class:`~repro.fleet.placement.SlotPlacement`), the pipe round trip
  (:meth:`WorkerPool.predict`), graceful rebalance on topology change,
  hot-swap, and crash-restart — a dead worker is respawned warm from
  the retained payloads (the shared segments outlive the worker), its
  in-flight batches retried once, then failed with the *retryable*
  :class:`WorkerCrashedError` (HTTP 503), never hung. Coalescing is not
  done here: each slot's
  :class:`~repro.serve.dispatcher.BatchingDispatcher` batches requests
  and sends every flush through :meth:`WorkerPool.predict`.

Because ``predict_batched`` is row-independent (the
``BatchedLocalizer`` contract) and every slot's model state is the
same bytes the single-process dispatcher would use, multi-process
answers are **bit-identical** to in-process dispatch
(``tests/fleet/test_worker_pool.py`` pins this with a hypothesis
property over forced-slot routing).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import BatchedLocalizer, Localizer
from ..kernels import AttachedRegion, SharedArtifactRegion, SharedRegionHandle
from ..mp import mp_context
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from .placement import SlotPlacement, VNODES
from .registry import FleetRegistry, FleetSlot

#: How long to wait for a worker's ready handshake before declaring the
#: spawn failed. Spawn-start workers re-import the package, so this is
#: generous; fork-start workers answer in milliseconds.
READY_TIMEOUT_S = 60.0

#: How many times a batch is re-dispatched after worker crashes before
#: it fails with :class:`WorkerCrashedError`. One retry catches the
#: overwhelmingly common case (a single worker death); repeated crashes
#: mean the *input* kills workers and must surface, not loop.
MAX_CRASH_RETRIES = 1


class WorkerCrashedError(RuntimeError):
    """A worker died mid-batch and the retry budget is spent.

    Retryable by the client (the slot is respawning warm), so the HTTP
    layer answers 503 + ``retryable: true`` — unlike admission overflow
    (429) or a model raising (500).
    """

    def __init__(self, worker_id: int, slot: str) -> None:
        super().__init__(
            f"fleet worker {worker_id} crashed while serving slot {slot!r}; "
            "the slot is being respawned — retry"
        )
        self.worker_id = worker_id
        self.slot = slot


# -- slot payloads ----------------------------------------------------------


@dataclass(frozen=True)
class SlotPayload:
    """Everything a worker needs to rehydrate one slot, cheaply.

    ``blob`` is the protocol-5 pickle of the localizer without its
    out-of-band buffers; ``region`` points at the shared segment that
    holds those buffers, in pickling order.
    """

    label: str
    blob: bytes
    region: SharedRegionHandle
    batched: bool


def build_slot_payload(
    label: str, localizer: Localizer
) -> tuple[SlotPayload, SharedArtifactRegion]:
    """Publish a localizer's arrays and pickle its small remainder.

    Returns the payload and the owned :class:`SharedArtifactRegion`;
    the caller (the pool) unlinks the region once no payload refers to
    it. The localizer itself is only read.
    """
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(localizer, protocol=5, buffer_callback=buffers.append)
    region = SharedArtifactRegion([buf.raw() for buf in buffers])
    payload = SlotPayload(
        label=label,
        blob=blob,
        region=region.handle,
        batched=isinstance(localizer, BatchedLocalizer),
    )
    return payload, region


def rehydrate_slot(payload: SlotPayload) -> tuple[Localizer, AttachedRegion]:
    """Worker-side inverse of :func:`build_slot_payload` (zero-copy).

    Returns the localizer plus the attached region; the caller closes
    the region on shutdown, after dropping the localizer, whose arrays
    are read-only views into it.
    """
    attached = payload.region.attach()
    try:
        localizer = pickle.loads(payload.blob, buffers=attached.buffers)
    except BaseException:
        attached.close()
        raise
    return localizer, attached


# -- worker process ---------------------------------------------------------


def worker_main(
    worker_id: int,
    conn,
    payloads: list[SlotPayload],
    chunk_size: int | None,
) -> None:
    """Child-process entry point: rehydrate slots, serve the pipe.

    Protocol (all tuples, all picklable):

    * worker → parent on start: ``("ready", pid, [labels])`` or
      ``("fatal", repr)``.
    * parent → worker: ``("req", req_id, op, args)`` where op is
      ``predict`` (label, scans), ``adopt`` ([payloads]), ``drop``
      ([labels]), ``metrics`` (None) or ``stop`` (None).
    * worker → parent: ``("res", req_id, ok, value)`` — ``value`` is
      the result when ok, an error string when not.

    The loop is single-threaded: requests are answered strictly in
    arrival order, which is what makes rebalance drains race-free (a
    ``drop`` sent after the last ``predict`` for a slot is necessarily
    processed after it — FIFO pipes, zero dropped requests).

    Each worker keeps its own cumulative
    :class:`~repro.obs.MetricsRegistry` (per-slot predict latency,
    rows, errors, labeled with this worker's id); the ``metrics`` op
    ships a picklable snapshot back, and the parent merges every
    worker's snapshot into the fleet ``/metrics`` scrape. Metrics die
    with the worker — a respawned worker starts from zero, which a
    merged-counter consumer reads as a reset (standard Prometheus
    counter semantics).
    """
    slots: dict[str, tuple[Localizer, SlotPayload]] = {}
    # Each slot's attached shared-memory mapping: re-adopting a slot (a
    # hot-swap) or dropping it closes its stale mapping right away, so
    # long-lived workers release old model versions instead of holding
    # every mapping until exit.
    regions: dict[str, AttachedRegion] = {}
    metrics = MetricsRegistry()
    wid = str(worker_id)
    m_predict_seconds = metrics.histogram(
        "repro_worker_predict_seconds",
        "In-worker inference time per predict op, by slot/worker.",
        ("slot", "worker"),
    )
    m_rows = metrics.counter(
        "repro_worker_rows_total",
        "Scan rows answered in-worker, by slot/worker.",
        ("slot", "worker"),
    )
    m_errors = metrics.counter(
        "repro_worker_errors_total",
        "Predict ops failed in-worker, by slot/worker.",
        ("slot", "worker"),
    )

    def release(stale_slot, stale_region: AttachedRegion | None) -> None:
        # The old localizer's arrays are views into the stale mapping;
        # drop it first so close() finds no exported buffers.
        del stale_slot
        if stale_region is not None:
            stale_region.close()

    def adopt(new_payloads: list[SlotPayload]) -> list[str]:
        for payload in new_payloads:
            localizer, attached = rehydrate_slot(payload)
            stale_slot = slots.pop(payload.label, None)
            stale_region = regions.pop(payload.label, None)
            slots[payload.label] = (localizer, payload)
            regions[payload.label] = attached
            release(stale_slot, stale_region)
        return sorted(slots)

    try:
        adopt(payloads)
        conn.send(("ready", os.getpid(), sorted(slots)))
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing left to serve
        _, req_id, op, args = msg
        try:
            if op == "predict":
                label, scans = args
                t_start = time.perf_counter()
                try:
                    localizer, payload = slots[label]
                    if payload.batched:
                        value = localizer.predict_batched(
                            scans, chunk_size=chunk_size
                        )
                    else:
                        value = localizer.predict(scans)
                except Exception:
                    m_errors.labels(label, wid).inc()
                    raise
                m_predict_seconds.labels(label, wid).observe(
                    time.perf_counter() - t_start
                )
                m_rows.labels(label, wid).inc(scans.shape[0])
                value = np.ascontiguousarray(value)
            elif op == "adopt":
                value = adopt(args)
            elif op == "drop":
                for label in args:
                    release(slots.pop(label, None), regions.pop(label, None))
                value = sorted(slots)
            elif op == "metrics":
                value = metrics.snapshot()
            elif op == "stop":
                value = None
            else:
                raise ValueError(f"unknown worker op {op!r}")
            conn.send(("res", req_id, True, value))
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            conn.send(("res", req_id, False, f"{type(exc).__name__}: {exc}"))
            continue
        if op == "stop":
            break

    # Views into the shared segments die with the localizers; close the
    # mappings afterwards so /dev/shm refcounts drop promptly.
    slots.clear()
    for region in regions.values():
        region.close()
    regions.clear()
    conn.close()


# -- parent-side pool -------------------------------------------------------


def _call_threadsafe(loop: asyncio.AbstractEventLoop, fn, *args) -> None:
    """``call_soon_threadsafe`` that tolerates an already-closed loop.

    A worker answering (or dying) after its test's event loop finished
    must not crash the reader thread — the futures are unobservable
    then anyway.
    """
    # pragma: no cover - loop torn down mid-reply
    with contextlib.suppress(RuntimeError):
        loop.call_soon_threadsafe(fn, *args)


@dataclass
class _Inflight:
    """One request awaiting a worker's answer, tracked parent-side."""

    req_id: int
    worker_id: int
    op: str
    label: str | None
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop
    scans: np.ndarray | None = None
    retries: int = 0


@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    id: int
    process: object
    conn: object
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    pid: int = 0
    restarts: int = 0
    jobs: int = 0
    rows: int = 0
    errors: int = 0
    outstanding: set = field(default_factory=set)
    reader: threading.Thread | None = None
    retired: bool = False


class WorkerPool:
    """N worker processes serving fleet slots from shared models.

    Owns processes, placement and IPC only: each slot's
    :class:`~repro.serve.dispatcher.BatchingDispatcher` in the fleet
    front-end coalesces requests and calls :meth:`predict` once per
    flush. Construction publishes every slot's arrays into one shared
    segment per slot, spawns the workers and blocks until all of them
    report ready — the pool never serves from cold workers.

    Parameters
    ----------
    registry:
        The fitted fleet (slots are payload-ified from its store
        entries).
    workers:
        Worker process count (>= 1).
    chunk_size:
        Forwarded to each worker's ``predict_batched``.
    start_method:
        Forced multiprocessing start method; ``None`` resolves through
        ``$REPRO_MP_START`` then the platform default (:mod:`repro.mp`).
    vnodes:
        Consistent-hash ring density (testing knob).
    """

    def __init__(
        self,
        registry: FleetRegistry,
        *,
        workers: int,
        chunk_size: int | None = None,
        start_method: str | None = None,
        vnodes: int = VNODES,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.chunk_size = chunk_size
        self._ctx = mp_context(start_method)
        self._vnodes = int(vnodes)
        #: The published segment behind each slot's *current* payload —
        #: a hot-swap unlinks exactly the replaced slot's old segment.
        self._slot_regions: dict[str, SharedArtifactRegion] = {}
        self._payloads: dict[str, SlotPayload] = {}
        self._placement = SlotPlacement(workers, vnodes=self._vnodes)
        self._req_ids = itertools.count(1)
        self._inflight: dict[int, _Inflight] = {}
        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self._workers: dict[int, _Worker] = {}
        try:
            for slot in registry.slots():
                label = slot.slot.label
                self._payloads[label], self._slot_regions[label] = (
                    build_slot_payload(label, slot.entry.localizer)
                )
            self._labels = list(self._payloads)
            self._owner: dict[str, int] = {
                label: self._placement.worker_for(label)
                for label in self._labels
            }
            for worker_id, labels in self._placement.assign(
                self._labels
            ).items():
                self._workers[worker_id] = self._spawn(worker_id, labels)
        except BaseException:
            self.close()
            raise

    # -- process lifecycle -------------------------------------------------

    def _spawn(self, worker_id: int, labels: list[str]) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                child_conn,
                [self._payloads[label] for label in labels],
                self.chunk_size,
            ),
            name=f"repro-fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Parent must not hold the child's pipe end: a dangling copy
        # would defeat EOF-based crash detection for every later fork.
        child_conn.close()
        worker = _Worker(id=worker_id, process=process, conn=parent_conn)
        if not parent_conn.poll(READY_TIMEOUT_S):
            process.terminate()
            raise RuntimeError(
                f"fleet worker {worker_id} did not report ready within "
                f"{READY_TIMEOUT_S:.0f}s"
            )
        msg = parent_conn.recv()
        if msg[0] != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(
                f"fleet worker {worker_id} failed to start: {msg[1]}"
            )
        worker.pid = msg[1]
        worker.reader = threading.Thread(
            target=self._read_loop,
            args=(worker,),
            name=f"repro-fleet-reader-{worker_id}",
            daemon=True,
        )
        worker.reader.start()
        return worker

    def _read_loop(self, worker: _Worker) -> None:
        while True:
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "res":
                self._resolve(msg[1], msg[2], msg[3])
        self._on_worker_exit(worker)

    def _on_worker_exit(self, worker: _Worker) -> None:
        """Reader-thread exit path: respawn (crash) or stay down."""
        with self._lock:
            stranded = [
                self._inflight.pop(req_id)
                for req_id in sorted(worker.outstanding)
                if req_id in self._inflight
            ]
            worker.outstanding.clear()
        if self._closed:
            for entry in stranded:
                self._fail_threadsafe(
                    entry, RuntimeError("worker pool is closed")
                )
            return
        if worker.retired:
            # A retiree crashing mid-drain: its slots already rehomed,
            # so stranded batches retry against the new owners.
            for entry in stranded:
                if entry.op != "predict" or entry.retries >= MAX_CRASH_RETRIES:
                    self._fail_threadsafe(
                        entry,
                        WorkerCrashedError(worker.id, entry.label or "?"),
                    )
                else:
                    entry.retries += 1
                    _call_threadsafe(entry.loop, self._redispatch, entry)
            return
        worker.restarts += 1
        try:
            # Warm respawn: the payload bundle (pickles + shared-memory
            # handles) is retained parent-side and the segments are
            # still linked, so the replacement maps the same model pages
            # and is ready without refitting or re-publication.
            labels = [
                label
                for label, owner in self._owner.items()
                if owner == worker.id
            ]
            replacement = self._spawn(worker.id, labels)
            replacement.restarts = worker.restarts
            replacement.jobs = worker.jobs
            replacement.rows = worker.rows
            replacement.errors = worker.errors
            self._workers[worker.id] = replacement
        except Exception:
            for entry in stranded:
                self._fail_threadsafe(
                    entry, WorkerCrashedError(worker.id, entry.label or "?")
                )
            return
        for entry in stranded:
            if entry.op != "predict" or entry.retries >= MAX_CRASH_RETRIES:
                self._fail_threadsafe(
                    entry, WorkerCrashedError(worker.id, entry.label or "?")
                )
            else:
                entry.retries += 1
                entry.loop.call_soon_threadsafe(self._redispatch, entry)

    def _redispatch(self, entry: _Inflight) -> None:
        """Re-send a crash-stranded predict to the slot's current owner."""
        if self._closed:
            self._fail(entry, RuntimeError("worker pool is closed"))
            return
        worker = self._workers[self._owner[entry.label]]
        with self._lock:
            self._inflight[entry.req_id] = entry
            worker.outstanding.add(entry.req_id)
            entry.worker_id = worker.id
        try:
            self._send(worker, ("req", entry.req_id, "predict",
                                (entry.label, entry.scans)))
        except (OSError, ValueError) as exc:
            with self._lock:
                self._inflight.pop(entry.req_id, None)
                worker.outstanding.discard(entry.req_id)
            self._fail(entry, WorkerCrashedError(worker.id, entry.label or "?"))

    # -- request plumbing --------------------------------------------------

    def _send(self, worker: _Worker, msg: tuple) -> None:
        # Connection.send is not atomic across threads; serialize per
        # worker (loop thread, executor threads and close() all send).
        with worker.send_lock:
            worker.conn.send(msg)

    def _resolve(self, req_id: int, ok: bool, value) -> None:
        with self._lock:
            entry = self._inflight.pop(req_id, None)
            if entry is None:  # raced with crash cleanup
                return
            worker = self._workers.get(entry.worker_id)
            if worker is not None:
                worker.outstanding.discard(req_id)
                if entry.op == "predict":
                    if ok:
                        worker.jobs += 1
                        worker.rows += int(entry.scans.shape[0])
                    else:
                        worker.errors += 1
        if ok:
            _call_threadsafe(entry.loop, self._succeed, entry, value)
        else:
            self._fail_threadsafe(entry, RuntimeError(str(value)))

    @staticmethod
    def _succeed(entry: _Inflight, value) -> None:
        if not entry.future.done():
            entry.future.set_result(value)

    @staticmethod
    def _fail(entry: _Inflight, exc: BaseException) -> None:
        if not entry.future.done():
            entry.future.set_exception(exc)

    def _fail_threadsafe(self, entry: _Inflight, exc: BaseException) -> None:
        _call_threadsafe(entry.loop, self._fail, entry, exc)

    async def _request(self, worker: _Worker, op: str, args, *,
                       label: str | None = None,
                       scans: np.ndarray | None = None):
        loop = asyncio.get_running_loop()
        self._loop = loop
        entry = _Inflight(
            req_id=next(self._req_ids),
            worker_id=worker.id,
            op=op,
            label=label,
            future=loop.create_future(),
            loop=loop,
            scans=scans,
        )
        with self._lock:
            self._inflight[entry.req_id] = entry
            worker.outstanding.add(entry.req_id)
        try:
            # Off the loop: a send can block on a pipe whose worker is
            # mid-batch, and admission must keep running meanwhile.
            await loop.run_in_executor(
                None, self._send, worker, ("req", entry.req_id, op, args)
            )
        except (OSError, ValueError):
            # Worker died between placement lookup and send. The crash
            # path may have already claimed the entry (reader thread
            # races the send); whoever still holds it owns the retry.
            with self._lock:
                entry_live = self._inflight.pop(entry.req_id, None) is not None
                worker.outstanding.discard(entry.req_id)
            if entry_live:
                if entry.op == "predict" and entry.retries < MAX_CRASH_RETRIES:
                    entry.retries += 1
                    await self._await_respawn(worker)
                    self._redispatch(entry)
                else:
                    self._fail(
                        entry,
                        WorkerCrashedError(worker.id, entry.label or "?"),
                    )
        return await entry.future

    async def _await_respawn(self, dead: _Worker) -> None:
        """Wait (bounded) until a crashed worker's slot has a live body."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline and not self._closed:
            current = self._workers.get(dead.id)
            if (
                current is not None
                and current is not dead
                and current.process.is_alive()
            ):
                return
            await asyncio.sleep(0.01)

    # -- public surface ----------------------------------------------------

    async def predict(self, label: str, scans: np.ndarray) -> np.ndarray:
        """Answer ``scans`` on the worker that owns ``label``.

        One pipe round trip: the owner runs ``predict_batched`` (or
        ``predict`` for sequential decoders) and ships the ``(n, 2)``
        coordinates back. A worker crash mid-call is retried once on
        the warm respawn, then fails with :class:`WorkerCrashedError`.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if label not in self._payloads:
            raise KeyError(f"unknown slot {label!r}")
        worker = self._workers[self._owner[label]]
        return await self._request(
            worker, "predict", (label, scans), label=label, scans=scans
        )

    async def collect_metrics(self) -> list[MetricsSnapshot]:
        """Every live worker's metrics snapshot (crashed workers skipped).

        Scrape-time pull over the normal pipe protocol: a ``metrics``
        op FIFOs behind in-flight predicts, so a snapshot is a
        consistent point-in-time view of that worker's counters.
        """
        workers = [
            worker
            for worker in self._workers.values()
            if worker.process.is_alive() and not worker.retired
        ]
        results = await asyncio.gather(
            *(self._request(worker, "metrics", None) for worker in workers),
            return_exceptions=True,
        )
        return [
            snap for snap in results if isinstance(snap, MetricsSnapshot)
        ]

    # -- hot-swap ----------------------------------------------------------

    async def swap_slot(self, slot: FleetSlot) -> None:
        """Republish one slot's model and re-adopt it on its owner.

        The multi-process half of a live hot-swap, zero dropped
        requests by protocol order:

        1. Publish the new model's arrays into a fresh shared segment
           and pickle the new payload (off the loop — the old version
           keeps serving).
        2. Update the retained payload bundle *before* sending the
           ``adopt``: if the owner crashes mid-swap, its warm respawn
           rehydrates from ``_payloads`` and lands on the **new**
           version.
        3. Send ``adopt`` to the owner. The worker loop is FIFO, so
           every predict sent before the adopt is answered by the old
           model first; the adopt itself closes the worker's stale
           mappings.
        4. Unlink the replaced segment — the single parent-side
           release point, same discipline as ``close()``.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        label = slot.slot.label
        if label not in self._payloads:
            raise KeyError(f"unknown slot {label!r}")
        loop = asyncio.get_running_loop()
        payload, region = await loop.run_in_executor(
            None, build_slot_payload, label, slot.entry.localizer
        )
        old_region = self._slot_regions[label]
        self._payloads[label] = payload
        self._slot_regions[label] = region
        worker = self._workers[self._owner[label]]
        try:
            await self._request(worker, "adopt", [payload])
        except WorkerCrashedError:
            # The owner died mid-swap. Its warm respawn *usually*
            # rehydrates from the already-updated payload bundle, but
            # the spawn can race the update and capture the old one —
            # so re-adopt on the replacement (adopting an already-live
            # payload is idempotent: the worker just remaps it).
            await self._await_respawn(worker)
            replacement = self._workers[self._owner[label]]
            try:
                await self._request(replacement, "adopt", [payload])
            except WorkerCrashedError:
                # The replacement crashing too means its own respawn
                # started after the bundle update and reads the new
                # version — nothing left to adopt.
                pass
        old_region.unlink()

    # -- topology change ---------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self._placement.n_workers

    async def resize(self, workers: int) -> dict:
        """Rebalance to a new worker count with zero dropped requests.

        Order of operations is the whole correctness story:

        1. Spawn *new* workers (ready-blocked, warm from the shared
           store) and ship moving slots to surviving targets via
           ``adopt`` — the old owners still serve meanwhile.
        2. Atomically (single loop-thread assignment) switch the
           ownership table; new submissions route per the new topology.
        3. ``drop`` moved slots from their old owners. FIFO pipes mean
           any batch sent before the switch is answered before the
           drop is processed — in-flight work completes.
        4. Retire surplus workers only after their outstanding set
           drains.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if self._closed:
            raise RuntimeError("worker pool is closed")
        loop = asyncio.get_running_loop()
        old = self._placement
        new = SlotPlacement(workers, vnodes=self._vnodes)
        moves = old.moves_to(new, self._labels)
        assign = new.assign(self._labels)
        spawned = [w for w in assign if w not in self._workers]
        for worker_id in spawned:
            self._workers[worker_id] = await loop.run_in_executor(
                None, self._spawn, worker_id, assign[worker_id]
            )
        adoptions: dict[int, list[str]] = {}
        for move in moves:
            if move.target not in spawned:
                adoptions.setdefault(move.target, []).append(move.slot)
        await asyncio.gather(
            *(
                self._request(
                    self._workers[worker_id],
                    "adopt",
                    [self._payloads[label] for label in labels],
                )
                for worker_id, labels in adoptions.items()
            )
        )
        # The switch: one assignment on the loop thread, no await
        # in between — routing is never observed half-moved.
        self._placement = new
        self._owner = {
            label: new.worker_for(label) for label in self._labels
        }
        drops: dict[int, list[str]] = {}
        for move in moves:
            drops.setdefault(move.source, []).append(move.slot)
        retired = [w for w in self._workers if w not in assign]
        await asyncio.gather(
            *(
                self._request(self._workers[worker_id], "drop", labels)
                for worker_id, labels in drops.items()
                if worker_id in assign  # retirees just drain and stop
            )
        )
        for worker_id in retired:
            worker = self._workers[worker_id]
            worker.retired = True
            while worker.outstanding:
                await asyncio.sleep(0.005)
            with contextlib.suppress(OSError, ValueError):
                self._send(worker, ("req", next(self._req_ids), "stop", None))
            await loop.run_in_executor(None, worker.process.join, 10.0)
            del self._workers[worker_id]
        return {
            "workers": workers,
            "moved_slots": [move.slot for move in moves],
            "spawned_workers": spawned,
            "retired_workers": retired,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop workers, fail pending work, unlink the shared segments."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            stranded = list(self._inflight.values())
            self._inflight.clear()
        for entry in stranded:
            self._fail_threadsafe(
                entry, RuntimeError("worker pool is closed")
            )
        for worker in self._workers.values():
            worker.retired = True
            with contextlib.suppress(OSError, ValueError):
                self._send(worker, ("req", next(self._req_ids), "stop", None))
        deadline = time.monotonic() + 10.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            # The reader sees EOF once the worker is gone; let it exit
            # before closing the pipe under its blocking recv().
            if worker.reader is not None:
                worker.reader.join(timeout=5.0)
            with contextlib.suppress(OSError):  # pragma: no cover - closed
                worker.conn.close()
        self._workers.clear()
        # Owner-side unlink: removes the /dev/shm entries. Workers only
        # ever close() their mappings, so this is the single release
        # point the leak test audits.
        for region in self._slot_regions.values():
            region.unlink()
        self._slot_regions.clear()

    # -- introspection -----------------------------------------------------

    def owner(self, label: str) -> int:
        """Id of the worker currently serving ``label``."""
        return self._owner[label]

    def worker_stats(self) -> list[dict]:
        """Per-worker process facts for ``/models`` and ``/fleet``."""
        out = []
        for worker_id in sorted(self._workers):
            worker = self._workers[worker_id]
            out.append(
                {
                    "worker": worker_id,
                    "pid": worker.pid,
                    "alive": worker.process.is_alive(),
                    "slots": sorted(
                        label
                        for label, owner in self._owner.items()
                        if owner == worker_id
                    ),
                    "jobs": worker.jobs,
                    "rows": worker.rows,
                    "errors": worker.errors,
                    "restarts": worker.restarts,
                }
            )
        return out

    def describe(self) -> dict:
        """JSON-ready executor state for ``/fleet``."""
        return {
            "mode": "multi-process",
            "start_method": self._ctx.get_start_method(),
            "placement": self._placement.describe(),
            "shared_segments": len(self._slot_regions),
            "shared_bytes": int(
                sum(r.nbytes for r in self._slot_regions.values())
            ),
            "workers": self.worker_stats(),
        }
