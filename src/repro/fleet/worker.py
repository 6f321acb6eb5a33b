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
  a fixed round-robin slot placement (slot *i* on worker *i* mod N for
  the pool's whole life), the pipe round trip
  (:meth:`WorkerPool.predict`), hot-swap, and crash-restart — a dead
  worker is respawned warm from the retained payloads (the shared
  segments outlive the worker), its in-flight batches retried once,
  then failed with the *retryable* :class:`WorkerCrashedError` (HTTP
  503), never hung. Coalescing is not done here: each slot's
  :class:`~repro.serve.dispatcher.BatchingDispatcher` batches requests
  and sends every flush through :meth:`WorkerPool.predict`. The running
  event loop alone owns each pipe end: it writes requests without
  blocking (FIFO per worker), reads answers in a callback and takes EOF
  as the crash signal. Frames are ``multiprocessing.Connection``'s, so
  :func:`worker_main` keeps a plain ``recv()``/``send()`` loop.

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
import socket
import struct
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ..baselines.base import BatchedLocalizer, Localizer
from ..kernels import AttachedRegion, SharedArtifactRegion, SharedRegionHandle
from ..mp import mp_context
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
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
      ``predict`` (label, scans), ``adopt`` ([payloads]), ``metrics``
      (None) or ``stop`` (None).
    * worker → parent: ``("res", req_id, ok, value)`` — ``value`` is
      the result when ok, an error string when not.

    The loop is single-threaded: requests are answered strictly in
    arrival order, which is what makes hot-swap race-free (every
    ``predict`` sent before an ``adopt`` is answered by the old model —
    FIFO pipes, zero dropped requests).

    A slot's model arrays are views into its shared mapping, so only
    ``slots`` may hold a model: :func:`predict` keeps its reference in
    its own frame, and a mapping closes only after its model is
    dropped. Closing under a live view would leave the mapping to the
    garbage collector, whose ``SharedMemory.__del__`` then prints a
    ``BufferError`` at exit.

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
    # hot-swap) closes its stale mapping right away, so long-lived
    # workers release old model versions instead of holding every
    # mapping until exit.
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

    def adopt(new_payloads: list[SlotPayload]) -> list[str]:
        for payload in new_payloads:
            localizer, attached = rehydrate_slot(payload)
            # Rebinding the slot drops the old model, whose arrays are
            # views into the stale mapping, before that mapping closes.
            slots[payload.label] = (localizer, payload)
            stale = regions.get(payload.label)
            regions[payload.label] = attached
            if stale is not None:
                stale.close()
        return sorted(slots)

    def predict(label: str, scans: np.ndarray) -> np.ndarray:
        t_start = time.perf_counter()
        try:
            localizer, payload = slots[label]
            if payload.batched:
                value = localizer.predict_batched(scans, chunk_size=chunk_size)
            else:
                value = localizer.predict(scans)
        except Exception:
            m_errors.labels(label, wid).inc()
            raise
        m_predict_seconds.labels(label, wid).observe(time.perf_counter() - t_start)
        m_rows.labels(label, wid).inc(scans.shape[0])
        return np.ascontiguousarray(value)

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
                value = predict(*args)
            elif op == "adopt":
                value = adopt(args)
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

    # Views into the shared segments die with the localizers (``slots``
    # holds the only references); close the mappings afterwards so
    # /dev/shm refcounts drop promptly.
    slots.clear()
    for region in regions.values():
        region.close()
    regions.clear()
    conn.close()


# -- parent-side pool -------------------------------------------------------

def _frame(msg) -> bytes:
    """``msg`` exactly as ``Connection.send`` writes it: a ``!i`` size
    (``-1`` then a ``!Q`` size above 2 GiB), then the pickle."""
    payload = ForkingPickler.dumps(msg)
    n = len(payload)
    if n > 0x7FFFFFFF:
        return struct.pack("!iQ", -1, n) + payload
    return struct.pack("!i", n) + payload


def _unframe(buf: bytearray) -> list:
    """Take every complete frame off the front of ``buf``, unpickled."""
    msgs, start = [], 0
    while len(buf) - start >= 4:
        (size,) = struct.unpack_from("!i", buf, start)
        body = start + 4
        if size == -1:
            if len(buf) - body < 8:
                break
            (size,) = struct.unpack_from("!Q", buf, body)
            body += 8
        if len(buf) - body < size:
            break
        msgs.append(ForkingPickler.loads(buf[body : body + size]))
        start = body + size
    del buf[:start]
    return msgs


def _fail(future: asyncio.Future, exc: BaseException) -> None:
    if not future.done():
        future.set_exception(exc)


@dataclass
class _Inflight:
    """One request awaiting a worker's answer, tracked parent-side."""

    op: str
    label: str | None
    rows: int
    future: asyncio.Future


@dataclass
class _Worker:
    """Parent-side handle of one worker process and its pipe end."""

    id: int
    process: object
    sock: socket.socket
    pid: int = 0
    restarts: int = 0
    jobs: int = 0
    rows: int = 0
    errors: int = 0
    outstanding: set = field(default_factory=set)
    exited: bool = False
    inbox: bytearray = field(default_factory=bytearray)  # a partial frame
    outbox: bytearray = field(default_factory=bytearray)  # not yet written
    respawn: asyncio.Task | None = None  # replaces an exited worker


class WorkerPool:
    """N worker processes serving fleet slots from shared models.

    Owns processes, placement and IPC only: each slot's
    :class:`~repro.serve.dispatcher.BatchingDispatcher` in the fleet
    front-end coalesces requests and calls :meth:`predict` once per
    flush. Construction publishes every slot's arrays into one shared
    segment per slot, spawns the workers and blocks until all of them
    report ready — the pool never serves from cold workers.

    The topology is fixed for the pool's life: slot *i* of
    ``registry.slots()`` belongs to worker *i* mod ``workers``, so any
    N-slot fleet spreads within one slot of even, and a respawned
    worker takes back exactly its predecessor's slots.

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
    """

    def __init__(
        self,
        registry: FleetRegistry,
        *,
        workers: int,
        chunk_size: int | None = None,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.chunk_size = chunk_size
        self._ctx = mp_context(start_method)
        #: The published segment behind each slot's *current* payload —
        #: a hot-swap unlinks exactly the replaced slot's old segment.
        self._slot_regions: dict[str, SharedArtifactRegion] = {}
        self._payloads: dict[str, SlotPayload] = {}
        self._owner: dict[str, int] = {}
        self._req_ids = itertools.count(1)
        self._inflight: dict[int, _Inflight] = {}
        #: The event loop that owns every worker pipe (see :meth:`_bind`).
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self._workers: dict[int, _Worker] = {}
        try:
            for i, slot in enumerate(registry.slots()):
                label = slot.slot.label
                self._payloads[label], self._slot_regions[label] = (
                    build_slot_payload(label, slot.entry.localizer)
                )
                self._owner[label] = i % workers
            for worker_id in range(workers):
                self._workers[worker_id] = self._spawn(
                    worker_id, self._slots_of(worker_id)
                )
        except BaseException:
            self.close()
            raise

    # -- process lifecycle -------------------------------------------------

    def _spawn(self, worker_id: int, labels: list[str]) -> _Worker:
        """Start one worker and block until it reports ready (the one
        spawn path; a respawn runs it in an executor)."""
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
        try:
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
            sock = socket.socket(fileno=os.dup(parent_conn.fileno()))
        finally:
            parent_conn.close()
        sock.setblocking(False)
        return _Worker(id=worker_id, process=process, sock=sock, pid=msg[1])

    def _bind(self) -> asyncio.AbstractEventLoop:
        """Hand every pipe to the running loop if it is a new one; a
        worker that died while no loop watched it respawns first."""
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            self._loop = loop
            for worker in self._workers.values():
                if not worker.exited:
                    self._attach(worker)
                    if not worker.process.is_alive():
                        self._on_worker_exit(worker)
        return loop

    def _attach(self, worker: _Worker) -> None:
        self._loop.add_reader(worker.sock, self._on_readable, worker)
        if worker.outbox:
            self._loop.add_writer(worker.sock, self._flush, worker)

    def _detach(self, worker: _Worker) -> None:
        """Stop watching ``worker``'s pipe and close the parent's end."""
        if worker.exited:
            return
        worker.exited = True
        if self._loop is not None and not self._loop.is_closed():
            self._loop.remove_reader(worker.sock)
            self._loop.remove_writer(worker.sock)
        worker.sock.close()

    def _on_worker_exit(self, worker: _Worker) -> None:
        """EOF or a failed write: fail the stranded requests (a predict
        retries once, see :meth:`_request`) and respawn an owner."""
        if worker.exited:
            return
        self._detach(worker)
        stranded = [
            self._inflight.pop(req_id)
            for req_id in sorted(worker.outstanding)
            if req_id in self._inflight
        ]
        worker.outstanding.clear()
        for entry in stranded:  # close() has already failed its own
            _fail(entry.future, WorkerCrashedError(worker.id, entry.label or "?"))
        if self._workers.get(worker.id) is worker:  # not closed
            worker.restarts += 1
            worker.respawn = self._loop.create_task(self._respawn(worker))

    async def _respawn(self, dead: _Worker) -> _Worker | None:
        """Install ``dead``'s replacement (``None`` once the pool has
        closed), warm from the retained payloads over the still-linked
        segments."""
        loop = asyncio.get_running_loop()
        replacement = await loop.run_in_executor(
            None, self._spawn, dead.id, self._slots_of(dead.id)
        )
        if self._workers.get(dead.id) is not dead:  # closed
            replacement.sock.close()  # EOF: the worker exits on its own
            return None
        replacement.restarts = dead.restarts
        replacement.jobs = dead.jobs
        replacement.rows = dead.rows
        replacement.errors = dead.errors
        self._workers[dead.id] = replacement
        self._attach(replacement)
        return replacement

    async def _await_respawn(self, dead: _Worker, label: str | None) -> _Worker:
        """``dead``'s replacement; a failed respawn raises at once and
        the next call spawns again."""
        respawn = dead.respawn
        if respawn is None or (
            respawn.done()
            and (respawn.cancelled() or respawn.exception() is not None)
        ):
            respawn = dead.respawn = self._loop.create_task(self._respawn(dead))
        try:
            replacement = await asyncio.shield(respawn)
        except Exception as exc:
            raise WorkerCrashedError(dead.id, label or "?") from exc
        if replacement is None:
            raise WorkerCrashedError(dead.id, label or "?")
        return replacement

    # -- pipe I/O (event-loop thread only) ---------------------------------

    def _send(self, worker: _Worker, msg: tuple) -> None:
        idle = not worker.outbox
        worker.outbox += _frame(msg)
        if idle:
            self._flush(worker)

    def _flush(self, worker: _Worker) -> None:
        """Write what the pipe takes now; the loop calls again, keeping
        the order, once a worker busy mid-batch drains it."""
        try:
            del worker.outbox[: worker.sock.send(worker.outbox)]
        except BlockingIOError:
            pass
        except OSError:
            self._on_worker_exit(worker)
            return
        if worker.outbox:
            self._loop.add_writer(worker.sock, self._flush, worker)
        else:
            self._loop.remove_writer(worker.sock)

    def _on_readable(self, worker: _Worker) -> None:
        try:
            data = worker.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._on_worker_exit(worker)
            return
        worker.inbox += data
        for msg in _unframe(worker.inbox):
            if msg[0] == "res":
                self._resolve(worker, msg[1], msg[2], msg[3])

    def _resolve(self, worker: _Worker, req_id: int, ok: bool, value) -> None:
        entry = self._inflight.pop(req_id, None)
        if entry is None:  # a stop's answer, or failed by close()
            return
        worker.outstanding.discard(req_id)
        if entry.op == "predict":
            if ok:
                worker.jobs += 1
                worker.rows += entry.rows
            else:
                worker.errors += 1
        if not ok:
            _fail(entry.future, RuntimeError(str(value)))
        elif not entry.future.done():
            entry.future.set_result(value)

    async def _request(self, op: str, args, *, worker_id: int,
                       label: str | None = None, rows: int = 0):
        """One round trip to ``worker_id``. A crash strands it: a
        predict is re-sent once to that worker's respawn, anything else
        raises."""
        loop = self._bind()
        for attempt in range(MAX_CRASH_RETRIES + 1):
            worker = self._workers[worker_id]
            while worker.exited:  # the replacement may die before we send
                worker = await self._await_respawn(worker, label)
            req_id = next(self._req_ids)
            entry = _Inflight(op, label, rows, loop.create_future())
            self._inflight[req_id] = entry
            worker.outstanding.add(req_id)
            self._send(worker, ("req", req_id, op, args))
            try:
                return await entry.future
            except WorkerCrashedError:
                if op != "predict" or attempt == MAX_CRASH_RETRIES:
                    raise

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
        return await self._request(
            "predict", (label, scans), worker_id=self._owner[label],
            label=label, rows=int(scans.shape[0]),
        )

    async def collect_metrics(self) -> list[MetricsSnapshot]:
        """Every live worker's metrics snapshot (crashed workers skipped).

        Scrape-time pull over the normal pipe protocol: a ``metrics``
        op FIFOs behind in-flight predicts, so a snapshot is a
        consistent point-in-time view of that worker's counters.
        """
        self._bind()
        ids = [w.id for w in self._workers.values() if not w.exited]
        results = await asyncio.gather(
            *(self._request("metrics", None, worker_id=i) for i in ids),
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
        try:
            await self._request(
                "adopt", [payload], worker_id=self._owner[label]
            )
        except WorkerCrashedError:
            # The owner died mid-swap. Its warm respawn *usually*
            # rehydrates from the already-updated payload bundle, but
            # the spawn can race the update and capture the old one —
            # so re-adopt on the replacement (idempotent). If that one
            # dies too, its respawn reads the new version.
            with contextlib.suppress(WorkerCrashedError):
                await self._request(
                    "adopt", [payload], worker_id=self._owner[label]
                )
        old_region.unlink()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop workers, fail pending work, unlink the shared segments.

        Synchronous (a server's shutdown, or no loop running at all):
        the stops are blocking sends.
        """
        if self._closed:
            return
        self._closed = True
        stranded = list(self._inflight.values())
        self._inflight.clear()
        for entry in stranded:
            _fail(entry.future, RuntimeError("worker pool is closed"))
        stop = _frame(("req", next(self._req_ids), "stop", None))
        for worker in self._workers.values():
            if not worker.exited:
                with contextlib.suppress(OSError):  # backlog first, blocking
                    worker.sock.settimeout(5.0)
                    worker.sock.sendall(worker.outbox + stop)
        deadline = time.monotonic() + 10.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            self._detach(worker)
        self._workers.clear()
        # Owner-side unlink: removes the /dev/shm entries. Workers only
        # ever close() their mappings, so this is the single release
        # point the leak test audits.
        for region in self._slot_regions.values():
            region.unlink()
        self._slot_regions.clear()

    # -- introspection -----------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def owner(self, label: str) -> int:
        """Id of the worker serving ``label``."""
        return self._owner[label]

    def _slots_of(self, worker_id: int) -> list[str]:
        """The slot labels ``worker_id`` serves, in registry order."""
        return [
            label for label, owner in self._owner.items() if owner == worker_id
        ]

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
                    "slots": sorted(self._slots_of(worker_id)),
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
            "placement": {
                "strategy": "round-robin",
                "n_workers": self.n_workers,
            },
            "shared_segments": len(self._slot_regions),
            "shared_bytes": int(
                sum(r.nbytes for r in self._slot_regions.values())
            ),
            "workers": self.worker_stats(),
        }
