"""Asyncio load generator for fleet dispatchers.

Drives a :class:`~repro.fleet.frontend.FleetDispatcher` with
ground-truth-labelled synthetic traffic and measures what operators
actually page on: p50/p99/p999 latency, achieved vs offered throughput
(saturation), and the taxonomy of rejections (429 overloads, 400
rejects, unknown-slot pins).

Arrival-process knobs
    * ``mode="closed"`` — N concurrent clients, each waiting for its
      answer before sending the next request (classic closed loop; the
      latency numbers are uncontaminated by coordinated omission).
    * ``mode="open"`` — requests fire on a fixed schedule regardless of
      completions, in bursts of ``burst`` every ``burst/rate_rps``
      seconds. Offered load above capacity piles into the admission
      queue and surfaces as 429s — exactly the backpressure path the
      fleet promises to exercise, which a closed loop can never reach.
    * ``zipf_s`` — hot-slot skew: slot popularity ~ 1/rank^s, so a few
      slots take most rows (s=0 is uniform). Skew is what makes
      per-slot micro-batching earn its keep.

Chaos knobs (:class:`ChaosSpec`) mix payload-level malformations into
the stream: wrong-width scan matrices (400-class rejects), batches that
can never be admitted, and slot pins to buildings/floors that do not
exist. Wire-level chaos (framing, oversized bodies, dropped
keep-alives) lives in :mod:`repro.synth.chaos` and replays against a
live HTTP server instead.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from ..fleet.frontend import FleetDispatcher, FleetOverloadError
from ..fleet.experiment import fleet_epoch_traffic
from ..fleet.registry import FleetRegistry
from ..obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, histogram_percentile

#: Outcome taxonomy keys (fixed so reports are always comparable).
OUTCOMES = ("ok", "observed", "overload", "rejected", "unknown_slot")


@dataclass(frozen=True)
class ChaosSpec:
    """Fractions of hostile requests mixed into the stream."""

    #: Wrong-width scan matrices — the dispatcher must answer a clean
    #: ValueError (HTTP 400), never crash or wedge a slot.
    malformed: float = 0.0
    #: Batches of ``max_pending_rows + 1`` rows — structurally
    #: unservable, a 400 (retrying would loop forever), never a 429.
    oversized: float = 0.0
    #: Slot pins naming buildings/floors that do not exist (KeyError →
    #: HTTP 400).
    misroute: float = 0.0
    #: Malformed/mislabeled ``/observe`` payloads (out-of-band RSSI,
    #: location-count mismatches) — a clean 400, and the slot's
    #: observation buffer must come through unpoisoned.
    bad_observation: float = 0.0

    def __post_init__(self) -> None:
        for name in ("malformed", "oversized", "misroute", "bad_observation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.total > 1.0:
            raise ValueError("chaos fractions must sum to <= 1")

    @property
    def total(self) -> float:
        return (
            self.malformed + self.oversized + self.misroute
            + self.bad_observation
        )


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation run: arrival process + traffic mix."""

    mode: str = "closed"
    #: Closed-loop concurrency (ignored in open mode).
    clients: int = 8
    #: Open-loop offered request rate (ignored in closed mode).
    rate_rps: float = 200.0
    #: Open-loop burst-train length: ``burst`` requests fire together
    #: every ``burst / rate_rps`` seconds.
    burst: int = 1
    duration_s: float = 1.0
    batch_rows: int = 4
    #: Hot-slot Zipf exponent (0 = uniform slot popularity).
    zipf_s: float = 0.0
    #: Fraction of requests that pin their true slot instead of letting
    #: the router classify.
    pin_fraction: float = 0.0
    #: Fraction of well-formed requests sent as labeled ``/observe``
    #: ingests (ground-truth scans into one slot's live buffer) instead
    #: of localizations — the live-update loop under load.
    observe_fraction: float = 0.0
    #: Which test epoch's traffic to replay (0-based).
    epoch: int = 0
    seed: int = 0
    chaos: ChaosSpec = field(default_factory=ChaosSpec)

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError('mode must be "closed" or "open"')
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        if not 0.0 <= self.pin_fraction <= 1.0:
            raise ValueError("pin_fraction must be in [0, 1]")
        if not 0.0 <= self.observe_fraction <= 1.0:
            raise ValueError("observe_fraction must be in [0, 1]")


class TrafficPool:
    """Ground-truth fleet traffic with optional hot-slot Zipf skew.

    Rows come from :func:`~repro.fleet.experiment.fleet_epoch_traffic`
    (every building's scans embedded into the fleet AP namespace);
    ``zipf_s > 0`` reweights *slot* popularity as ``1/rank^s`` in slot
    order, then spreads each slot's share uniformly over its rows.
    """

    def __init__(
        self,
        registry: FleetRegistry,
        *,
        epoch: int = 0,
        zipf_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        scans, true_b, true_f, true_xy = fleet_epoch_traffic(registry, epoch)
        self.scans = scans
        self.true_building = true_b
        self.true_floor = true_f
        self.true_xy = true_xy
        self.building_names = [b.name for b in registry.buildings]
        self._slot_rows: dict[tuple[int, int], np.ndarray] = {}
        self._rng = np.random.default_rng(seed)
        n = scans.shape[0]
        if zipf_s > 0:
            slot_key = true_b.astype(np.int64) * 10_000 + true_f
            slots, inverse, counts = np.unique(
                slot_key, return_inverse=True, return_counts=True
            )
            slot_weight = 1.0 / np.power(
                np.arange(1, slots.shape[0] + 1, dtype=np.float64), zipf_s
            )
            row_p = slot_weight[inverse] / counts[inverse]
            self._p = row_p / row_p.sum()
        else:
            self._p = None
        self.n_rows = n

    def sample(self, rows: int) -> tuple[np.ndarray, str, int]:
        """``rows`` skew-weighted scan rows + the first row's true slot."""
        idx = self._rng.choice(self.n_rows, size=rows, p=self._p)
        first = int(idx[0])
        return (
            self.scans[idx],
            self.building_names[int(self.true_building[first])],
            int(self.true_floor[first]),
        )

    def sample_observation(
        self, rows: int
    ) -> tuple[np.ndarray, str, int, np.ndarray]:
        """``rows`` labeled scans, all from ONE skew-weighted slot.

        Observations are facts about a single deployment slot, so —
        unlike :meth:`sample`'s mixed-slot localization batches — every
        row here shares the picked slot, and its ground-truth ``(n, 2)``
        coordinates ride along as the label.
        """
        pick = int(self._rng.choice(self.n_rows, p=self._p))
        key = (int(self.true_building[pick]), int(self.true_floor[pick]))
        pool = self._slot_rows.get(key)
        if pool is None:
            pool = np.flatnonzero(
                (self.true_building == key[0]) & (self.true_floor == key[1])
            )
            self._slot_rows[key] = pool
        idx = self._rng.choice(pool, size=rows)
        return (
            self.scans[idx],
            self.building_names[key[0]],
            key[1],
            self.true_xy[idx],
        )


@dataclass
class LoadReport:
    """What one load run measured."""

    mode: str
    duration_s: float
    offered_requests: int
    outcomes: dict
    ok_rows: int
    offered_rps: float
    throughput_rps: float
    rows_per_s: float
    #: Achieved / offered request rate — 1.0 until the fleet saturates.
    saturation: float
    latency_ms: dict
    #: Fixed-bucket latency histogram on the *same* bucket schema as the
    #: servers' ``/metrics`` (``repro.obs.DEFAULT_LATENCY_BUCKETS``), so
    #: stress-lab numbers line up with live scrapes; carries the raw
    #: ``buckets``/``counts``/``sum``/``count`` plus bucket-derived
    #: ``p50_ms``/``p99_ms``/``p999_ms``.
    latency_hist: dict = field(default_factory=dict)
    #: The run's own metrics registry, snapshot as a JSON-ready dict
    #: (``repro_load_request_seconds``, ``repro_load_outcomes_total``).
    metrics: dict = field(default_factory=dict)
    #: Labeled observation rows ingested through the live loop.
    observed_rows: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "duration_s": round(self.duration_s, 4),
            "offered_requests": self.offered_requests,
            "outcomes": dict(self.outcomes),
            "ok_rows": self.ok_rows,
            "observed_rows": self.observed_rows,
            "offered_rps": round(self.offered_rps, 2),
            "throughput_rps": round(self.throughput_rps, 2),
            "rows_per_s": round(self.rows_per_s, 2),
            "saturation": round(self.saturation, 4),
            "latency_ms": {k: round(v, 3) for k, v in self.latency_ms.items()},
            "latency_hist": dict(self.latency_hist),
            "metrics": dict(self.metrics),
        }

    def describe(self) -> str:
        lat = self.latency_ms
        out = " ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items()))
        return "\n".join(
            [
                f"load [{self.mode}]: {self.offered_requests} requests in "
                f"{self.duration_s:.2f}s ({self.offered_rps:.0f} rps offered)",
                f"  outcomes: {out}",
                f"  throughput: {self.throughput_rps:.0f} rps ok "
                f"({self.rows_per_s:.0f} rows/s, "
                f"saturation {self.saturation:.2f})",
                f"  latency ms: p50={lat['p50']:.2f} p99={lat['p99']:.2f} "
                f"p999={lat['p999']:.2f} max={lat['max']:.2f}",
            ]
        )


def _latency_summary(latencies_s: list[float]) -> dict:
    if not latencies_s:
        return {"p50": 0.0, "p99": 0.0, "p999": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(latencies_s, dtype=np.float64) * 1e3
    p50, p99, p999 = np.percentile(arr, [50.0, 99.0, 99.9])
    return {
        "p50": float(p50),
        "p99": float(p99),
        "p999": float(p999),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


class _Driver:
    """One load run's mutable state (request factory + recorder)."""

    def __init__(
        self,
        dispatcher: FleetDispatcher,
        pool: TrafficPool,
        load: LoadSpec,
        live=None,
    ) -> None:
        self.dispatcher = dispatcher
        self.pool = pool
        self.load = load
        self.live = live
        self.rng = np.random.default_rng(np.random.SeedSequence([load.seed, 1]))
        self.latencies_s: list[float] = []
        self.outcomes: dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        self.ok_rows = 0
        self.observed_rows = 0
        # Record into the same bucket schema the servers expose on
        # /metrics so stress-lab histograms and live scrapes compare
        # bucket-for-bucket.
        self.metrics = MetricsRegistry()
        self._hist = self.metrics.histogram(
            "repro_load_request_seconds",
            "End-to-end load-generator latency of successful requests.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._outcome_counter = self.metrics.counter(
            "repro_load_outcomes_total",
            "Load-generator request outcomes by taxonomy key.",
            ("outcome",),
        )
        # Materialize every cell up front so even an all-chaos (or
        # zero-request) run reports the full schema.
        self._hist.labels()
        for outcome in OUTCOMES:
            self._outcome_counter.labels(outcome)
        n_aps = pool.scans.shape[1]
        # Chaos payloads are constant; build each shape once.
        self._malformed = np.full((load.batch_rows, n_aps + 1), -70.0)
        self._oversized = np.full(
            (dispatcher.max_pending_rows + 1, n_aps), -70.0
        )

    async def _observe(self, *, hostile: bool) -> None:
        """One labeled ingest (possibly poisoned) through the live loop."""
        scans, building, floor, xy = self.pool.sample_observation(
            self.load.batch_rows
        )
        if hostile:
            # Alternate the two observe failure modes: out-of-band RSSI
            # (a physically impossible +5 dBm reading) and a label-count
            # mismatch. Both must 400 without poisoning the buffer.
            if float(self.rng.random()) < 0.5:
                scans = scans.copy()
                scans[0, 0] = 5.0
            else:
                xy = xy[:-1] if xy.shape[0] > 1 else np.empty((0, 2))
        try:
            await self.live.observe(scans, xy, building=building, floor=floor)
        except (ValueError, KeyError):
            self.outcomes["rejected"] += 1
            self._outcome_counter.labels("rejected").inc()
        else:
            self.outcomes["observed"] += 1
            self._outcome_counter.labels("observed").inc()
            self.observed_rows += scans.shape[0]

    async def issue(self) -> None:
        """Send one request (possibly hostile) and record its outcome."""
        chaos = self.load.chaos
        draw = float(self.rng.random())
        scans, building, floor = None, None, None
        if draw < chaos.malformed:
            scans = self._malformed
        elif draw < chaos.malformed + chaos.oversized:
            scans = self._oversized
        elif draw < chaos.malformed + chaos.oversized + chaos.misroute:
            scans = self.pool.sample(self.load.batch_rows)[0]
            building, floor = "no-such-building", 0
        elif draw < chaos.total and self.live is not None:
            await self._observe(hostile=True)
            return
        else:
            if (
                self.live is not None
                and self.load.observe_fraction
                and float(self.rng.random()) < self.load.observe_fraction
            ):
                await self._observe(hostile=False)
                return
            scans, true_building, true_floor = self.pool.sample(
                self.load.batch_rows
            )
            if self.load.pin_fraction and (
                float(self.rng.random()) < self.load.pin_fraction
            ):
                building, floor = true_building, true_floor
        start = time.perf_counter()
        try:
            await self.dispatcher.localize(scans, building=building, floor=floor)
        except FleetOverloadError:
            self.outcomes["overload"] += 1
            self._outcome_counter.labels("overload").inc()
        except KeyError:
            self.outcomes["unknown_slot"] += 1
            self._outcome_counter.labels("unknown_slot").inc()
        except ValueError:
            self.outcomes["rejected"] += 1
            self._outcome_counter.labels("rejected").inc()
        else:
            elapsed = time.perf_counter() - start
            self.outcomes["ok"] += 1
            self._outcome_counter.labels("ok").inc()
            self.ok_rows += scans.shape[0]
            self.latencies_s.append(elapsed)
            self._hist.observe(elapsed)

    async def run_closed(self) -> int:
        deadline = time.perf_counter() + self.load.duration_s

        async def client() -> int:
            sent = 0
            while time.perf_counter() < deadline:
                await self.issue()
                sent += 1
            return sent

        counts = await asyncio.gather(
            *(client() for _ in range(self.load.clients))
        )
        return sum(counts)

    async def run_open(self) -> int:
        deadline = time.perf_counter() + self.load.duration_s
        interval = self.load.burst / self.load.rate_rps
        tasks: list[asyncio.Task] = []
        next_fire = time.perf_counter()
        while time.perf_counter() < deadline:
            tasks.extend(
                asyncio.create_task(self.issue())
                for _ in range(self.load.burst)
            )
            next_fire += interval
            delay = next_fire - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        await asyncio.gather(*tasks)
        return len(tasks)


async def run_load_async(
    dispatcher: FleetDispatcher,
    pool: TrafficPool,
    load: LoadSpec,
    *,
    live=None,
) -> LoadReport:
    """Run one load spec against an already-running dispatcher.

    ``live`` is the :class:`~repro.live.LiveManager` behind the
    ``observe_fraction`` / ``chaos.bad_observation`` traffic; without
    one those requests degrade to plain localizations.
    """
    driver = _Driver(dispatcher, pool, load, live=live)
    start = time.perf_counter()
    if load.mode == "closed":
        offered = await driver.run_closed()
    else:
        offered = await driver.run_open()
    if live is not None:
        # Ingest-triggered drift tasks must settle inside the measured
        # window's accounting, not leak into the caller's loop teardown.
        await live.drain()
    elapsed = max(time.perf_counter() - start, 1e-9)
    ok = driver.outcomes["ok"]
    snapshot = driver.metrics.snapshot()
    hist_data = snapshot.metrics["repro_load_request_seconds"]["children"][()]
    latency_hist = {
        "buckets": list(hist_data["buckets"]),
        "counts": list(hist_data["counts"]),
        "sum": hist_data["sum"],
        "count": hist_data["count"],
        # Bucket-derived estimates (what a Prometheus query would see),
        # deliberately alongside the exact percentiles in latency_ms.
        "p50_ms": round(histogram_percentile(hist_data, 0.5) * 1e3, 3),
        "p99_ms": round(histogram_percentile(hist_data, 0.99) * 1e3, 3),
        "p999_ms": round(histogram_percentile(hist_data, 0.999) * 1e3, 3),
    }
    return LoadReport(
        mode=load.mode,
        duration_s=elapsed,
        offered_requests=offered,
        outcomes=driver.outcomes,
        ok_rows=driver.ok_rows,
        offered_rps=offered / elapsed,
        throughput_rps=ok / elapsed,
        rows_per_s=driver.ok_rows / elapsed,
        # Observes are achieved work too — without them an observe-heavy
        # run would read as saturated when nothing was dropped.
        saturation=((ok + driver.outcomes["observed"]) / offered)
        if offered else 0.0,
        latency_ms=_latency_summary(driver.latencies_s),
        latency_hist=latency_hist,
        metrics=snapshot.as_dict(),
        observed_rows=driver.observed_rows,
    )


def run_load(
    registry: FleetRegistry,
    load: LoadSpec,
    *,
    dispatcher: FleetDispatcher | None = None,
    live=None,
    batch_window_ms: float = 1.0,
    max_batch: int = 256,
    max_pending_rows: int | None = None,
) -> LoadReport:
    """Stand up a dispatcher (unless given one) and run one load spec.

    A dispatcher built here is closed before returning; a caller-owned
    ``dispatcher`` is left running (its stats then accumulate across
    runs, which is what the stress bench's escalation loop wants).
    When the spec asks for observe traffic and no ``live`` manager is
    supplied, a default-policy one is created (and closed) here.
    """
    pool = TrafficPool(
        registry, epoch=load.epoch, zipf_s=load.zipf_s, seed=load.seed
    )
    owned = dispatcher is None
    if owned:
        kwargs: dict = dict(batch_window_ms=batch_window_ms, max_batch=max_batch)
        if max_pending_rows is not None:
            kwargs["max_pending_rows"] = max_pending_rows
        dispatcher = FleetDispatcher(registry, **kwargs)
    owned_live = live is None and (
        load.observe_fraction > 0 or load.chaos.bad_observation > 0
    )
    if owned_live:
        from ..live import LiveManager

        live = LiveManager(dispatcher)
    try:
        return asyncio.run(run_load_async(dispatcher, pool, load, live=live))
    finally:
        if owned_live:
            live.close()
        if owned:
            dispatcher.close()


__all__ = [
    "OUTCOMES",
    "ChaosSpec",
    "LoadReport",
    "LoadSpec",
    "TrafficPool",
    "run_load",
    "run_load_async",
]
