"""The three serving workloads: what each serves, sends and expects.

Each workload fits its artifacts once in the bench process (the same
library calls ``repro serve`` makes, so the server warm-loads them),
draws a request pool from the workload seed across every test month,
and knows the bit-identical answer to every request: ``predict_batched``
on the same artifacts, for fleets on the slot the response names.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from harness import http_request

#: Which end-to-end metric each per-layer metric should move, and where.
#: "no move" entries are the predictions a later change is checked
#: against (a layer speed-up must leave them flat).
PREDICTIONS = [
    ("serve.wire_ms", "latency_p50_ms", "knn-lone", "move"),
    ("serve.parse_ms", "latency_p50_ms", "knn-lone, stone-batch64", "move"),
    ("serve.serialize_ms", "latency_p50_ms", "knn-lone, stone-batch64", "move"),
    ("serve.queue_ms", "latency_p50_ms", "knn-lone", "move"),
    ("serve.batch_rows", "throughput_rps", "stone-batch64, fleet-mixed", "move"),
    ("fleet.admission_ms", "latency_p50_ms", "fleet-mixed", "move"),
    ("fleet.route_ms", "latency_p50_ms", "fleet-mixed", "move"),
    ("fleet.scatter_ms", "latency_p50_ms", "fleet-mixed", "move"),
    ("fleet.ipc_ms", "latency_p50_ms", "fleet-mixed", "move"),
    ("fleet.route_acc", "mean_error_m", "fleet-mixed", "move"),
    ("fleet.rejected", "failed (attempted/failed)", "all", "move"),
    ("fleet.worker_restarts", "failed (attempted/failed)", "all", "move"),
    ("core.* / nn.* / kernels.*", "latency_p50_ms, throughput_rps", "stone-batch64", "move"),
    ("core.* / nn.* / kernels.*", "latency_p50_ms, throughput_rps", "knn-lone", "no move"),
    ("index.candidate_frac", "latency_p50_ms", "fleet-mixed", "move"),
    ("live.append_ms", "live.observe_p50_ms", "fleet-mixed", "move"),
    ("live.append_ms", "latency_p50_ms", "fleet-mixed", "no move"),
    ("store.load_s", "setup_s", "all", "move"),
    ("obs.trace_overhead_ms", "(guard: tracing must stay cheap)", "all", "-"),
]


@dataclass
class PoolEntry:
    """One distinct request the clients may send."""

    path: str
    body: dict
    rows: np.ndarray  # scan matrix exactly as the server validates it
    truth_xy: np.ndarray
    truth_slots: list[str] | None = None
    expected: np.ndarray | None = None  # single-model answers
    raw: bytes = field(init=False)
    raw_traced: bytes = field(init=False)

    def __post_init__(self) -> None:
        self.raw = http_request("POST", self.path, json.dumps(self.body).encode())
        if self.path != "/observe":
            traced = dict(self.body, trace=True)
            self.raw_traced = http_request(
                "POST", self.path, json.dumps(traced).encode()
            )
        else:
            self.raw_traced = self.raw

    @property
    def is_observe(self) -> bool:
        return self.path == "/observe"


@dataclass
class SlotModel:
    """One fitted model the bench holds: the served slot's twin."""

    label: str
    localizer: object
    digest: str
    suite: object
    index: object = None
    ap_range: tuple[int, int] | None = None


@dataclass
class Workload:
    name: str
    why: str
    clients: int
    mix: str
    serve_args: list[str]
    models: list[SlotModel] = field(default_factory=list)
    fit_s: float = 0.0

    # -- hooks -------------------------------------------------------------

    def prepare(self, model_dir: Path) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def pool(self, seed: int) -> list[PoolEntry]:  # pragma: no cover
        raise NotImplementedError

    def streams(self, pool: list[PoolEntry], seed: int, traced: bool):
        """Per-client cyclic ``(pool_index, raw)`` sequences."""
        raws = [e.raw_traced if traced else e.raw for e in pool]
        return [
            [(i, raws[i]) for i in range(c, len(pool), self.clients)]
            for c in range(self.clients)
        ]

    def expected(self, entry: PoolEntry, answer: dict) -> np.ndarray:
        return entry.expected

    def served_digests(self, models_json: dict) -> set[str]:
        return {m["digest"] for m in models_json["models"]}

    def batch_counters(self, models_json: dict) -> tuple[int, int]:
        """``(rows, batches)`` the server's dispatchers have flushed."""
        d = models_json["dispatcher"]
        return d["rows"], d["batches"]

    def store_load(self, model_dir: Path) -> None:
        """One warm ``ModelStore`` load of every artifact this serves."""
        from repro.serve.store import ModelStore

        store = ModelStore(model_dir)
        for spec in self._store_keys():
            entry = store.get_or_fit(**spec)
            if entry.source != "disk":
                raise RuntimeError(f"{self.name}: artifact missing, store refit")

    def _store_keys(self) -> list[dict]:  # pragma: no cover - abstract
        raise NotImplementedError


def _cover(n_rows: int, batch: int, seed: int) -> np.ndarray:
    """Request row indices: a seeded permutation of every test row.

    Every row of every test month is sent once per pass over the pool
    (the last request wraps around), so ``mean_error_m`` tracks the mean
    over the whole test set and the seed changes only which rows share
    a request and in what order.
    """
    perm = np.random.default_rng([seed, 1]).permutation(n_rows)
    n_requests = -(-n_rows // batch)
    return np.resize(perm, n_requests * batch).reshape(n_requests, batch)


class SingleModelWorkload(Workload):
    """One ``office`` model behind ``repro serve office``."""

    def __init__(self, name, why, *, framework, backend, batch, clients, mix):
        args = ["office", "--framework", framework, "--fast"]
        if backend:
            args += ["--backend", backend]
        super().__init__(name, why, clients, mix, args)
        self.framework = framework
        self.backend = backend
        self.batch = batch

    @cached_property
    def suite(self):
        from repro.datasets import generate_path_suite

        return generate_path_suite("office", 0)

    def _store_keys(self) -> list[dict]:
        return [dict(framework=self.framework, suite=self.suite, seed=0,
                     fast=True, backend=self.backend)]

    def prepare(self, model_dir: Path) -> None:
        from repro.serve.store import ModelStore

        keys = self._store_keys()[0]  # generates the suite outside the timing
        t0 = time.perf_counter()
        entry = ModelStore(model_dir).get_or_fit(**keys)
        self.fit_s = time.perf_counter() - t0
        self.models = [
            SlotModel("_", entry.localizer, entry.key.digest[:16], self.suite)
        ]

    def pool(self, seed: int) -> list[PoolEntry]:
        from repro.serve.protocol import as_scan_matrix

        suite = self.suite
        scans = np.vstack([ds.rssi for ds in suite.test_epochs])
        xy = np.vstack([ds.locations for ds in suite.test_epochs])
        localizer = self.models[0].localizer
        pool = []
        for rows_idx in _cover(scans.shape[0], self.batch, seed):
            raw_rows = scans[rows_idx]
            if self.batch == 1:
                body = {"api_version": 1, "rssi": raw_rows[0].tolist()}
                path = "/localize"
            else:
                body = {"api_version": 1, "rssi": raw_rows.tolist()}
                path = "/localize_batch"
            rows = as_scan_matrix(raw_rows, suite.n_aps)
            pool.append(PoolEntry(
                path, body, rows, xy[rows_idx],
                expected=localizer.predict_batched(rows),
            ))
        return pool

    @staticmethod
    def answer_coords(answer: dict) -> np.ndarray:
        if "location" in answer:
            return np.asarray([answer["location"]], dtype=np.float64)
        return np.asarray(answer["locations"], dtype=np.float64)


class FleetWorkload(Workload):
    """A two-building fleet behind ``repro serve --fleet`` with workers."""

    SPEC = "HQ:2,LAB:2:kmeans"
    OBSERVE_SHARE = 0.10
    ROWS = 4

    def __init__(self, name, why, *, clients, mix):
        args = ["--fleet", self.SPEC, "--framework", "KNN", "--fast",
                "--workers", "2"]
        super().__init__(name, why, clients, mix, args)
        self.registry = None

    def _fleet_spec(self, model_dir: Path):
        from repro.api import FleetSpec

        return FleetSpec.from_string(
            self.SPEC, framework="KNN", seed=0, fast=True,
            model_dir=str(model_dir),
        )

    def prepare(self, model_dir: Path) -> None:
        t0 = time.perf_counter()
        self.registry = self._fleet_spec(model_dir).build_registry()
        self.fit_s = time.perf_counter() - t0
        self.models = []
        for building in self.registry.buildings:
            for floor in building.floors:
                slot = building.slots[floor]
                self.models.append(SlotModel(
                    slot.slot.label, slot.entry.localizer,
                    slot.entry.key.digest[:16], slot.suite, slot.index,
                    (building.ap_start, building.ap_stop),
                ))
        self.by_label = {m.label: m for m in self.models}

    def _store_keys(self) -> list[dict]:
        keys = []
        for m in self.models:
            keys.append(dict(framework="KNN", suite=m.suite, seed=0, fast=True,
                             index=m.index, backend=None))
        return keys

    def pool(self, seed: int) -> list[PoolEntry]:
        from repro.fleet.experiment import fleet_epoch_traffic
        from repro.serve.protocol import as_scan_matrix

        reg = self.registry
        n_epochs = min(b.suite.n_epochs for b in reg.buildings)
        parts = [fleet_epoch_traffic(reg, e) for e in range(n_epochs)]
        scans = np.vstack([p[0] for p in parts])
        names = [b.name for b in reg.buildings]
        labels = np.array([
            f"{names[b]}/f{f}"
            for p in parts for b, f in zip(p[1], p[2])
        ])
        xy = np.vstack([p[3] for p in parts])
        rng = np.random.default_rng([seed, 2])
        pool: list[PoolEntry] = []
        for idx in _cover(scans.shape[0], self.ROWS, seed):
            body = {"api_version": 1, "rssi": scans[idx].tolist()}
            pool.append(PoolEntry(
                "/localize_batch", body, as_scan_matrix(scans[idx], reg.n_aps),
                xy[idx], truth_slots=list(labels[idx]),
            ))
        slot_labels = [m.label for m in self.models]
        for _ in range(256):
            label = slot_labels[rng.integers(len(slot_labels))]
            idx = rng.choice(np.flatnonzero(labels == label), size=self.ROWS)
            building, floor = label.split("/f")
            body = {
                "api_version": 1, "rssi": scans[idx].tolist(),
                "locations": xy[idx].tolist(),
                "building": building, "floor": int(floor),
            }
            pool.append(PoolEntry(
                "/observe", body, as_scan_matrix(scans[idx], reg.n_aps),
                xy[idx], truth_slots=[label] * self.ROWS,
            ))
        return pool

    def streams(self, pool: list[PoolEntry], seed: int, traced: bool):
        localize = [i for i, e in enumerate(pool) if not e.is_observe]
        observe = [i for i, e in enumerate(pool) if e.is_observe]
        out = []
        for c in range(self.clients):
            rng = np.random.default_rng([seed, 3, c])
            n = 20000
            kinds = rng.random(n) < self.OBSERVE_SHARE
            picks = np.where(
                kinds,
                np.asarray(observe)[rng.integers(len(observe), size=n)],
                np.asarray(localize)[rng.integers(len(localize), size=n)],
            )
            out.append([
                (int(i), pool[i].raw_traced if traced else pool[i].raw)
                for i in picks
            ])
        return out

    def expected(self, entry: PoolEntry, answer: dict) -> np.ndarray:
        """Answers recomputed on the slot the response's routing names."""
        routing = answer["routing"]
        out = np.empty((entry.rows.shape[0], 2), dtype=np.float64)
        labels = [f"{r['building']}/f{r['floor']}" for r in routing]
        for label in sorted(set(labels)):
            rows = np.flatnonzero(np.asarray(labels) == label)
            model = self.by_label[label]
            a, b = model.ap_range
            out[rows] = model.localizer.predict_batched(entry.rows[rows, a:b])
        return out

    def served_digests(self, models_json: dict) -> set[str]:
        return {s["digest"] for s in models_json["slots"].values()}

    def batch_counters(self, models_json: dict) -> tuple[int, int]:
        rows = batches = 0
        for s in models_json["slots"].values():
            rows += s["dispatcher"]["rows"]
            batches += s["dispatcher"]["batches"]
        return rows, batches

    @staticmethod
    def answer_coords(answer: dict) -> np.ndarray:
        return np.asarray(answer["locations"], dtype=np.float64)


WORKLOADS = {
    "knn-lone": lambda: SingleModelWorkload(
        "knn-lone",
        "compute is ~0.03 ms of a ~2 ms request, so wire, parse, coalescing "
        "wait and serialization are nearly the whole cost",
        framework="KNN", backend=None, batch=1, clients=1,
        mix="1 connection, 100% /localize of 1 scan",
    ),
    "stone-batch64": lambda: SingleModelWorkload(
        "stone-batch64",
        "preprocessing, the encoder (conv2 dominates) and distance dominate, "
        "so kernel and Conv2D work show here and serving changes barely do",
        framework="STONE", backend="blas", batch=64, clients=1,
        mix="1 connection, 100% /localize_batch of 64 scans",
    ),
    "fleet-mixed": lambda: FleetWorkload(
        "fleet-mixed",
        "admission, routing, worker IPC, sharded probes and fsync'd writes "
        "do the work while the encoder idles; writes run beside reads",
        clients=2,
        mix="2 connections, 90% /localize_batch of 4 unpinned scans, "
        "10% /observe of 4 scans pinned to their slot",
    ),
}
