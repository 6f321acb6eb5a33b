"""The two passes: end-to-end (tracing off) and the traced ledger pass."""

from __future__ import annotations

import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import replay
from harness import (
    LoopResult,
    ServerProcess,
    closed_loop,
    get_json,
    get_text,
    metric_sum,
    parse_prometheus,
)
from report import Metric, Result

#: Closed-loop warm-up before each measured window (connections, caches,
#: the first coalescing timers); its attempts still count as attempted.
WARMUP_S = 0.5


@dataclass
class PassStats:
    """What one closed loop did, from the client's side."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    latency_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    observe_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    throughput_rps: float = 0.0
    #: per-row Euclidean errors of every answered localize request
    errors: list[np.ndarray] = field(default_factory=list)
    #: pool index -> per-row "routed to the true slot" flags (fleet)
    route_hits: dict[int, np.ndarray] = field(default_factory=dict)
    #: pool index -> one verified answer (for the serialize replay)
    answers: dict[int, dict] = field(default_factory=dict)
    #: (client wall ms, server trace) per timed traced localize request
    traces: list[tuple[float, dict]] = field(default_factory=list)

    def mean_error_m(self) -> float:
        return float(np.concatenate(self.errors).mean()) if self.errors else 0.0

    def route_acc(self) -> float:
        rows = list(self.route_hits.values())
        return float(np.concatenate(rows).mean()) if rows else 0.0


def evaluate(workload, pool, loop: LoopResult) -> PassStats:
    """Count every attempt and check every answer against the bench's own."""
    stats = PassStats()
    verdicts: dict[tuple, bool] = {}
    latencies, observes = [], []
    for a in loop.attempts:
        stats.attempted += 1
        entry = pool[a.kind]
        answer = None
        if a.status == 200:
            try:
                answer = json.loads(a.body)
            except ValueError:
                answer = None
        if answer is None:
            stats.failed += 1  # non-200, transport error or unreadable body
            continue
        if entry.is_observe:
            ok = (answer.get("slot") == entry.truth_slots[0]
                  and answer.get("appended") == entry.rows.shape[0])
        else:
            try:
                coords = workload.answer_coords(answer)
                key = (a.kind, coords.tobytes(), json.dumps(answer.get("routing")))
                ok = verdicts.get(key)
                if ok is None:
                    expected = workload.expected(entry, answer)
                    ok = verdicts[key] = bool(
                        coords.shape == expected.shape
                        and np.array_equal(coords, expected)
                    )
            except (KeyError, TypeError, ValueError):
                ok = False
        if not ok:
            stats.failed += 1
            stats.mismatches += 1
            continue
        if entry.is_observe:
            if a.timed:
                observes.append(a.latency_s * 1e3)
            continue
        if a.timed:
            latencies.append(a.latency_s * 1e3)
            stats.errors.append(np.linalg.norm(coords - entry.truth_xy, axis=1))
            if "trace" in answer:
                stats.traces.append((a.latency_s * 1e3, answer["trace"]))
        if a.kind not in stats.answers:
            stats.answers[a.kind] = answer
            if entry.truth_slots is not None:
                routed = [f"{r['building']}/f{r['floor']}" for r in answer["routing"]]
                stats.route_hits[a.kind] = np.asarray(routed) == np.asarray(
                    entry.truth_slots
                )
    stats.latency_ms = np.asarray(latencies)
    stats.observe_ms = np.asarray(observes)
    stats.throughput_rps = len(latencies) / loop.window_s
    return stats


def _start(workload, artifacts: Path, work: Path, root: Path, tag: str) -> ServerProcess:
    """A server on a fresh copy of the artifacts (empty live buffers)."""
    home = work / f"serve_{tag}"
    shutil.copytree(artifacts, home / "models")
    return ServerProcess(
        root, workload.serve_args, home / "models", work / f"serve_{tag}.log",
        home / "tmp",
    ).start()


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _check_digests(workload, port: int) -> tuple[bool, str]:
    served = workload.served_digests(get_json(port, "/models"))
    loaded = {m.digest for m in workload.models}
    return served == loaded, f"served {sorted(served)} vs loaded {sorted(loaded)}"


def _refits(port: int) -> int:
    return int(metric_sum(parse_prometheus(get_text(port, "/metrics")),
                          "repro_live_refits_total"))


def _checks(passes: list[PassStats], digests: tuple[bool, str], refits: int):
    """The consistency checklist, and whether the run's answers are correct."""
    mismatches = sum(s.mismatches for s in passes)
    failed = sum(s.failed for s in passes)
    attempted = sum(s.attempted for s in passes)
    checks = [
        ("answers bit-identical to predict_batched", mismatches == 0,
         f"{mismatches} mismatches"),
        ("served model digests equal the bench's", *digests),
        ("no live refit during the run", refits == 0, f"{refits} refits"),
        ("no failed attempts", failed == 0, f"{failed}/{attempted} failed"),
    ]
    return checks, mismatches == 0 and digests[0] and refits == 0


def run_e2e(workload, seed, seconds, work, root, *, setup_starts) -> Result:
    """Warm starts for ``setup_s``, then one untraced closed loop."""
    artifacts = work / "artifacts"
    workload.prepare(artifacts)
    pool = workload.pool(seed)
    setup: list[float] = []
    server = None
    try:
        for i in range(setup_starts):
            server = _start(workload, artifacts, work, root, f"s{i}")
            setup.append(server.setup_s)
            if i < setup_starts - 1:
                server.stop()
                server = None
        digests = _check_digests(workload, server.port)
        loop = closed_loop(
            server.port, workload.streams(pool, seed, traced=False),
            seconds=seconds, warmup_s=WARMUP_S,
        )
        rss = server.peak_rss_mb()
        refits = _refits(server.port)
    finally:
        if server is not None:
            server.stop()
    stats = evaluate(workload, pool, loop)
    checks, correct = _checks([stats], digests, refits)
    n, n_obs = stats.latency_ms.size, stats.observe_ms.size
    checks.append(("p99 has >= 10 samples beyond it", n >= 1000,
                   f"{n} localize samples"))
    metrics = [
        Metric("setup_s", statistics.median(setup), "s", len(setup)),
        Metric("latency_p50_ms", _pct(stats.latency_ms, 50), "ms", n),
        Metric("throughput_rps", stats.throughput_rps, "1/s", n),
        Metric("mean_error_m", stats.mean_error_m(), "m",
               sum(e.size for e in stats.errors)),
        Metric("rss_mb", rss, "MiB", 1),
    ]
    # The tails are printed, not gated: on a small shared host they
    # amplify its speed drift and move by 20-30% between runs.
    extra = [
        Metric("latency_p95_ms", _pct(stats.latency_ms, 95), "ms", n),
        Metric("latency_p99_ms", _pct(stats.latency_ms, 99), "ms", n),
        Metric("failed_frac", stats.failed / max(stats.attempted, 1), "ratio",
               stats.attempted),
    ]
    if n_obs:
        checks.append(("observe p95 has >= 10 samples beyond it", n_obs >= 200,
                       f"{n_obs} observe samples"))
        extra += [
            Metric("observe_p50_ms", _pct(stats.observe_ms, 50), "ms", n_obs),
            Metric("observe_p95_ms", _pct(stats.observe_ms, 95), "ms", n_obs),
        ]
    return Result(correct, stats.attempted, stats.failed, metrics, extra, checks)


def run_traced(workload, seed, seconds, work, root) -> Result:
    """Untraced then traced loop on one server, scrapes, layer replays."""
    artifacts = work / "artifacts"
    workload.prepare(artifacts)
    pool = workload.pool(seed)
    server = _start(workload, artifacts, work, root, "t")
    try:
        port = server.port
        digests = _check_digests(workload, port)
        metrics_0 = parse_prometheus(get_text(port, "/metrics"))
        rows_0, batches_0 = workload.batch_counters(get_json(port, "/models"))
        # Each pass gets half the run, so a traced run costs what an
        # end-to-end run does.
        loop_u = closed_loop(port, workload.streams(pool, seed, traced=False),
                             seconds=seconds / 2, warmup_s=WARMUP_S)
        rows_1, batches_1 = workload.batch_counters(get_json(port, "/models"))
        metrics_1 = parse_prometheus(get_text(port, "/metrics"))
        loop_t = closed_loop(port, workload.streams(pool, seed, traced=True),
                             seconds=seconds / 2, warmup_s=WARMUP_S)
        metrics_2 = parse_prometheus(get_text(port, "/metrics"))
        health = get_json(port, "/healthz")
    finally:
        server.stop()
    untraced = evaluate(workload, pool, loop_u)
    traced = evaluate(workload, pool, loop_t)
    refits = int(metric_sum(metrics_2, "repro_live_refits_total"))
    checks, correct = _checks([untraced, traced], digests, refits)

    def delta(name: str, a=metrics_1, b=metrics_2) -> float:
        return metric_sum(b, name) - metric_sum(a, name)

    worker_predict_ms = 0.0
    n_predict = delta("repro_worker_predict_seconds_count")
    if n_predict:
        worker_predict_ms = delta("repro_worker_predict_seconds_sum") / n_predict * 1e3
    spans = replay.ledger(traced.traces, worker_predict_ms)
    # /observe requests carry no trace, so both passes sample them alike.
    observe_ms = np.concatenate([untraced.observe_ms, traced.observe_ms])
    stage_sum = sum(v for k, v in spans.items() if k in replay.LEDGER_STAGES)
    wall = spans["wall"]
    checks.append(("stage sum equals client wall time (within 1%)",
                   abs(stage_sum - wall) <= 0.01 * wall,
                   f"{stage_sum:.4f} vs {wall:.4f} ms over {len(traced.traces)} traces"))
    layers = replay.replay_layers(workload, pool, untraced, work / "scratch")
    n_u, n_t = untraced.latency_ms.size, traced.latency_ms.size
    rows_delta, batches_delta = rows_1 - rows_0, batches_1 - batches_0
    fleet = health.get("workers", {})
    per_layer = [
        Metric("serve.wire_ms", spans["wire"], "ms", n_t),
        Metric("serve.parse_ms", layers["serve.parse_ms"], "ms", layers["n_parse"]),
        Metric("serve.serialize_ms", layers["serve.serialize_ms"], "ms",
               layers["n_parse"]),
        Metric("serve.queue_ms", spans["queue"], "ms", n_t),
        Metric("serve.compute_ms", spans["compute"], "ms", n_t),
        Metric("serve.batch_rows", rows_delta / max(batches_delta, 1), "rows",
               batches_delta),
        Metric("serve.unattributed_ms", spans["unattributed"], "ms", n_t),
        Metric("fleet.admission_ms", spans["admission"], "ms", n_t),
        Metric("fleet.route_ms", spans["routing"], "ms", n_t),
        Metric("fleet.scatter_ms", spans["scatter"], "ms", n_t),
        Metric("fleet.ipc_ms", spans["ipc"], "ms", n_t),
        Metric("fleet.route_acc", untraced.route_acc(), "ratio",
               sum(h.size for h in untraced.route_hits.values())),
        Metric("fleet.rejected", float(
            metric_sum(metrics_2, "repro_fleet_rejected_total")
            - metric_sum(metrics_0, "repro_fleet_rejected_total")), "count", 1),
        Metric("fleet.worker_restarts", float(fleet.get("restarts", 0)), "count", 1),
    ]
    per_layer += [
        Metric(name, layers[name], unit, layers["n_core"])
        for name, unit in replay.CORE_METRICS
    ]
    per_layer += [
        Metric("index.candidate_frac", layers["index.candidate_frac"], "ratio",
               layers["n_rows"]),
        Metric("live.append_ms", layers["live.append_ms"], "ms", layers["n_append"]),
        Metric("live.observe_p50_ms", _pct(observe_ms, 50), "ms", observe_ms.size),
        Metric("live.observe_p95_ms", _pct(observe_ms, 95), "ms", observe_ms.size),
        Metric("live.refits", float(refits), "count", 1),
        Metric("store.load_s", layers["store.load_s"], "s", layers["n_load"]),
        Metric("store.fit_s", workload.fit_s, "s", 1),
        Metric("obs.trace_overhead_ms",
               _pct(traced.latency_ms, 50) - _pct(untraced.latency_ms, 50), "ms",
               min(n_u, n_t)),
    ]
    extra = [
        Metric("untraced latency_p50_ms", _pct(untraced.latency_ms, 50), "ms", n_u),
        Metric("traced latency_p50_ms", _pct(traced.latency_ms, 50), "ms", n_t),
        Metric("worker predict (from /metrics)", worker_predict_ms, "ms",
               int(n_predict)),
    ]
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return Result(correct, attempted, failed, per_layer, extra, checks,
                  ledger=replay.ledger_rows(spans, layers))
