"""Per-layer ledger: server spans, and timed replays of each layer's calls.

The span ledger uses means over traced requests so its rows add up to
the mean client wall time exactly; replays report medians of repeated
timed calls on the workload's own request matrices and artifacts.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

#: Rows of the span ledger; their means sum to the mean client wall time.
LEDGER_STAGES = ("wire", "admission", "routing", "queue", "compute", "scatter",
                 "unattributed")

CORE_METRICS = [
    ("core.predict_ms", "ms"),
    ("core.preprocess_ms", "ms"),
    ("nn.conv1_ms", "ms"),
    ("nn.conv2_ms", "ms"),
    ("nn.fc_ms", "ms"),
    ("nn.embed_ms", "ms"),
    ("nn.other_ms", "ms"),
    ("kernels.distance_ms", "ms"),
    ("core.topk_ms", "ms"),
    ("core.vote_ms", "ms"),
    ("core.unattributed_ms", "ms"),
]

_REPLAY_BUDGET_S = 1.5


def ledger(traces: list[tuple[float, dict]], worker_predict_ms: float) -> dict:
    """Mean per-stage self times (ms) over traced requests.

    Fleet slots run in parallel under the ``scatter`` span, so the
    critical slot (largest queue + compute) is the one on the blocking
    path; ``scatter`` is reported as self time around it.
    """
    sums: dict[str, float] = defaultdict(float)
    for wall, trace in traces:
        total = trace["total_ms"]
        by_stage: dict[str, float] = defaultdict(float)
        slots: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for span in trace["spans"]:
            stage = span["stage"]
            if stage in ("queue", "compute"):
                slots[span.get("slot", "_")][stage == "compute"] += span["ms"]
            else:
                by_stage[stage] += span["ms"]
        queue, compute = max(slots.values(), key=sum) if slots else (0.0, 0.0)
        if "scatter" in by_stage:
            scatter = by_stage["scatter"] - queue - compute
            top = by_stage["admission"] + by_stage["routing"] + by_stage["scatter"]
        else:
            scatter = 0.0
            top = by_stage["admission"] + by_stage["routing"] + queue + compute
        sums["wall"] += wall
        sums["total"] += total
        sums["wire"] += wall - total
        sums["admission"] += by_stage["admission"]
        sums["routing"] += by_stage["routing"]
        sums["queue"] += queue
        sums["compute"] += compute
        sums["scatter"] += scatter
        sums["unattributed"] += total - top
    n = max(len(traces), 1)
    out = {k: sums[k] / n for k in ("wall", "total", *LEDGER_STAGES)}
    # In-worker time comes from /metrics; the rest of the parent's
    # compute span is the pipe round trip. No workers: no IPC.
    out["worker_predict"] = worker_predict_ms
    out["ipc"] = out["compute"] - worker_predict_ms if worker_predict_ms else 0.0
    return out


def ledger_rows(spans: dict, layers: dict) -> list[tuple[str, float, str]]:
    """The scorecard's ledger table: stage, mean ms, what is inside it."""
    return [
        ("wire (client wall - server total)", spans["wire"],
         f"read + serialize (~{layers['serve.serialize_ms']:.4f} replayed) "
         "+ write + client"),
        ("admission", spans["admission"], "fleet only"),
        ("routing", spans["routing"], "fleet only"),
        ("queue (coalescing wait)", spans["queue"], "critical slot"),
        ("compute", spans["compute"],
         f"in-worker predict {spans['worker_predict']:.4f}, ipc {spans['ipc']:.4f}"
         if spans["worker_predict"] else
         f"thread hop + predict (~{layers['core.predict_ms']:.4f} replayed)"),
        ("scatter (self)", spans["scatter"], "fleet only"),
        ("unattributed (server total - spans)", spans["unattributed"],
         f"includes parse (~{layers['serve.parse_ms']:.4f} replayed)"),
        ("= client wall", spans["wall"], "mean over traced requests"),
    ]


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _repeat(fn, items: list, budget_s: float = _REPLAY_BUDGET_S,
            min_reps: int = 20, max_reps: int = 2000) -> int:
    """Call ``fn(item)`` cyclically until the time budget is spent."""
    t_end = time.perf_counter() + budget_s
    reps = 0
    while reps < max_reps and (reps < min_reps or time.perf_counter() < t_end):
        fn(items[reps % len(items)])
        reps += 1
    return reps


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _head(localizer):
    """The localizer's KNN head (STONE: ``knn``; KNN: its radio-map head)."""
    return getattr(localizer, "knn", None) or localizer._head


def core_once(localizer, rows: np.ndarray) -> dict[str, float]:
    """One timed pass over every inference stage of ``localizer`` (seconds)."""
    from repro.kernels import resolve_backend
    from repro.nn.layers.activations import ReLU
    from repro.nn.layers.dense import Dense

    t = {name: 0.0 for name, _ in CORE_METRICS}
    t["core.predict_ms"], _ = _timed(localizer.predict_batched, rows)
    head = _head(localizer)
    encoder = getattr(localizer, "encoder", None)
    if encoder is not None:

        t["core.preprocess_ms"], out = _timed(localizer.preprocessor.transform, rows)
        backend = (resolve_backend(localizer.backend)
                   if localizer.backend is not None else None)
        layers = encoder.layers
        skip = False
        out = np.asarray(out, dtype=np.float32)
        # The same layer walk (and Dense+ReLU fusion) Sequential.predict
        # makes, timed per layer.
        for i, layer in enumerate(layers):
            if skip:
                skip = False
                continue
            t0 = time.perf_counter()
            if isinstance(layer, Dense) and backend is not None:
                fuse = i + 1 < len(layers) and type(layers[i + 1]) is ReLU
                out = backend.dense_forward(out, layer, fuse_relu=fuse)
                skip = fuse
            else:
                out, _ = layer.forward(out, training=False)
            key = f"nn.{layer.name}_ms"
            t[key if key in t else "nn.other_ms"] += time.perf_counter() - t0
        queries = out
    else:
        t["core.preprocess_ms"], queries = _timed(np.clip, rows, -100.0, 0.0)
    t["kernels.distance_ms"], _ = _timed(
        resolve_backend(head.backend_name).sq_distances, queries, head._packed
    )
    t_kn, _ = _timed(head.kneighbors, queries)
    t["core.topk_ms"] = t_kn - t["kernels.distance_ms"]
    if encoder is not None:
        # STONE votes an RP; KNN's weighted mean has no public seam and
        # stays in core.unattributed_ms.
        t_loc, _ = _timed(head.predict_location, queries)
        t["core.vote_ms"] = t_loc - t_kn
    return t


def candidate_frac(localizer, rows: np.ndarray) -> np.ndarray:
    """Per query row: reference rows scored / all reference rows."""
    head = _head(localizer)
    index = head.candidate_index
    if getattr(localizer, "encoder", None) is not None:
        queries = localizer.embed_rssi(rows)
    else:
        queries = np.clip(rows, -100.0, 0.0)
    probes = index.probe(queries)
    return np.array([index.rows_for(p).size / index.n_rows for p in probes])


def _slot_groups(workload, entry, answer) -> list[tuple[object, np.ndarray]]:
    """(localizer, rows) per slot the request touched, as the server split it."""
    if "routing" not in answer:
        return [(workload.models[0].localizer, entry.rows)]
    labels = np.asarray([f"{r['building']}/f{r['floor']}" for r in answer["routing"]])
    groups = []
    for label in sorted(set(labels)):
        model = workload.by_label[label]
        a, b = model.ap_range
        groups.append((model.localizer, entry.rows[labels == label, a:b]))
    return groups


def replay_layers(workload, pool, stats, scratch) -> dict:
    """Time each layer's public calls on this run's requests and artifacts."""
    from repro.serve.protocol import (
        RequestContext,
        encode_json,
        location_response,
        locations_response,
        parse_localize,
        parse_localize_batch,
        parse_routing_fields,
        versioned_payload,
    )

    answered = sorted(stats.answers)[:64]
    if not answered:
        raise RuntimeError("no verified answer to replay the layers on")
    out: dict = {}

    # serve: request parsing and response serialization, as the server does.
    parse_t, ser_t = [], []
    n_aps = pool[answered[0]].rows.shape[1]

    def parse_and_serialize(i: int) -> None:
        entry, answer = pool[i], stats.answers[i]
        body = entry.raw.split(b"\r\n\r\n", 1)[1]
        parse = parse_localize if entry.path == "/localize" else parse_localize_batch
        t0 = time.perf_counter()
        ctx = RequestContext("POST", entry.path, body)
        payload = ctx.json()
        parse(payload, n_aps)
        if "routing" in answer:
            parse_routing_fields(payload)
        t1 = time.perf_counter()
        coords = workload.answer_coords(answer)
        if entry.path == "/localize":
            response = location_response(coords)
        else:
            response = locations_response(coords)
        if "routing" in answer:
            response["routing"] = answer["routing"]
        encode_json(versioned_payload(response, versioned=True))
        t2 = time.perf_counter()
        parse_t.append(t1 - t0)
        ser_t.append(t2 - t1)

    _repeat(parse_and_serialize, answered, budget_s=0.5)
    out["serve.parse_ms"] = _median_ms(parse_t)
    out["serve.serialize_ms"] = _median_ms(ser_t)
    out["n_parse"] = len(parse_t)

    # core / nn / kernels: every stage on the request's own batch shape;
    # a fleet request's time is the sum over the slots it touched.
    groups = {i: _slot_groups(workload, pool[i], stats.answers[i]) for i in answered}
    samples: dict[str, list[float]] = defaultdict(list)

    def core_request(i: int) -> None:
        total: dict[str, float] = defaultdict(float)
        for localizer, rows in groups[i]:
            for k, v in core_once(localizer, rows).items():
                total[k] += v
        for k, v in total.items():
            samples[k].append(v)

    for i in answered[:4]:  # warm numpy/BLAS paths before timing
        core_request(i)
    samples.clear()
    out["n_core"] = _repeat(core_request, answered)
    for name, _ in CORE_METRICS[:-1]:
        out[name] = _median_ms(samples[name])
    out["core.unattributed_ms"] = out["core.predict_ms"] - sum(
        out[name] for name, _ in CORE_METRICS[1:-1]
    )

    # index: share of the radio map each query actually scores.
    fracs = [
        candidate_frac(localizer, rows)
        for i in stats.answers for localizer, rows in
        _slot_groups(workload, pool[i], stats.answers[i])
    ]
    fracs = np.concatenate(fracs)
    out["index.candidate_frac"] = float(fracs.mean())
    out["n_rows"] = int(fracs.size)

    # live: one fsync'd 4-row append into a scratch buffer.
    from repro.live.buffer import ObservationBuffer

    observe = [e for e in pool if e.is_observe]
    if observe:
        model = workload.by_label[observe[0].truth_slots[0]]
        a, b = model.ap_range
        block_rows, block_xy = observe[0].rows[:, a:b], observe[0].truth_xy
    else:
        block_rows = np.vstack([pool[i].rows for i in answered])[:4]
        block_xy = np.vstack([pool[i].truth_xy for i in answered])[:4]
    buffer = ObservationBuffer(scratch / "live", "bench/f0", block_rows.shape[1])
    append_t = []
    for _ in range(100):
        dt, _ = _timed(buffer.append, block_rows, block_xy)
        append_t.append(dt)
    out["live.append_ms"] = _median_ms(append_t)
    out["n_append"] = len(append_t)

    # store: warm ModelStore loads of the artifacts the server loaded.
    load_t = []
    for _ in range(3):
        dt, _ = _timed(workload.store_load, scratch.parent / "artifacts")
        load_t.append(dt)
    out["store.load_s"] = statistics.median(load_t)
    out["n_load"] = len(load_t)
    return out
