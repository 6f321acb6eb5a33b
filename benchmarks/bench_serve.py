#!/usr/bin/env python
"""Benchmark the serving layer's async micro-batching dispatcher.

Synthetic load: ``--clients`` concurrent closed-loop clients each submit
``--requests`` single-scan localization requests back-to-back (a client
sends its next scan the moment the previous answer arrives — the shape
of phone traffic against a deployed localizer). Three measurements:

1. **Single-request dispatch baseline** — ``max_batch=1`` forces every
   request through its own ``predict`` call; this is the per-query loop
   a naive server runs.
2. **Micro-batched dispatch** — the same load with coalescing enabled,
   swept over ``--windows`` values of ``batch_window_ms``. The window is
   an upper bound on waiting behind an in-flight batch, not an idle
   wait: an idle dispatcher flushes on the next loop tick, and rows
   coalesce while a batch computes. Reports throughput and p50/p99
   latency per bound, plus how many rows the dispatcher actually
   coalesced per inference call.
3. **Identity check** — coalesced answers must be bit-identical to
   ``predict_batched`` on the same fitted model (the serving
   acceptance bar).

Exit status is non-zero unless micro-batching sustains >= 3x the
single-request throughput for the batched framework AND the identity
check holds.

Run standalone (pytest does not collect ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py --clients 64 --framework KNN
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from _bench_common import write_json_report

from repro.datasets import SuiteConfig, generate_path_suite
from repro.serve import BatchingDispatcher, ModelStore


async def _client(dispatcher, scans, latencies) -> np.ndarray:
    """One closed-loop client: submit each scan, await, record latency."""
    answers = np.empty((scans.shape[0], 2))
    for i, scan in enumerate(scans):
        t0 = time.perf_counter()
        answers[i] = (await dispatcher.localize(scan))[0]
        latencies.append(time.perf_counter() - t0)
    return answers


def run_load(localizer, scans_per_client, *, batch_window_ms, max_batch):
    """Drive one load scenario; returns (throughput_rps, latencies, stats, out)."""
    dispatcher = BatchingDispatcher(
        localizer, batch_window_ms=batch_window_ms, max_batch=max_batch
    )
    latencies: list[float] = []

    async def go():
        return await asyncio.gather(
            *[
                _client(dispatcher, scans, latencies)
                for scans in scans_per_client
            ]
        )

    t0 = time.perf_counter()
    try:
        answers = asyncio.run(go())
    finally:
        dispatcher.close()
    wall = time.perf_counter() - t0
    n_requests = sum(s.shape[0] for s in scans_per_client)
    return n_requests / wall, np.array(latencies), dispatcher.stats, answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale: tiny suite"
    )
    parser.add_argument("--framework", default="KNN")
    parser.add_argument("--clients", type=int, default=48)
    parser.add_argument(
        "--requests", type=int, default=0,
        help="requests per client (0 = auto: 40 quick, 80 full)",
    )
    parser.add_argument(
        "--windows", default="0,1,2,5",
        help=(
            "comma-separated batch_window_ms bounds to sweep (the most a "
            "row waits behind an in-flight batch)"
        ),
    )
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help=(
            "fail unless micro-batched throughput beats single-request "
            "dispatch by this factor (0 disables the throughput gate; "
            "the bit-identity gate always applies)"
        ),
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write gate metrics as JSON (CI regression harness)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        suite = generate_path_suite(
            "office",
            args.seed,
            config=SuiteConfig(n_aps=24, fpr=4, train_fpr=3),
            n_cis=6,
        )
    else:
        suite = generate_path_suite("office", args.seed)
    n_requests = args.requests or (40 if args.quick else 80)
    windows = [float(w) for w in args.windows.split(",") if w.strip()]

    store = ModelStore()
    entry = store.get_or_fit(args.framework, suite, seed=args.seed, fast=True)
    print(suite.describe())
    batched = getattr(entry.localizer, "batched_inference", False)
    print(
        f"\nmodel: {entry.key.framework} "
        f"(fit {entry.fit_seconds:.2f}s, batched={batched})"
    )
    print(
        f"load: {args.clients} closed-loop clients x {n_requests} "
        f"single-scan requests = {args.clients * n_requests} total"
    )

    rng = np.random.default_rng(args.seed)
    pool = np.vstack([ds.rssi for ds in suite.test_epochs])
    scans_per_client = [
        pool[rng.integers(0, pool.shape[0], size=n_requests)]
        for _ in range(args.clients)
    ]

    header = (
        f"{'scenario':<24} {'rps':>9} {'p50':>9} {'p99':>9} "
        f"{'rows/call':>10}"
    )
    print(f"\n{header}")

    base_rps, base_lat, base_stats, _ = run_load(
        entry.localizer, scans_per_client, batch_window_ms=0.0, max_batch=1
    )
    print(
        f"{'single-request':<24} {base_rps:>9.0f} "
        f"{np.percentile(base_lat, 50) * 1e3:>7.2f}ms "
        f"{np.percentile(base_lat, 99) * 1e3:>7.2f}ms "
        f"{base_stats.mean_batch_rows():>10.1f}"
    )

    best_rps = 0.0
    identical = True
    for window in windows:
        rps, lat, stats, answers = run_load(
            entry.localizer,
            scans_per_client,
            batch_window_ms=window,
            max_batch=args.max_batch,
        )
        best_rps = max(best_rps, rps)
        reference = [
            entry.localizer.predict_batched(scans)
            for scans in scans_per_client
        ] if stats.sequential_requests == 0 else None
        if reference is not None:
            identical = identical and all(
                np.array_equal(a, r) for a, r in zip(answers, reference)
            )
        print(
            f"{f'micro-batch <={window:g}ms':<24} {rps:>9.0f} "
            f"{np.percentile(lat, 50) * 1e3:>7.2f}ms "
            f"{np.percentile(lat, 99) * 1e3:>7.2f}ms "
            f"{stats.mean_batch_rows():>10.1f}"
        )

    speedup = best_rps / base_rps if base_rps > 0 else float("inf")
    print(
        f"\nbest micro-batched throughput: {speedup:.1f}x single-request "
        f"(bit-identical to predict_batched: {identical})"
    )
    ok = speedup >= args.min_speedup and identical
    print(f"{'PASS' if ok else 'FAIL'}: serving consistency/throughput checks")
    if args.json:
        write_json_report(
            args.json,
            bench="serve",
            quick=args.quick,
            metrics={
                "microbatch_speedup": round(speedup, 3),
                "coalesced_identical": identical,
            },
            info={
                "framework": args.framework,
                "clients": args.clients,
                "requests_per_client": n_requests,
            },
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
