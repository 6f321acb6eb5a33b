#!/usr/bin/env python
"""Benchmark the unified inference/evaluation engine.

Three measurements, printed as one report:

1. **Batched predict throughput** — every batch-safe framework's
   ``predict`` on an ``(n, n_aps)`` query matrix vs. the same queries fed
   one row at a time (the per-query loop the batched contract replaces),
   with a numerical-identity check between the two.
2. **Parallel evaluation wall-clock** — ``ParallelRunner(jobs=N)`` vs.
   the serial runner on a multi-framework suite, again with bit-identity
   between parallel and serial traces.
3. **Result-cache effect** — the same comparison re-run against a warm
   cache (this is the "repeated figure runs skip redundant fits" path).

Run standalone (pytest does not collect ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_eval_engine.py --quick
    PYTHONPATH=src python benchmarks/bench_eval_engine.py --jobs 4
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from _bench_common import timeit, write_json_report

from repro.baselines.base import BatchedLocalizer
from repro.baselines.registry import build_localizer
from repro.datasets import SuiteConfig, generate_path_suite
from repro.eval import ParallelRunner, available_cpus, compare_frameworks


def bench_batched_predict(
    suite, frameworks, *, n_queries: int, fast: bool, speedups=None
) -> bool:
    """Per-framework batched vs per-row predict; returns overall pass.

    ``speedups``, when given, is filled with ``{framework: speedup}``
    for the JSON report.
    """
    rng = np.random.default_rng(0)
    # Query pool: resampled test scans, large enough to measure.
    pool = np.vstack([ds.rssi for ds in suite.test_epochs])
    queries = pool[rng.integers(0, pool.shape[0], size=n_queries)]
    print(f"\n== batched predict throughput ({n_queries} queries) ==")
    print(f"{'framework':<12} {'batched':>10} {'per-row':>10} {'speedup':>9}  identical")
    ok = True
    for name in frameworks:
        localizer = build_localizer(name, suite_name=suite.name, fast=fast)
        if not isinstance(localizer, BatchedLocalizer):
            print(f"{name:<12} {'—':>10} {'—':>10} {'—':>9}  (sequential decoder)")
            continue
        localizer.fit(suite.train, suite.floorplan, rng=np.random.default_rng(0))
        batched_s = timeit(lambda: localizer.predict(queries))
        loop_s = timeit(
            lambda: np.vstack([localizer.predict(q[None, :]) for q in queries]),
            repeats=1,
        )
        batch_out = localizer.predict(queries)
        loop_out = np.vstack([localizer.predict(q[None, :]) for q in queries])
        same = bool(np.allclose(batch_out, loop_out, rtol=1e-9, atol=1e-9))
        ok = ok and same
        speedup = loop_s / batched_s if batched_s > 0 else float("inf")
        if speedups is not None:
            speedups[name] = speedup
        print(
            f"{name:<12} {batched_s * 1e3:>8.1f}ms {loop_s * 1e3:>8.1f}ms "
            f"{speedup:>8.1f}x  {same}"
        )
    return ok


def bench_parallel_runner(suite, frameworks, *, jobs: int, fast: bool) -> bool:
    """Serial vs parallel evaluation; returns bit-identity of the traces."""
    cpus = available_cpus()
    runner = ParallelRunner(jobs=jobs)
    print(
        f"\n== parallel evaluation ({len(frameworks)} frameworks, "
        f"jobs={runner.jobs}, cpus={cpus}) =="
    )
    t0 = time.perf_counter()
    serial = compare_frameworks(suite, frameworks, seed=0, fast=fast)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = runner.run(suite, frameworks, seed=0, fast=fast)
    parallel_s = time.perf_counter() - t0
    identical = all(
        np.array_equal(
            serial.results[n].mean_errors(), parallel.results[n].mean_errors()
        )
        for n in serial.frameworks()
    )
    print(f"serial:   {serial_s:8.2f}s")
    print(
        f"parallel: {parallel_s:8.2f}s  "
        f"({serial_s / parallel_s:.2f}x, identical traces: {identical})"
    )
    if cpus == 1:
        print(
            "note: only 1 CPU is available to this process — the fan-out "
            "ceiling is 1.0x here; speedup needs >1 CPU (jobs=0 auto-sizes "
            "to the available CPUs)."
        )
    return identical


def bench_result_cache(suite, frameworks, *, fast: bool) -> bool:
    """Cold vs warm cache; returns True when the warm run skipped all fits."""
    print("\n== result cache ==")
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        runner = ParallelRunner(cache_dir=cache_dir)
        t0 = time.perf_counter()
        runner.run(suite, frameworks, seed=0, fast=fast)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        runner.run(suite, frameworks, seed=0, fast=fast)
        warm_s = time.perf_counter() - t0
        all_hits = runner.cache.hits == len(frameworks)
        print(f"cold: {cold_s:8.2f}s   warm: {warm_s:8.4f}s  "
              f"({cold_s / max(warm_s, 1e-9):.0f}x, hits={runner.cache.hits})")
        return all_hits
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: tiny suite, cheap frameworks, fewer queries",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="pool size for the parallel bench (0 = one per available CPU)",
    )
    parser.add_argument("--seed", type=int, default=0)
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
        throughput_frameworks = ("KNN", "LT-KNN", "GIFT")
        parallel_frameworks = ("KNN", "LT-KNN", "GIFT")
        n_queries = 2000
    else:
        suite = generate_path_suite("office", args.seed)
        throughput_frameworks = ("STONE", "KNN", "LT-KNN", "GIFT", "SCNN")
        parallel_frameworks = ("STONE", "KNN", "LT-KNN", "GIFT", "SCNN")
        n_queries = 5000

    print(suite.describe())
    speedups: dict = {}
    batched_ok = bench_batched_predict(
        suite, throughput_frameworks, n_queries=n_queries, fast=True,
        speedups=speedups,
    )
    parallel_ok = bench_parallel_runner(
        suite, parallel_frameworks, jobs=args.jobs, fast=True
    )
    cache_ok = bench_result_cache(suite, parallel_frameworks, fast=True)
    ok = batched_ok and parallel_ok and cache_ok
    print(f"\n{'PASS' if ok else 'FAIL'}: engine consistency checks")
    if args.json:
        write_json_report(
            args.json,
            bench="eval_engine",
            quick=args.quick,
            metrics={
                "knn_batched_speedup": round(speedups.get("KNN", 0.0), 3),
                "batched_identical": batched_ok,
                "parallel_identical": parallel_ok,
                "cache_all_hits": cache_ok,
            },
            info={"frameworks": list(throughput_frameworks)},
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
