#!/usr/bin/env python
"""Benchmark the kernel-backend seam (``repro.kernels``).

Four measurements, printed as one report:

1. **Distance-kernel throughput vs. reference-set size** — the raw
   ``sq_distances`` kernel on synthetic radio maps of growing size:
   ``blas`` (transposed contiguous float32 + in-place sgemm) and
   ``quantized`` (int8 codes) against ``reference`` (the exact float64
   matmul decomposition). The headline claim is the largest-size
   ``blas`` speedup.
2. **Bit-identity gate** — the reference subset gather must score
   exactly like a fresh pack: ``sq_distances`` on
   ``take(pack(refs), rows)`` equals ``sq_distances`` on
   ``pack(refs[rows])`` byte-for-byte (the sharded path's anchor), and
   the fused encoder forward (``Sequential.predict``) must equal the
   layer-by-layer ``Sequential.forward`` pass exactly. Its speedup
   (``encoder_forward_speedup``) is Conv2D+ReLU and Dense+ReLU fusion
   plus the per-thread conv workspace, which spares the fused side the
   fresh im2col and gemm buffers the plain side allocates; minor page
   faults per call are printed for both sides.
3. **Bounded-error gates** — ``blas``/``quantized`` neighbour
   distances must stay within their error envelopes of reference
   (float32 rounding noise vs. int8 code-space error).
4. **Packed-representation footprint** — resident bytes per backend;
   ``quantized`` should pack the radio map ~8x smaller than float64.

Exit status is non-zero unless the largest reference set shows
``>= --min-speedup`` (default 2x) for ``blas`` AND every identity /
bounded-error gate holds.

``--json PATH`` additionally writes the gate metrics as JSON for
``tools/check_bench_regression.py`` (the CI perf-regression harness).

Run standalone (pytest does not collect ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick
    PYTHONPATH=src python benchmarks/bench_kernels.py --n-aps 64
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from _bench_common import timeit, write_json_report
from bench_index import synthetic_radio_map

from repro.core import EncoderConfig, build_encoder
from repro.core.knn_head import KNNHead
from repro.kernels import get_backend

#: Float32 rounding can perturb a squared distance by a few ULPs of the
#: decomposition's intermediate magnitudes; this envelope (on the final
#: sqrt'd distances, relative to the mean reference distance) is ~100x
#: above what the blas backend actually produces.
BLAS_REL_ERROR_BOUND = 1e-3

#: Int8 code-space distances carry per-dimension quantization error of
#: at most one step; the envelope is relative, on the sqrt'd distances.
QUANTIZED_REL_ERROR_BOUND = 0.15


def bench_distance_throughput(
    sizes: list[int], *, n_queries: int, n_aps: int, seed: int
) -> dict[str, float]:
    """Raw ``sq_distances`` timings per backend; returns largest-size speedups."""
    print(
        f"\n== distance-kernel throughput vs reference-set size "
        f"(d={n_aps}, {n_queries} queries) =="
    )
    print(
        f"{'n_refs':>9} {'reference':>11} {'blas':>11} {'quantized':>11} "
        f"{'blas-x':>7} {'int8-x':>7}"
    )
    speedups: dict[str, float] = {}
    for n_refs in sizes:
        refs, _, queries = synthetic_radio_map(
            n_refs, n_queries, n_aps=n_aps, seed=seed
        )
        times: dict[str, float] = {}
        for name in ("reference", "blas", "quantized"):
            backend = get_backend(name)
            packed = backend.pack(refs)
            times[name] = timeit(lambda: backend.sq_distances(queries, packed))
        speedups = {
            "blas": times["reference"] / times["blas"],
            "quantized": times["reference"] / times["quantized"],
        }
        print(
            f"{n_refs:>9} {times['reference'] * 1e3:>9.1f}ms "
            f"{times['blas'] * 1e3:>9.1f}ms "
            f"{times['quantized'] * 1e3:>9.1f}ms "
            f"{speedups['blas']:>6.2f}x {speedups['quantized']:>6.2f}x"
        )
    return speedups


def bench_identity_and_error(
    n_refs: int, *, n_queries: int, n_aps: int, k: int, seed: int
) -> dict:
    """Gates: reference take() identity, blas/int8 bounded error."""
    refs, locs, queries = synthetic_radio_map(
        n_refs, n_queries, n_aps=n_aps, seed=seed
    )
    rows = np.arange(n_refs)
    heads = {
        name: KNNHead(k=k, backend=name).fit(refs, rows, locs)
        for name in ("reference", "blas", "quantized")
    }
    dist_ref, _ = heads["reference"].kneighbors(queries)
    reference = get_backend("reference")
    subset = np.sort(
        np.random.default_rng(seed).choice(n_refs, size=n_refs // 3, replace=False)
    )
    identical = bool(
        np.array_equal(
            reference.sq_distances(
                queries, reference.take(reference.pack(refs), subset)
            ),
            reference.sq_distances(queries, reference.pack(refs[subset])),
        )
    )

    scale = float(dist_ref.mean())
    errors = {}
    for name, bound in (
        ("blas", BLAS_REL_ERROR_BOUND),
        ("quantized", QUANTIZED_REL_ERROR_BOUND),
    ):
        dist, _ = heads[name].kneighbors(queries)
        rel = float(np.abs(dist - dist_ref).max()) / scale
        errors[name] = {"rel_error": rel, "bounded": bool(rel <= bound)}

    print(f"\n== identity / error gates at n_refs={n_refs} (k={k}) ==")
    print(f"reference take() bit-identical to a fresh pack: {identical}")
    for name, rec in errors.items():
        print(
            f"{name}: max rel neighbour-distance error "
            f"{rec['rel_error']:.2e} (bounded: {rec['bounded']})"
        )

    nbytes = {name: head.packed_nbytes for name, head in heads.items()}
    memory_ratio = nbytes["reference"] / nbytes["quantized"]
    print(
        f"packed bytes: reference {nbytes['reference']:,} / "
        f"blas {nbytes['blas']:,} / quantized {nbytes['quantized']:,} "
        f"({memory_ratio:.1f}x int8 packing)"
    )
    return {
        "reference_take_identical": identical,
        "errors": errors,
        "memory_ratio": float(memory_ratio),
    }


def minor_faults_per_call(fn, *, calls: int = 5) -> float:
    """Mean minor page faults of one warm ``fn()`` on the calling thread."""
    who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
    fn()
    before = resource.getrusage(who).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(who).ru_minflt - before) / calls


def bench_encoder_forward(
    *, n_images: int, seed: int
) -> tuple[float, bool, dict]:
    """Fused ``predict`` vs. the plain layer-by-layer ``forward`` pass.

    Returns the speedup, whether the outputs are bit-identical, and the
    minor page faults per call of each side. Both sides run the same
    im2col and gemms; the fused side adds bias and ReLU in place and
    keeps its conv buffers in the per-thread workspace instead of
    fresh heap.
    """
    rng = np.random.default_rng(seed)
    model = build_encoder(8, EncoderConfig(embedding_dim=10), rng=rng)
    x = rng.random((n_images, 1, 8, 8)).astype(np.float32)

    def plain():
        return model.forward(x, training=False)[0]

    def fused():
        return model.predict(x, batch_size=None, backend="blas")

    identical = bool(np.array_equal(plain(), fused()))
    # ~20 ms per pass: best of 10 rather than 3 damps host noise.
    t_plain = timeit(plain, repeats=10)
    t_fused = timeit(fused, repeats=10)
    faults = {
        "plain": minor_faults_per_call(plain),
        "fused": minor_faults_per_call(fused),
    }
    speedup = t_plain / t_fused if t_fused > 0 else float("inf")
    print(f"\n== encoder forward, fused predict vs. plain forward ({n_images} images) ==")
    print(
        f"plain {t_plain * 1e3:.1f}ms / fused+workspace {t_fused * 1e3:.1f}ms "
        f"({speedup:.2f}x); bit-identical: {identical}; minor faults/call "
        f"plain {faults['plain']:.0f} / fused {faults['fused']:.0f}"
    )
    return speedup, identical, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale: smaller maps"
    )
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--n-aps", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help=(
            "fail unless the largest reference set shows this blas-vs-"
            "reference distance-kernel speedup (0 disables; the "
            "identity and bounded-error gates always apply)"
        ),
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write gate metrics as JSON (CI regression harness)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizes = [2_000, 8_000, 24_000]
        n_queries = 1_500
        n_images = 256
    else:
        sizes = [10_000, 40_000, 160_000]
        n_queries = 4_000
        n_images = 1_024

    speedups = bench_distance_throughput(
        sizes, n_queries=n_queries, n_aps=args.n_aps, seed=args.seed
    )
    gates = bench_identity_and_error(
        sizes[-1],
        n_queries=min(n_queries, 1_000),
        n_aps=args.n_aps,
        k=args.k,
        seed=args.seed,
    )
    encoder_speedup, encoder_identical, encoder_faults = bench_encoder_forward(
        n_images=n_images, seed=args.seed
    )

    errors = gates["errors"]
    ok = (
        gates["reference_take_identical"]
        and encoder_identical
        and errors["blas"]["bounded"]
        and errors["quantized"]["bounded"]
        and (args.min_speedup <= 0 or speedups["blas"] >= args.min_speedup)
    )
    print(
        f"\nlargest-set blas speedup: {speedups['blas']:.2f}x "
        f"(quantized {speedups['quantized']:.2f}x, "
        f"{gates['memory_ratio']:.1f}x packing); "
        f"reference take() identical: {gates['reference_take_identical']}"
    )
    print(f"{'PASS' if ok else 'FAIL'}: kernel speedup/identity checks")

    if args.json:
        write_json_report(
            args.json,
            bench="kernels",
            quick=args.quick,
            metrics={
                "blas_speedup_largest": round(speedups["blas"], 3),
                "quantized_speedup_largest": round(speedups["quantized"], 3),
                "quantized_memory_ratio": round(gates["memory_ratio"], 3),
                "encoder_forward_speedup": round(encoder_speedup, 3),
                "reference_take_identical": gates["reference_take_identical"],
                "encoder_fused_identical": encoder_identical,
                "blas_error_bounded": errors["blas"]["bounded"],
                "quantized_error_bounded": errors["quantized"]["bounded"],
            },
            info={
                "sizes": sizes,
                "n_queries": n_queries,
                "n_aps": args.n_aps,
                "k": args.k,
                "blas_rel_error": errors["blas"]["rel_error"],
                "quantized_rel_error": errors["quantized"]["rel_error"],
                "n_images": n_images,
                "encoder_minor_faults_per_call": encoder_faults,
            },
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
