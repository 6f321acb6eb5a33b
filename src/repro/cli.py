"""Command-line interface: regenerate figures and run quick studies.

Usage (after ``pip install -e .``)::

    python -m repro.cli --version
    python -m repro.cli figure FIG5 --seed 0
    python -m repro.cli figure FIG6B --fast --jobs 4 --cache-dir .repro-cache
    python -m repro.cli compare office --frameworks STONE,LT-KNN --fast
    python -m repro.cli compare office --jobs 4 --chunk-size 1024
    python -m repro.cli compare office --index kmeans --n-shards 32 --n-probe 4
    python -m repro.cli suite basement --out basement.npz
    python -m repro.cli serve office --framework KNN --port 8000 --fast
    python -m repro.cli serve office --framework KNN --index region --fast
    python -m repro.cli serve --fleet "HQ:2,LAB:3" --framework KNN --fast
    python -m repro.cli store ls --model-dir ./models
    python -m repro.cli store prune --model-dir ./models --keep 1 --dry-run
    python -m repro.cli fleet "HQ:2,LAB:3:kmeans" --fast --eval
    python -m repro.cli track office --framework STONE --fast
    python -m repro.cli compress office --bits 8 --sparsity 0.5 --fast
    python -m repro.cli multifloor --months 4 --fast
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .baselines.registry import PAPER_FRAMEWORKS
from .datasets import generate_path_suite, generate_uji_suite, suite_summary_table
from .eval import (
    compare_frameworks,
    comparison_table,
    line_chart,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_headline_claims,
)

_FIGURES = {
    "FIG3": lambda seed, fast, opts: run_fig3(seed),
    "FIG4": lambda seed, fast, opts: run_fig4(seed),
    "FIG5": lambda seed, fast, opts: run_fig5(seed, fast=fast, **opts),
    "FIG6A": lambda seed, fast, opts: run_fig6("basement", seed, fast=fast, **opts),
    "FIG6B": lambda seed, fast, opts: run_fig6("office", seed, fast=fast, **opts),
    # Fig. 7 parallelizes its (FPR x repeat) grid cells; each cell is a
    # fresh STONE fit so the framework-trace cache does not apply.
    "FIG7": lambda seed, fast, opts: run_fig7(
        "office",
        seed,
        fast=fast,
        jobs=opts.get("jobs", 1),
        chunk_size=opts.get("chunk_size"),
    ),
    "SEC5C-CLAIM": lambda seed, fast, opts: run_headline_claims(
        seed, fast=fast, **opts
    ),
}


def _suite_for(name: str, seed: int):
    """Build the named dataset suite (uji is the open-grid generator)."""
    if name == "uji":
        return generate_uji_suite(seed)
    return generate_path_suite(name, seed)


_CHUNK_SIZE_HELP = (
    "max query rows per inference block; bounds peak memory, "
    "never changes results (default: unchunked)"
)


def _index_spec(args: argparse.Namespace):
    """Build the public IndexSpec the CLI flags describe (or None)."""
    if args.index == "exhaustive":
        if args.n_shards != 16 or args.n_probe != 4:
            print(
                "note: --n-shards/--n-probe have no effect without "
                "--index region|kmeans (the default is exhaustive search)"
            )
        return None
    from .api import IndexSpec

    return IndexSpec(
        kind=args.index,
        n_shards=args.n_shards,
        n_probe=args.n_probe,
        seed=args.seed,
    )


def _engine_opts(args: argparse.Namespace) -> dict:
    """Collect the evaluation-engine flags shared by figure/compare."""
    from .api import engine_index

    return {
        "jobs": args.jobs,
        "chunk_size": args.chunk_size,
        "cache_dir": args.cache_dir,
        "index": engine_index(_index_spec(args)),
    }


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the evaluation fan-out "
            "(default: 1, serial; 0 = one per available CPU)"
        ),
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=_CHUNK_SIZE_HELP,
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "memoize finished framework traces in this directory; "
            "repeated runs with identical inputs skip fits "
            "(default: no cache)"
        ),
    )
    _add_index_flags(parser)


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    """Kernel-backend flag shared by serve/fleet."""
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "kernel backend for the radio-map distance path: "
            "'reference' (exact float64, the default), 'blas64' "
            "(bit-identical, pinned through the seam), 'blas' "
            "(float32 sgemm, ~2x faster, bounded error) or 'quantized' "
            "(int8 codes, 8x smaller radio maps); unset falls back to "
            "$REPRO_KERNEL_BACKEND, then 'reference' (applies to "
            "STONE/KNN/LT-KNN, other frameworks run unchanged)"
        ),
    )


def _backend_for(args: argparse.Namespace, caps) -> str | None:
    """Resolve the --backend flag against a framework's capabilities."""
    backend = getattr(args, "backend", None)
    if backend is not None and not caps.supports_kernel_backend:
        print(
            f"note: {caps.name} has no kernel-backend seam — "
            f"--backend {backend} ignored, serving the reference path"
        )
        return "reference"
    return backend


def _add_index_flags(parser: argparse.ArgumentParser) -> None:
    """Radio-map index flags shared by figure/compare/serve."""
    parser.add_argument(
        "--index",
        choices=("exhaustive", "region", "kmeans"),
        default="exhaustive",
        help=(
            "shard the reference radio map so each query scores only "
            "its probed shards: 'region' = floorplan grid cells, "
            "'kmeans' = coarse quantizer over RSSI/embedding vectors "
            "(default: exhaustive, score everything — today's exact "
            "behaviour; applies to STONE/KNN/LT-KNN, other frameworks "
            "run unchanged)"
        ),
    )
    parser.add_argument(
        "--n-shards",
        type=int,
        default=16,
        help="target shard count for --index region/kmeans (default: 16)",
    )
    parser.add_argument(
        "--n-probe",
        type=int,
        default=4,
        help=(
            "shards scored per query; n-probe >= n-shards is "
            "bit-identical to exhaustive search (default: 4)"
        ),
    )


#: Engine flags a figure cannot use: FIG3/FIG4 run no framework
#: evaluations, and FIG7's grid cells each train a fresh model so there
#: is no framework trace to cache (and its per-cell STONE fits stay
#: exhaustive — the grid sweeps training data volume, not inference).
_ENGINE_FLAGS_IGNORED = {
    "FIG3": ("--jobs", "--chunk-size", "--cache-dir", "--index"),
    "FIG4": ("--jobs", "--chunk-size", "--cache-dir", "--index"),
    "FIG7": ("--cache-dir", "--index"),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    figure_id = args.id.upper()
    runner = _FIGURES.get(figure_id)
    if runner is None:
        print(f"unknown figure {args.id!r}; known: {', '.join(_FIGURES)}")
        return 2
    given = {
        "--jobs": args.jobs != 1,
        "--chunk-size": args.chunk_size is not None,
        "--cache-dir": args.cache_dir is not None,
        "--index": args.index != "exhaustive",
    }
    for flag in _ENGINE_FLAGS_IGNORED.get(figure_id, ()):
        if given[flag]:
            print(f"note: {flag} has no effect for {figure_id}")
    result = runner(args.seed, args.fast, _engine_opts(args))
    print(result.rendered)
    for note in result.notes:
        print(f"note: {note}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.rendered + "\n")
        print(f"saved: {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    suite = _suite_for(args.suite, args.seed)
    frameworks = [f.strip() for f in args.frameworks.split(",") if f.strip()]
    if args.index != "exhaustive":
        from .baselines.registry import supports_candidate_index

        unsharded = [f for f in frameworks if not supports_candidate_index(f)]
        if unsharded:
            print(
                f"note: --index {args.index} applies to the NN-search "
                f"frameworks only; {', '.join(unsharded)} run unchanged"
            )
    comparison = compare_frameworks(
        suite,
        frameworks,
        seed=args.seed,
        fast=args.fast,
        **_engine_opts(args),
    )
    series = comparison.series()
    print(line_chart(series, x_labels=comparison.labels(),
                     title=f"{args.suite}: mean localization error"))
    print()
    print(comparison_table(series, comparison.labels()))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    suite = _suite_for(args.suite, args.seed)
    print(suite.describe())
    print()
    print(suite_summary_table(suite))
    if args.out:
        suite.train.save(args.out)
        print(f"\nsaved offline training set: {args.out}")
    return 0


def _fleet_spec(args: argparse.Namespace, spec_string: str):
    """Build the public FleetSpec the CLI flags + spec string describe."""
    from .api import FleetSpec
    from .baselines.registry import framework_capabilities
    from .fleet import parse_fleet_spec

    buildings = parse_fleet_spec(spec_string)
    caps = framework_capabilities(args.framework)
    index = _index_spec(args)
    backend = _backend_for(args, caps)
    if not caps.supports_index:
        sharded = [
            b.name for b in buildings if b.index_kind not in (None, "exhaustive")
        ]
        if index is not None or sharded:
            print(
                f"note: {caps.name} has no reference radio map to shard — "
                f"index settings ignored, fleet slots serve unsharded"
            )
        index = None
        buildings = [
            type(b)(name=b.name, n_floors=b.n_floors, index_kind=None)
            for b in buildings
        ]
    return FleetSpec(
        buildings=tuple(buildings),
        framework=args.framework,
        seed=args.seed,
        fast=args.fast,
        index=index,
        backend=backend,
        months=args.fleet_months,
        aps_per_floor=args.fleet_aps_per_floor,
        model_dir=args.model_dir,
        # The inspect-only `repro fleet` subcommand has no serving
        # flags; the spec keeps its defaults there.
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 8000),
        batch_window_ms=getattr(args, "batch_window_ms", 2.0),
        max_batch=getattr(args, "max_batch", 256),
        chunk_size=getattr(args, "chunk_size", None),
        max_pending_rows=getattr(args, "max_pending_rows", None),
        workers=getattr(args, "workers", 0),
        log_json=getattr(args, "log_json", False),
        slow_ms=getattr(args, "slow_ms", None),
        drift_threshold_m=getattr(args, "drift_threshold_m", None),
        live_min_scans=getattr(args, "live_min_scans", 32),
        live_max_scans=getattr(args, "live_max_scans", 4096),
        live_max_age_s=getattr(args, "live_max_age_s", None),
    )


def _add_fleet_gen_flags(parser: argparse.ArgumentParser) -> None:
    """Fleet-suite generation knobs shared by serve --fleet and fleet."""
    parser.add_argument(
        "--fleet-months",
        type=int,
        default=4,
        help="longitudinal test months per generated building (default: 4)",
    )
    parser.add_argument(
        "--fleet-aps-per-floor",
        type=int,
        default=24,
        help="APs per generated floor (default: 24)",
    )


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    fleet_spec = _fleet_spec(args, args.fleet)
    registry = fleet_spec.build_registry()
    print(registry.describe_text())
    server = fleet_spec.build_server(registry)
    return server.run()


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import LocalizerSpec, ServeSpec
    from .baselines.registry import framework_capabilities

    if args.fleet:
        return _cmd_serve_fleet(args)
    suite = _suite_for(args.suite, args.seed)
    caps = framework_capabilities(args.framework)
    index = _index_spec(args)
    backend = _backend_for(args, caps)
    if index is not None and not caps.supports_index:
        print(
            f"note: {caps.name} has no reference radio map to shard — "
            f"--index {args.index} ignored, serving unsharded"
        )
        index = None
    serve_spec = ServeSpec(
        localizer=LocalizerSpec(
            framework=args.framework,
            suite_name=args.suite,
            fast=args.fast,
            seed=args.seed,
            index=index,
            backend=backend,
        ),
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        chunk_size=args.chunk_size,
        model_dir=args.model_dir,
        log_json=args.log_json,
        slow_ms=args.slow_ms,
    )
    server = serve_spec.build(suite)
    entry = server.entry
    if entry.source == "disk":
        print(f"{caps.name}: warm-loaded fitted model from {args.model_dir}")
    else:
        print(f"{caps.name}: fitted in {entry.fit_seconds:.1f}s", end="")
        print(f" (persisted to {args.model_dir})" if args.model_dir else "")
    backend_name = getattr(entry.localizer, "kernel_backend", "reference")
    if backend_name != "reference":
        print(f"kernel backend: {backend_name}")
    index_stats = entry.localizer.index_describe()
    if index_stats is not None and index_stats.get("kind") != "exhaustive":
        rows = index_stats.get("rows_per_shard", {})
        print(
            f"index: {index_stats['kind']} — {index_stats['n_shards']} shards, "
            f"probe {index_stats['n_probe']}, "
            f"{rows.get('min')}–{rows.get('max')} rows/shard"
        )
    if not caps.batched_inference:
        print(
            f"note: {caps.name} decodes scan sequences statefully — "
            "requests dispatch one at a time (no cross-request batching)"
        )
    return server.run()


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import run_fleet_experiment

    fleet_spec = _fleet_spec(args, args.spec)
    registry = fleet_spec.build_registry()
    print(registry.describe_text())
    if args.eval:
        print()
        result = run_fleet_experiment(registry, max_epochs=args.max_epochs)
        print(result.rendered())
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    import numpy as np

    from .api import LocalizerSpec
    from .eval import format_table
    from .radio.time import SimTime
    from .tracking import (
        compare_tracking_methods,
        simulate_path_walk,
        simulate_random_walk,
    )

    suite = _suite_for(args.suite, args.seed)
    env = suite.metadata["environment"]
    localizer = LocalizerSpec(
        framework=args.framework, suite_name=suite.name, fast=args.fast
    ).build()
    rng = np.random.default_rng(args.seed)
    localizer.fit(suite.train, suite.floorplan, rng=rng)
    ci_hours = suite.metadata.get("ci_hours")
    start_time = (
        SimTime(ci_hours[args.epoch])
        if ci_hours is not None and args.epoch < len(ci_hours)
        else None
    )
    if args.suite == "uji":
        # Open grid floor: free-space waypoint walk is physical.
        trajectory = simulate_random_walk(
            env,
            n_waypoints=args.waypoints,
            epoch=args.epoch,
            start_time=start_time,
            rng=rng,
        )
    else:
        # Corridor paths: walk the surveyed path itself.
        trajectory = simulate_path_walk(
            env, epoch=args.epoch, start_time=start_time, rng=rng
        )
    print(
        f"walk: {trajectory.n_steps} scans over "
        f"{trajectory.path_length_m():.0f} m at epoch {args.epoch}"
    )
    results = compare_tracking_methods(
        localizer, trajectory, suite.floorplan, rng=rng
    )
    rows = [
        [method, s.mean_m, s.median_m, s.rmse_m, s.p95_m]
        for method, s in results.items()
    ]
    print(format_table(["method", "mean", "median", "rmse", "p95"], rows))
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    import numpy as np

    from .api import LocalizerSpec
    from .compress import (
        QuantizationSpec,
        deployment_table,
        magnitude_prune,
        model_cost,
        quantize_model,
    )
    from .eval import evaluate_localizer

    suite = _suite_for(args.suite, args.seed)
    rng = np.random.default_rng(args.seed)
    stone = LocalizerSpec(
        framework="STONE", suite_name=suite.name, fast=args.fast
    ).build()
    stone.fit(suite.train, suite.floorplan, rng=rng)
    result = evaluate_localizer(stone, suite, rng=rng, fit=False)
    print(f"float32 STONE: overall mean {result.overall_mean():.2f} m")
    cost = model_cost(
        stone.encoder, (1, stone.preprocessor.image_side, stone.preprocessor.image_side)
    )
    print(cost.table())
    quantized = quantize_model(stone.encoder, QuantizationSpec(bits=args.bits))
    stone.set_encoder(quantized.dequantized_model())
    q_result = evaluate_localizer(stone, suite, rng=rng, fit=False)
    print(
        f"int{args.bits} STONE: overall mean {q_result.overall_mean():.2f} m "
        f"({quantized.compression_ratio():.1f}x smaller)"
    )
    if args.sparsity > 0:
        pruned_model, report = magnitude_prune(stone.encoder, args.sparsity)
        stone.set_encoder(pruned_model)
        p_result = evaluate_localizer(stone, suite, rng=rng, fit=False)
        print(
            f"+{args.sparsity:.0%} pruned: overall mean "
            f"{p_result.overall_mean():.2f} m ({report.compression_ratio():.2f}x)"
        )
    print()
    print(deployment_table(cost, weight_bytes=quantized.storage_bytes()))
    return 0


def _cmd_multifloor(args: argparse.Namespace) -> int:
    import numpy as np

    from .api import LocalizerSpec
    from .multifloor import (
        HierarchicalLocalizer,
        MultiFloorConfig,
        evaluate_multifloor,
        generate_multifloor_suite,
    )

    config = MultiFloorConfig(
        aps_per_floor=args.aps_per_floor,
        n_months=args.months,
        train_fpr=4 if args.fast else 6,
        test_fpr=1 if args.fast else 2,
    )
    suite = generate_multifloor_suite(args.seed, config=config)
    print(suite.describe())
    floor_spec = LocalizerSpec(
        framework=args.framework, suite_name="uji", fast=args.fast
    )
    localizer = HierarchicalLocalizer(lambda floor: floor_spec.build())
    results = evaluate_multifloor(
        localizer, suite, rng=np.random.default_rng(args.seed)
    )
    for r in results:
        print(r.as_row())
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from .serve.store import ModelStore

    store = ModelStore(args.model_dir)
    # A fleet spec binds slots to digests: those artifacts are "live"
    # (annotated in ls, never pruned). Building the registry against
    # this store warm-loads from disk, so present artifacts do not refit.
    bindings: dict[str, str] = {}
    if args.fleet:
        registry = _fleet_spec(args, args.fleet).build_registry(store=store)
        for slot in registry.slots():
            bindings[slot.entry.key.digest] = slot.slot.label
    manifest = store.disk_manifest()
    for row in manifest:
        row["slot"] = bindings.get(row["digest"])
    if args.action == "prune":
        removed = store.prune(
            keep=args.keep, dry_run=args.dry_run, referenced=set(bindings)
        )
        verb = "would remove" if args.dry_run else "removed"
        for row in removed:
            print(
                f"{verb}: {row['digest'][:16]}  {row['framework']}/"
                f"{row['suite']}  {row['size_bytes']} bytes"
            )
        kept = len(manifest) - len(removed)
        print(f"{verb} {len(removed)} artifact(s), kept {kept}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"removed": removed, "kept": kept}, fh,
                          indent=2, sort_keys=True)
        return 0
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"artifacts": manifest}, fh, indent=2, sort_keys=True)
        print(f"wrote manifest: {args.json}")
        return 0
    if not manifest:
        print(f"no artifacts under {store.model_dir}")
        return 0
    from .eval import format_table

    rows = []
    for row in manifest:
        if "error" in row:
            rows.append([row["digest"][:16], row["error"], "", "", "", "",
                         row["size_bytes"], ""])
            continue
        rows.append([
            row["digest"][:16],
            row["framework"],
            row["suite"],
            f"seed={row['seed']}" + (" fast" if row["fast"] else ""),
            row["backend"],
            row["index_tag"],
            row["size_bytes"],
            row["slot"] or "",
        ])
    print(format_table(
        ["digest", "framework", "suite", "config", "backend", "index",
         "bytes", "slot"],
        rows,
    ))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    import json
    import time

    from .synth import (
        ChaosSpec,
        LoadSpec,
        full_city,
        generate_building_suite,
        generate_fleet,
        quick_city,
        run_load,
        suite_content_hash,
    )

    spec = full_city() if args.preset == "full" else quick_city()
    overrides = {
        "n_buildings": args.buildings,
        "floors_per_building": args.floors,
        "n_months": args.months,
        "ap_density_per_100m2": args.ap_density,
        "environment": args.environment,
        "dropout_rate": args.dropout_rate,
    }
    spec = spec.scaled(**{k: v for k, v in overrides.items() if v is not None})
    print(spec.describe())
    print(f"fingerprint: {spec.fingerprint()}")

    report: dict = {"spec": spec.to_dict(), "fingerprint": spec.fingerprint()}
    probe = generate_building_suite(spec, args.seed)
    content = suite_content_hash(probe)
    print(
        f"\n{probe.name}: {probe.train.n_samples} train rows, "
        f"{len(probe.test_epochs)} test months — content {content[:16]}…"
    )
    report["building0_content_hash"] = content

    registry = None
    if args.fleet or args.load:
        if args.index == "mixed":
            index = "mixed"
        elif args.index == "exhaustive":
            index = None
        else:
            from .index import IndexConfig

            index = IndexConfig(kind=args.index, seed=args.seed)

        def progress(done: int, total: int) -> None:
            if done == total or done % 10 == 0:
                print(f"  fitted {done}/{total} buildings", flush=True)

        t0 = time.perf_counter()
        registry = generate_fleet(
            spec,
            seed=args.seed,
            framework=args.framework,
            fast=not args.full_models,
            index=index,
            model_dir=args.model_dir,
            progress=progress if spec.n_buildings >= 20 else None,
        )
        build_s = time.perf_counter() - t0
        print(f"\nfleet up in {build_s:.2f}s:")
        print(registry.describe_text())
        report["fleet"] = {
            "n_buildings": len(registry.buildings),
            "n_slots": registry.n_slots,
            "n_aps": registry.n_aps,
            "build_seconds": round(build_s, 3),
        }

    if args.load:
        chaos = ChaosSpec(
            malformed=args.chaos_malformed,
            oversized=args.chaos_oversized,
            misroute=args.chaos_misroute,
            bad_observation=args.chaos_bad_observe,
        )
        load = LoadSpec(
            mode=args.load,
            clients=args.clients,
            rate_rps=args.rate,
            burst=args.burst,
            duration_s=args.duration,
            batch_rows=args.batch_rows,
            zipf_s=args.zipf,
            pin_fraction=args.pin_fraction,
            observe_fraction=args.observe_fraction,
            seed=args.seed,
            chaos=chaos,
        )
        from .fleet.frontend import FleetDispatcher
        from .obs import MetricsRegistry

        # Own the dispatcher so its bound metrics registry survives the
        # run: the post-run snapshot is exactly the fleet-/metrics delta
        # a scrape pair around the load window would show.
        metrics = MetricsRegistry()
        dispatcher = FleetDispatcher(registry, batch_window_ms=1.0)
        dispatcher.bind_metrics(metrics)
        live = None
        if load.observe_fraction > 0 or chaos.bad_observation > 0:
            from .live import LiveManager

            live = LiveManager(dispatcher)
            live.bind_metrics(metrics)
        try:
            result = run_load(registry, load, dispatcher=dispatcher, live=live)
            dispatcher.update_gauges()
            fleet_metrics = metrics.snapshot().as_dict()
            live_summary = live.describe() if live is not None else None
        finally:
            if live is not None:
                live.close()
            dispatcher.close()
        print()
        print(result.describe())
        report["load"] = result.to_dict()
        report["load"]["fleet_metrics"] = fleet_metrics
        if live_summary is not None:
            report["load"]["live"] = live_summary

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"\nwrote report: {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro.cli`` argument parser."""
    from . import __version__
    from .serve.protocol import API_VERSION

    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="STONE reproduction toolbox (DATE 2022)",
    )
    parser.add_argument(
        "--version",
        action="version",
        # api v{N} is the wire-protocol version servers/clients
        # negotiate (the `api_version` field); see docs/api.md.
        version=f"repro {__version__} (api v{API_VERSION})",
        help="print package and wire-protocol versions, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("id", help=f"one of: {', '.join(_FIGURES)}")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--fast", action="store_true", help="smoke-scale models")
    p_fig.add_argument("--out", help="also write the artefact to this file")
    _add_engine_flags(p_fig)
    p_fig.set_defaults(fn=_cmd_figure)

    p_cmp = sub.add_parser("compare", help="compare frameworks on a suite")
    p_cmp.add_argument("suite", choices=("office", "basement", "uji"))
    p_cmp.add_argument(
        "--frameworks",
        default=",".join(PAPER_FRAMEWORKS),
        help="comma-separated framework names (registry: STONE, KNN, LT-KNN, GIFT, SCNN, SELE)",
    )
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--fast", action="store_true")
    _add_engine_flags(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_suite = sub.add_parser("suite", help="generate and describe a dataset suite")
    p_suite.add_argument("suite", choices=("office", "basement", "uji"))
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--out", help="save the offline training set (.npz)")
    p_suite.set_defaults(fn=_cmd_suite)

    p_srv = sub.add_parser(
        "serve",
        help="serve a long-lived fitted localizer over HTTP (micro-batched)",
    )
    p_srv.add_argument(
        "suite",
        nargs="?",
        default="office",
        choices=("office", "basement", "uji"),
        help="dataset suite for single-model serving (ignored with --fleet)",
    )
    p_srv.add_argument("--framework", default="STONE")
    p_srv.add_argument(
        "--fleet",
        default=None,
        metavar="SPEC",
        help=(
            "serve a whole fleet instead of one model: comma-separated "
            "buildings NAME:FLOORS[:INDEX_KIND], e.g. 'HQ:2,LAB:3:kmeans'; "
            "scans route hierarchically to per-(building, floor) warm "
            "models (the positional suite is ignored)"
        ),
    )
    p_srv.add_argument(
        "--max-pending-rows",
        type=int,
        default=None,
        help=(
            "fleet admission bound: rows in flight before new requests "
            "get 429 (default: two protocol-maximum batches; fleet "
            "mode only)"
        ),
    )
    p_srv.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "run fleet slots in this many worker processes, model "
            "arrays shared over shared memory; answers stay bit-identical "
            "(default: 0 = in-process; fleet mode only)"
        ),
    )
    _add_fleet_gen_flags(p_srv)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8000, help="0 = ephemeral port"
    )
    p_srv.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help=(
            "upper bound on how long rows wait behind an in-flight "
            "batch; an idle slot dispatches on the next event-loop tick "
            "(default: 2.0)"
        ),
    )
    p_srv.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="dispatch immediately at this many pending rows (default: 256)",
    )
    p_srv.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=_CHUNK_SIZE_HELP,
    )
    p_srv.add_argument(
        "--model-dir",
        default=None,
        help=(
            "persist fitted models here so a server restart warm-loads "
            "instead of refitting (default: fit in-process only)"
        ),
    )
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--fast", action="store_true", help="smoke-scale models")
    p_srv.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit one structured JSON log line per request to stderr "
            "(component, request_id, endpoint, status, duration)"
        ),
    )
    p_srv.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help=(
            "with --log-json, only log successful requests slower than "
            "this many milliseconds; errors always log (default: log all)"
        ),
    )
    p_srv.add_argument(
        "--drift-threshold-m",
        type=float,
        default=None,
        metavar="M",
        help=(
            "live ingest (POST /observe): refit + hot-swap a slot once "
            "its buffered observations' mean error under the serving "
            "model exceeds this many meters (default: drift scoring "
            "off; the buffer-full trigger still applies; fleet mode only)"
        ),
    )
    p_srv.add_argument(
        "--live-min-scans",
        type=int,
        default=32,
        help=(
            "never judge drift (or refit) on fewer buffered scans than "
            "this (default: 32; fleet mode only)"
        ),
    )
    p_srv.add_argument(
        "--live-max-scans",
        type=int,
        default=4096,
        help=(
            "refit unconditionally once this many scans are buffered "
            "(default: 4096; fleet mode only)"
        ),
    )
    p_srv.add_argument(
        "--live-max-age-s",
        type=float,
        default=None,
        metavar="S",
        help=(
            "refit once the oldest buffered scan is this old "
            "(default: no age trigger; fleet mode only)"
        ),
    )
    _add_index_flags(p_srv)
    _add_backend_flag(p_srv)
    p_srv.set_defaults(fn=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="inspect (and optionally evaluate) a multi-building fleet",
    )
    p_fleet.add_argument(
        "spec",
        help="comma-separated buildings NAME:FLOORS[:INDEX_KIND]",
    )
    p_fleet.add_argument("--framework", default="KNN")
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--fast", action="store_true", help="smoke-scale models")
    p_fleet.add_argument(
        "--eval",
        action="store_true",
        help=(
            "run the fleet experiment: routing accuracy and routed-vs-"
            "oracle localization error across the test months"
        ),
    )
    p_fleet.add_argument(
        "--max-epochs",
        type=int,
        default=None,
        help="cap evaluated test months (default: all generated)",
    )
    p_fleet.add_argument(
        "--model-dir",
        default=None,
        help="persist/warm-load slot models here (shared fleet store)",
    )
    _add_fleet_gen_flags(p_fleet)
    _add_index_flags(p_fleet)
    _add_backend_flag(p_fleet)
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_store = sub.add_parser(
        "store",
        help="audit (and prune) the persisted fitted-model artifact store",
    )
    p_store.add_argument(
        "action",
        nargs="?",
        choices=("ls", "prune"),
        default="ls",
        help=(
            "ls = list every artifact with its self-described identity "
            "(spec fingerprint, backend, size, slot binding); prune = "
            "delete superseded versions per configuration group "
            "(default: ls)"
        ),
    )
    p_store.add_argument(
        "--model-dir",
        required=True,
        help="the artifact directory to audit (repro serve --model-dir)",
    )
    p_store.add_argument(
        "--fleet",
        default=None,
        metavar="SPEC",
        help=(
            "annotate artifacts with the slot bindings this fleet spec "
            "resolves to (e.g. 'HQ:2,LAB:3'); bound digests are never "
            "pruned"
        ),
    )
    p_store.add_argument(
        "--keep",
        type=int,
        default=1,
        help=(
            "prune: versions to keep per configuration group, newest "
            "first (default: 1)"
        ),
    )
    p_store.add_argument(
        "--dry-run",
        action="store_true",
        help="prune: report what would be removed without deleting",
    )
    p_store.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the manifest/prune report here as JSON",
    )
    p_store.add_argument("--framework", default="KNN")
    p_store.add_argument("--seed", type=int, default=0)
    p_store.add_argument(
        "--fast", action="store_true",
        help="with --fleet: the fleet was built at smoke scale",
    )
    _add_fleet_gen_flags(p_store)
    _add_index_flags(p_store)
    _add_backend_flag(p_store)
    p_store.set_defaults(fn=_cmd_store)

    p_track = sub.add_parser(
        "track", help="compare trajectory smoothing strategies on a walk"
    )
    p_track.add_argument("suite", choices=("office", "basement", "uji"))
    p_track.add_argument("--framework", default="STONE")
    p_track.add_argument("--epoch", type=int, default=0, help="AP-lifecycle epoch")
    p_track.add_argument("--waypoints", type=int, default=5)
    p_track.add_argument("--seed", type=int, default=0)
    p_track.add_argument("--fast", action="store_true")
    p_track.set_defaults(fn=_cmd_track)

    p_comp = sub.add_parser(
        "compress", help="quantize/prune STONE's encoder and re-evaluate"
    )
    p_comp.add_argument("suite", choices=("office", "basement", "uji"))
    p_comp.add_argument("--bits", type=int, default=8)
    p_comp.add_argument("--sparsity", type=float, default=0.0)
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--fast", action="store_true")
    p_comp.set_defaults(fn=_cmd_compress)

    p_mf = sub.add_parser(
        "multifloor", help="two-floor UJI-like hierarchical evaluation"
    )
    p_mf.add_argument("--framework", default="KNN")
    p_mf.add_argument("--months", type=int, default=6)
    p_mf.add_argument("--aps-per-floor", type=int, default=40)
    p_mf.add_argument("--seed", type=int, default=0)
    p_mf.add_argument("--fast", action="store_true")
    p_mf.set_defaults(fn=_cmd_multifloor)

    p_syn = sub.add_parser(
        "synth",
        help="generate a synthetic city, stand up its fleet, stress it",
    )
    p_syn.add_argument(
        "--preset",
        choices=("quick", "full"),
        default="quick",
        help=(
            "base scenario: quick = 4 buildings x 2 floors (seconds), "
            "full = 100 buildings x 10 floors = 1000 slots (default: quick)"
        ),
    )
    p_syn.add_argument("--buildings", type=int, default=None)
    p_syn.add_argument("--floors", type=int, default=None)
    p_syn.add_argument(
        "--months", type=int, default=None, help="longitudinal test months"
    )
    p_syn.add_argument(
        "--ap-density",
        type=float,
        default=None,
        help="access points per 100 m^2 of floor area",
    )
    p_syn.add_argument(
        "--environment", choices=("open", "office", "basement"), default=None
    )
    p_syn.add_argument(
        "--dropout-rate",
        type=float,
        default=None,
        help="fraction of APs going dark per month (AP churn)",
    )
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument(
        "--fleet",
        action="store_true",
        help="also fit the whole city into a FleetRegistry",
    )
    p_syn.add_argument("--framework", default="KNN")
    p_syn.add_argument(
        "--full-models",
        action="store_true",
        help="fit full-scale slot models (default: fast smoke-scale)",
    )
    p_syn.add_argument(
        "--index",
        choices=("mixed", "exhaustive", "region", "kmeans"),
        default="mixed",
        help=(
            "per-building index configs: 'mixed' rotates all kinds "
            "across the city (default: mixed)"
        ),
    )
    p_syn.add_argument(
        "--model-dir",
        default=None,
        help="persist/warm-load slot models here (shared fleet store)",
    )
    p_syn.add_argument(
        "--load",
        choices=("closed", "open"),
        default=None,
        help=(
            "run the load generator against the fleet (implies --fleet): "
            "closed = N clients back-to-back, open = fixed-rate bursts"
        ),
    )
    p_syn.add_argument("--duration", type=float, default=2.0, metavar="S")
    p_syn.add_argument("--clients", type=int, default=8)
    p_syn.add_argument(
        "--rate", type=float, default=200.0, help="open-loop offered rps"
    )
    p_syn.add_argument(
        "--burst", type=int, default=1, help="open-loop burst-train length"
    )
    p_syn.add_argument("--batch-rows", type=int, default=4)
    p_syn.add_argument(
        "--zipf",
        type=float,
        default=0.0,
        help="hot-slot skew exponent (slot popularity ~ 1/rank^s)",
    )
    p_syn.add_argument(
        "--pin-fraction",
        type=float,
        default=0.0,
        help="fraction of requests pinned to their true (building, floor)",
    )
    p_syn.add_argument(
        "--observe-fraction",
        type=float,
        default=0.0,
        metavar="FRAC",
        help=(
            "fraction of requests sent as labeled /observe ingests into "
            "the live-update loop instead of localizations"
        ),
    )
    p_syn.add_argument(
        "--chaos-malformed", type=float, default=0.0, metavar="FRAC"
    )
    p_syn.add_argument(
        "--chaos-oversized", type=float, default=0.0, metavar="FRAC"
    )
    p_syn.add_argument(
        "--chaos-misroute", type=float, default=0.0, metavar="FRAC"
    )
    p_syn.add_argument(
        "--chaos-bad-observe",
        type=float,
        default=0.0,
        metavar="FRAC",
        help=(
            "fraction of requests sent as malformed/mislabeled /observe "
            "payloads (must 400 without poisoning any buffer)"
        ),
    )
    p_syn.add_argument(
        "--json", metavar="PATH", default=None, help="write the run report here"
    )
    p_syn.set_defaults(fn=_cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
