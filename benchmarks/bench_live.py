#!/usr/bin/env python
"""Benchmark the live loop: hot-swap under traffic + drift recovery.

The live subsystem (repro.live) promises two things this bench gates:

1. **Arm A — atomic hot-swap under sustained load.** Closed-loop
   clients hammer two slots of a fleet while one slot is observed,
   refit and hot-swapped mid-stream. Gates:

   * ``zero_dropped_ok`` — every request issued during the swap window
     is answered; no exception, no timeout, no 5xx-equivalent.
   * ``swap_identity_ok`` — every answer from the swapped slot is
     bit-identical to either the old model's or the new model's direct
     prediction (never a mixed-version batch, never a third value).
   * ``unchanged_slot_identical`` — the untouched slot's answers stay
     bit-identical to its direct prediction through the entire window.
   * ``swap_visible`` — the swap shows up on the metrics registry
     (``repro_live_swaps_total``) and in the slot's bumped version.

2. **Arm B — drift-then-refit accuracy recovery.** The drifted test
   month's labeled scans stream in through the live loop; after the
   refit the new model must localize a *held-out* part of that month at
   least as well as the old model did (``recovered_ok``), and
   ``recovery_ratio`` (old error / new error, higher is better) is the
   regression-gated numeric.

``--full`` adds a workers=2 leg of Arm A: the swap rides the worker
pipe protocol (shared-memory republish + adopt), answers stay
bit-identical, and no ``/dev/shm`` segment leaks after close.

Run standalone (pytest does not collect ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_live.py --quick
    PYTHONPATH=src python benchmarks/bench_live.py --full
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from _bench_common import write_json_report

from repro.api import FleetSpec
from repro.eval.metrics import localization_errors
from repro.fleet.frontend import FleetDispatcher
from repro.fleet.experiment import fleet_epoch_traffic
from repro.live import LiveManager
from repro.obs import MetricsRegistry


def build_fleet(args, *, model_dir=None):
    spec = FleetSpec.from_string(
        "HQ:2",
        framework=args.framework,
        seed=args.seed,
        fast=True,
        months=2,
        aps_per_floor=10 if args.quick else 24,
        model_dir=model_dir,
    )
    return spec.build_registry()


def slot_block(registry, building, scans):
    return registry.building(building).block(scans)


async def _swap_window(
    dispatcher, live, registry, *, probe, obs_rssi, obs_xy, clients, rounds
):
    """Drive both slots closed-loop while HQ/f0 is observed + swapped.

    Returns (answers_f0, answers_f1, swap_summary, dropped).
    """
    answers_f0: list[np.ndarray] = []
    answers_f1: list[np.ndarray] = []
    dropped = 0
    swapped = asyncio.Event()

    async def client(floor, sink):
        nonlocal dropped
        # Keep hammering until the swap lands, then a few more rounds so
        # post-swap traffic is measured too.
        post = 0
        while post < rounds:
            if swapped.is_set():
                post += 1
            try:
                coords, _ = await dispatcher.localize(
                    probe, building="HQ", floor=floor
                )
            except Exception:
                dropped += 1
                continue
            sink.append(np.asarray(coords))

    async def swapper():
        await live.observe(obs_rssi, obs_xy, building="HQ", floor=0)
        summary = await live.refit_now("HQ", 0)
        swapped.set()
        return summary

    tasks = [
        asyncio.create_task(client(0, answers_f0)) for _ in range(clients)
    ] + [
        asyncio.create_task(client(1, answers_f1)) for _ in range(clients)
    ]
    summary = await swapper()
    await asyncio.gather(*tasks)
    return answers_f0, answers_f1, summary, dropped


def run_swap_arm(args, *, workers: int = 0) -> dict:
    """Arm A: hot-swap under closed-loop load; returns the gate dict."""
    registry = build_fleet(args)
    scans, true_b, true_f, true_xy = fleet_epoch_traffic(registry, 1)
    f0 = (true_b == 0) & (true_f == 0)
    n_obs = min(48, int(f0.sum()))
    obs_rssi, obs_xy = scans[f0][:n_obs], true_xy[f0][:n_obs]
    probe = scans[:8]

    kwargs: dict = dict(batch_window_ms=0.5)
    if workers:
        kwargs["workers"] = workers
    shm_before = set(glob.glob("/dev/shm/repro-shm-*"))
    dispatcher = FleetDispatcher(registry, **kwargs)
    metrics = MetricsRegistry()
    dispatcher.bind_metrics(metrics)
    live = LiveManager(dispatcher)
    live.bind_metrics(metrics)

    slot0 = registry.slot("HQ", 0)
    slot1 = registry.slot("HQ", 1)
    v1_direct = slot0.entry.localizer.predict_batched(
        slot_block(registry, "HQ", probe)
    )
    f1_direct = slot1.entry.localizer.predict_batched(
        slot_block(registry, "HQ", probe)
    )
    old_version = slot0.version

    t0 = time.perf_counter()
    try:
        answers_f0, answers_f1, summary, dropped = asyncio.run(
            _swap_window(
                dispatcher, live, registry,
                probe=probe, obs_rssi=obs_rssi, obs_xy=obs_xy,
                clients=args.clients, rounds=args.post_rounds,
            )
        )
        window_s = time.perf_counter() - t0
        v2_direct = registry.slot("HQ", 0).entry.localizer.predict_batched(
            slot_block(registry, "HQ", probe)
        )
        swap_identity_ok = all(
            np.array_equal(a, v1_direct) or np.array_equal(a, v2_direct)
            for a in answers_f0
        )
        saw_both = any(np.array_equal(a, v2_direct) for a in answers_f0)
        unchanged_ok = all(np.array_equal(a, f1_direct) for a in answers_f1)
        text = metrics.snapshot().to_text()
        swap_visible = (
            "repro_live_swaps_total" in text
            and registry.slot("HQ", 0).version == old_version + 1
        )
    finally:
        live.close()
        dispatcher.close()
    leaked = sorted(
        set(glob.glob("/dev/shm/repro-shm-*")) - shm_before
    )

    label = f"workers={workers}" if workers else "in-process"
    print(
        f"[{label}] swap in {summary['seconds'] * 1e3:.1f}ms; "
        f"{len(answers_f0) + len(answers_f1)} answers in {window_s:.2f}s "
        f"window, dropped={dropped}, post-swap answers seen={saw_both}"
    )
    return {
        "zero_dropped_ok": dropped == 0,
        "swap_identity_ok": swap_identity_ok and saw_both,
        "unchanged_slot_identical": unchanged_ok,
        "swap_visible": swap_visible,
        "shm_released": not leaked,
        "swap_ms": round(summary["seconds"] * 1e3, 2),
        "answers": len(answers_f0) + len(answers_f1),
    }


def run_recovery_arm(args) -> dict:
    """Arm B: drifted-month observations must recover accuracy.

    The fleet here is deliberately drift-heavy (sparse APs, last of 4
    longitudinal months) regardless of ``--quick``: recovery is only a
    meaningful claim when the serving model has actually degraded — on
    a barely-drifted fleet a refit from nearest-RP-snapped observations
    can only add label noise.
    """
    spec = FleetSpec.from_string(
        "HQ:2",
        framework=args.framework,
        seed=args.seed,
        fast=True,
        months=4,
        aps_per_floor=10,
    )
    registry = spec.build_registry()
    drifted_epoch = 3
    scans, true_b, true_f, true_xy = fleet_epoch_traffic(
        registry, drifted_epoch
    )
    f0 = np.flatnonzero((true_b == 0) & (true_f == 0))
    half = len(f0) // 2
    obs_idx, eval_idx = f0[:half], f0[half:]
    block = slot_block(registry, "HQ", scans)

    slot = registry.slot("HQ", 0)
    before = float(np.mean(localization_errors(
        slot.entry.localizer.predict_batched(block[eval_idx]),
        true_xy[eval_idx],
    )))

    dispatcher = FleetDispatcher(registry, batch_window_ms=0.5)
    live = LiveManager(dispatcher)
    try:
        async def go():
            await live.observe(
                scans[obs_idx], true_xy[obs_idx], building="HQ", floor=0
            )
            return await live.refit_now("HQ", 0)

        summary = asyncio.run(go())
    finally:
        live.close()
        dispatcher.close()

    after = float(np.mean(localization_errors(
        registry.slot("HQ", 0).entry.localizer.predict_batched(
            block[eval_idx]
        ),
        true_xy[eval_idx],
    )))
    ratio = before / after if after > 0 else float("inf")
    recovered_ok = after <= before * 1.05
    print(
        f"[recovery] drifted-month error: {before:.2f}m -> {after:.2f}m "
        f"after refit on {len(obs_idx)} observations "
        f"(ratio {ratio:.2f}, new digest {summary['digest']})"
    )
    return {
        "recovery_ratio": round(ratio, 3),
        "recovered_ok": recovered_ok,
        "err_before_m": round(before, 3),
        "err_after_m": round(after, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale: tiny fleet"
    )
    parser.add_argument(
        "--full", action="store_true",
        help="also run the workers=2 swap leg (nightly)",
    )
    parser.add_argument("--framework", default="KNN")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--post-rounds", type=int, default=3,
        help="per-client requests measured after the swap lands",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write gate metrics as JSON (CI regression harness)",
    )
    args = parser.parse_args(argv)

    swap = run_swap_arm(args)
    recovery = run_recovery_arm(args)
    metrics = {
        "zero_dropped_ok": swap["zero_dropped_ok"],
        "swap_identity_ok": swap["swap_identity_ok"],
        "unchanged_slot_identical": swap["unchanged_slot_identical"],
        "swap_visible": swap["swap_visible"],
        "recovery_ratio": recovery["recovery_ratio"],
        "recovered_ok": recovery["recovered_ok"],
    }
    info = {
        "framework": args.framework,
        "clients": args.clients,
        "swap_ms": swap["swap_ms"],
        "answers_in_window": swap["answers"],
        "err_before_m": recovery["err_before_m"],
        "err_after_m": recovery["err_after_m"],
    }
    if args.full:
        mp = run_swap_arm(args, workers=2)
        metrics["mp_zero_dropped_ok"] = mp["zero_dropped_ok"]
        metrics["mp_swap_identity_ok"] = mp["swap_identity_ok"]
        metrics["mp_shm_released"] = mp["shm_released"]
        info["mp_swap_ms"] = mp["swap_ms"]

    ok = all(v for v in metrics.values() if isinstance(v, bool))
    print(f"\n{'PASS' if ok else 'FAIL'}: live hot-swap / recovery gates")
    if args.json:
        write_json_report(
            args.json, bench="live", quick=args.quick,
            metrics=metrics, info=info,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
