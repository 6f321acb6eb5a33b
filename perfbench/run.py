"""End-to-end serving benchmark: one command, three workloads.

    python3 perfbench/run.py --workload knn-lone --seed 0 --seconds 10 --trace 0

Starts the real server as a ``repro serve`` subprocess on a fresh copy
of artifacts fitted once per invocation, drives it over keep-alive HTTP
from one client process (closed loop), checks every answer bit for bit
against ``predict_batched`` on the same artifacts, and prints each
metric by name with unit and sample count. The last stdout line is the
JSON result.

``--trace 0`` reports the end-to-end metrics (tracing off). ``--trace 1``
is the separate traced pass: an untraced and a traced closed loop on one
server, ``/models`` and ``/metrics`` deltas, and timed replays of each
layer's public calls, reported as the per-layer ledger. Both passes
write a markdown scorecard to ``perfbench/results/<run_id>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Server starts per ``--trace 0`` run; ``setup_s`` is their median. The
#: last one serves the measured loop.
SETUP_STARTS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="knn-lone, stone-batch64, fleet-mixed, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: draws the requests (models use seed 0)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Before numpy loads: one BLAS thread here as in the server.
    from harness import SINGLE_THREAD_ENV

    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; "
              f"known: all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    results = {name: run_one(WORKLOADS[name](), args) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]].to_json()))
    else:
        print(json.dumps({
            "correct": all(r.correct for r in results.values()),
            "attempted": sum(r.attempted for r in results.values()),
            "failed": sum(r.failed for r in results.values()),
            "metrics": {
                f"{name}/{key}": value
                for name, r in results.items()
                for key, value in r.to_json()["metrics"].items()
            },
        }))
    return 0


def run_one(workload, args):
    """One workload's pass; prints its table and writes its scorecard."""
    import passes
    import report

    mode = "trace" if args.trace else "e2e"
    run_id = f"{workload.name.replace('-', '_')}_seed{args.seed}_{mode}"
    work = HERE / ".work" / f"{run_id}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = passes.run_traced(workload, args.seed, args.seconds, work, ROOT)
        else:
            result = passes.run_e2e(
                workload, args.seed, args.seconds, work, ROOT,
                setup_starts=SETUP_STARTS,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir = HERE / "results" / run_id
    report.write_scorecard(out_dir, run_id, workload, args, result)
    print(f"== {workload.name}")
    report.print_table(result)
    print(f"scorecard: {out_dir / 'scorecard.md'}")
    return result

if __name__ == "__main__":
    sys.exit(main())
