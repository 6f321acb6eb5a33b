"""Result shape, the printed table, and the markdown scorecard."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int

    def cell(self) -> str:
        return f"{self.value:.6g}"


@dataclass
class Result:
    """One run: the contract metrics plus what the scorecard explains."""

    correct: bool
    attempted: int
    failed: int
    metrics: list[Metric]
    extra: list[Metric]
    checks: list[tuple[str, bool, str]]
    ledger: list[tuple[str, float, str]] | None = None

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m.name: {"value": m.value, "unit": m.unit} for m in self.metrics
            },
        }


def print_table(result: Result) -> None:
    width = max(len(m.name) for m in result.metrics + result.extra)
    print(f"{'metric':<{width}}  {'value':>12}  {'unit':<6}  samples")
    for m in result.metrics + result.extra:
        print(f"{m.name:<{width}}  {m.cell():>12}  {m.unit:<6}  {m.samples}")
    if result.ledger:
        print("\nledger (mean ms per traced request):")
        for stage, ms, note in result.ledger:
            print(f"  {stage:<38} {ms:10.4f}  {note}")
    for name, ok, detail in result.checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"attempted={result.attempted} failed={result.failed} "
          f"correct={result.correct}")


def write_scorecard(out_dir: Path, run_id: str, workload, args, result: Result) -> None:
    """``results/<run_id>/scorecard.md`` plus the raw ``result.json``."""
    from workloads import PREDICTIONS

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# Scorecard `{run_id}`",
        "",
        f"- workload: `{workload.name}` (seed {args.seed}, "
        f"{args.seconds:g} s measured, trace {args.trace})",
        f"- server: `repro serve {' '.join(workload.serve_args)}`",
        f"- clients: {workload.mix} (closed loop)",
        f"- why: {workload.why}",
        f"- attempted {result.attempted}, failed {result.failed}, "
        f"correct {result.correct}",
        "",
        "## Metrics",
        "",
        "| metric | value | unit | samples |",
        "|---|---:|---|---:|",
    ]
    lines += [f"| {m.name} | {m.cell()} | {m.unit} | {m.samples} |"
              for m in result.metrics + result.extra]
    if result.ledger:
        lines += ["", "## Latency ledger (mean ms per traced request)", "",
                  "| stage | ms | inside |", "|---|---:|---|"]
        lines += [f"| {s} | {ms:.4f} | {note} |" for s, ms, note in result.ledger]
    lines += ["", "## Consistency checklist", ""]
    lines += [f"- [{'x' if ok else ' '}] {name} — {detail}"
              for name, ok, detail in result.checks]
    lines += ["", "## Layer → end-to-end predictions", "",
              "| layer metric | should move | on | prediction |",
              "|---|---|---|---|"]
    lines += [f"| {a} | {b} | {c} | {d} |" for a, b, c, d in PREDICTIONS]
    (out_dir / "scorecard.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "result.json").write_text(
        json.dumps({
            **result.to_json(),
            "samples": {m.name: m.samples for m in result.metrics},
            "extra": {m.name: {"value": m.value, "unit": m.unit,
                               "samples": m.samples} for m in result.extra},
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in result.checks],
        }, indent=2) + "\n",
        encoding="utf-8",
    )
