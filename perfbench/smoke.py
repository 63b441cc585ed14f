"""Smoke test of the benchmark harness at a tiny tree count.

Runs every workload in BENCHMARK.json through the same code as run.py,
untraced and traced, with 20 trees, and fails when a run is not correct or
prints other metrics than BENCHMARK.json names. It also checks that the
reference comparison tolerates what it should and nothing more. From the
repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
import run
from workloads import WORKLOADS

SMOKE_TREES = 20
SMOKE_SEED = 3
SMOKE_SECONDS = 2.0


def checker_problems() -> list[str]:
    ref = {"header": ["feature_i", "feature_j", "score"], "rows": [["a", "b", 12.5], ["a", "c", 1.3e-28], ["b", "c", 2e-28]]}
    # Dust-level scores may become exact zeros and reorder; real changes may not.
    zeroed = {"header": ref["header"], "rows": [["a", "b", 12.5], ["b", "c", 0.0], ["a", "c", 0.0]]}
    moved = {"header": ref["header"], "rows": [["a", "b", 12.5 + 1e-10], ["a", "c", 0.0], ["b", "c", 0.0]]}
    problems = []
    if check.tables_match(zeroed, ref) is not None:
        problems.append("reference check rejects dust scores turned into zeros")
    if check.tables_match(moved, ref) is None:
        problems.append("reference check accepts a score moved by 1e-10")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = checker_problems()
    for entry in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{entry['name']} trace={trace}"
            result, _ = run.run(root, WORKLOADS[entry["name"]], SMOKE_SEED, SMOKE_SECONDS, trace, trees=SMOKE_TREES)
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} operations failed")
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(f"{tag}: missing {sorted(wanted[trace] - got)}, unexpected {sorted(got - wanted[trace])}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
