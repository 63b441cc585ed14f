"""Regenerate perfbench/reference/<workload>.json from the program as it is.

From the repository root:

    python3 perfbench/make_reference.py flagship diverse

Runs each named workload's command sequence once at the reference seed and
stores the sha256 of the train outputs and the numbers of the analysis
CSVs, which run.py compares against on that seed. Regenerate only for a
change that is meant to alter outputs, and say so where the change is
described.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import check
import run
from workloads import WORKLOADS, prepare_table


def dump(doc: dict) -> str:
    """Indented JSON with each table row on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main(names: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    for name in names:
        workload = WORKLOADS[name]
        work = root / run.WORK_DIR / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            table = root / prepare_table(workload, check.REFERENCE_SEED, work)
            out = work / "out"
            for label, argv in workload.commands(table, out, check.REFERENCE_SEED):
                if run.run_in_process(argv, work / "log.txt") != 0:
                    print(f"{name}: {label} failed; see {work / 'log.txt'}", file=sys.stderr)
                    return 1
            doc = check.snapshot(out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = check.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(dump(doc), encoding="utf-8")
        print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or ["flagship", "diverse"]))
