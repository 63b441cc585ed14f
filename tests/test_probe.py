"""bench/probe.py as CI runs it: from the repo root, with src on the path."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = r"(\d+(?:\.\d+)?)"


def test_probe_prints_its_four_lines_with_plausible_numbers():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "bench/probe.py"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    load, masks, cache, fit = done.stdout.splitlines()

    peak, columns = re.fullmatch(rf"- load_model: tracemalloc peak {NUMBER} MB for {NUMBER} MB of columns", load).groups()
    assert float(peak) > 0 and float(columns) > 0
    builds = re.fullmatch(r"- interaction_report \(diverse seed 1\): the fail-mask builder ran (\d+) times", masks)
    assert int(builds.group(1)) > 0
    hits = re.fullmatch(rf"- _counts cache: {NUMBER}% of (\d+) searches hit, maxsize (\d+)", cache)
    assert 0 <= float(hits.group(1)) <= 100 and int(hits.group(2)) > 0
    per_stage = re.fullmatch(r"- fit in process, best of 3: flagship (\d+) us/stage, diverse (\d+) us/stage", fit)
    assert int(per_stage.group(1)) > 0 and int(per_stage.group(2)) > 0
