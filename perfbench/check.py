"""Output checks and input-property counts for one workload run.

Every check is one operation: it passes or it counts as failed. Checks
read only the files the CLI wrote, plus the model through the package's
public ``load_model`` and ``predict_batch``. numpy and brt are imported
only inside the checks that need them: a child's peak RSS, as wait4
reports it, includes the RSS of the parent it was forked from, so run.py
stays small until its timed commands are done.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 1  # the CLI's default --seed
REFERENCE_TOL = 1e-12

# Train outputs must match the reference byte for byte; analysis CSVs are
# compared as numbers so that dust-level scores may legitimately become 0.
DIGEST_FILES = ("model.brtm", "metrics.csv", "actual_vs_predicted.csv", "staged_mse.csv")


def expected_outputs(label: str, feature_names, surface) -> list[str]:
    if label == "train":
        return [*DIGEST_FILES, "actual_vs_predicted.svg", "staged_mse.svg"]
    if label == "report":
        return ["influence.csv", "influence.svg", "interactions_pairwise.csv", "interactions_overall.csv"]
    if label == "pdp_all":
        return [f"pd_{n}.{ext}" for n in feature_names for ext in ("csv", "svg")]
    if label == "surface":
        return [f"pd_{surface[0]}_x_{surface[1]}.{ext}" for ext in ("csv", "svg")]
    raise ValueError(f"unknown command label {label!r}")


def feature_names(table: Path) -> list[str]:
    header = read_table(table)["header"]
    return [h for h in header[1:] if h != "FCPI"]


def analysis_csvs(out: Path) -> list[str]:
    names = ["influence.csv", "interactions_pairwise.csv", "interactions_overall.csv"]
    return names + sorted(p.name for p in out.glob("pd_*.csv"))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": [[_cell(c) for c in row] for row in rows[1:]]}


def _keyed(table: dict) -> dict:
    """Rows keyed by their text cells (feature names), or by position when
    every cell is a number; ranked tables may reorder tied rows."""
    out = {}
    for i, row in enumerate(table["rows"]):
        key = tuple(c for c in row if isinstance(c, str)) or (i,)
        out[key] = [c for c in row if not isinstance(c, str)]
    return out


def tables_match(got: dict, ref: dict, tol: float = REFERENCE_TOL) -> str | None:
    """None when equal within tol (absolute below 1, relative above), else why not."""
    if got["header"] != ref["header"]:
        return f"header {got['header']} != {ref['header']}"
    g, r = _keyed(got), _keyed(ref)
    if g.keys() != r.keys():
        return "row keys differ"
    for key, ref_nums in r.items():
        for a, b in zip(g[key], ref_nums):
            if not abs(a - b) <= tol * max(1.0, abs(b)):
                return f"row {key}: {a!r} differs from reference {b!r}"
    return None


class Checks:
    """Counts operations (commands and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}" + (f": {detail}" if detail else ""), file=sys.stderr)
        return ok


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def snapshot(out: Path) -> dict:
    """Reference document for a run at REFERENCE_SEED."""
    return {
        "seed": REFERENCE_SEED,
        "sha256": {name: sha256(out / name) for name in DIGEST_FILES},
        "tables": {name: read_table(out / name) for name in analysis_csvs(out)},
    }


def check_reference(checks: Checks, out: Path, ref: dict) -> None:
    for name, want in ref["sha256"].items():
        path = out / name
        checks.record(f"sha256 {name}", path.is_file() and sha256(path) == want, "differs from reference")
    for name, table in ref["tables"].items():
        path = out / name
        why = tables_match(read_table(path), table) if path.is_file() else "missing"
        checks.record(f"reference {name}", why is None, why or "")


def check_invariants(checks: Checks, out: Path, model, data) -> None:
    """Contracts that hold on every seed."""
    import numpy as np
    from brt import predict_batch

    influence = read_table(out / "influence.csv")["rows"]
    total = math.fsum(row[1] for row in influence)
    checks.record("influence sums to 100", abs(total - 100.0) <= 1e-9, f"sum {total!r}")

    pairs = read_table(out / "interactions_pairwise.csv")["rows"]
    scores = [row[2] for row in pairs]
    checks.record(
        "pairwise scores finite and >= 0", all(math.isfinite(s) and s >= 0.0 for s in scores), f"{scores}"
    )

    overall = {row[0]: row[1] for row in read_table(out / "interactions_overall.csv")["rows"]}
    bad = []
    for name, score in overall.items():
        own = math.fsum(s for a, b, s in pairs if name in (a, b))
        if not abs(score - own) <= 1e-12 * max(1.0, abs(own)):
            bad.append(f"{name}: {score!r} vs {own!r}")
    checks.record("overall = sum of pairwise", not bad and len(overall) == model.n_features, "; ".join(bad))

    predicted = np.array([row[2] for row in read_table(out / "actual_vs_predicted.csv")["rows"]])
    again = predict_batch(model, data.X)
    checks.record("reloaded predict_batch reproduces predicted column", np.array_equal(predicted, again))


def structure_key(tree) -> bytes:
    """Routing structure of a tree: split features, thresholds, missing-value
    directions and child links (leaf values excluded)."""
    return b"|".join(
        a.tobytes() for a in (tree.feature, tree.threshold, tree.missing_right, tree.left, tree.right)
    )


def input_properties(model, data) -> dict:
    """Exact counts of the properties later optimisations depend on."""
    import numpy as np

    d = model.n_features
    structures = set()
    shared = np.zeros((d, d), dtype=bool)
    for stage in model.stages:
        structures.add(structure_key(stage.tree))
        used = np.unique(stage.tree.feature[stage.tree.feature >= 0])
        shared[np.ix_(used, used)] = True
    pairs_sharing = int(np.triu(shared, 1).sum())
    gammas = np.array([s.gamma for s in model.stages])
    return {
        "rows": int(data.X.shape[0]),
        "predictors": int(d),
        "nan_cells": int(np.isnan(data.X).sum()),
        "stages": model.n_stages,
        "distinct_structures": len(structures),
        "pairs_sharing_tree": pairs_sharing,
        "pairs_total": d * (d - 1) // 2,
        "max_gamma_dev": float(np.abs(gammas - 1.0).max()) if gammas.size else 0.0,
    }
