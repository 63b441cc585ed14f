"""Workload definitions: the inputs each workload feeds the brt CLI and the
command sequence it runs on them.

Every workload is a closed loop with one client: each command starts only
after the previous one has exited. ``train`` is the write path; ``report``,
``pdp --all`` (many small batches) and the surface (one large batch) are
the read path.

Tree counts are scaled down from the paper's 50,000 so that one run of the
benchmark repeats the whole sequence several times within its time budget
(the full paper run takes over two minutes on a 2-vCPU machine). The
``paper`` workload keeps every default and is meant to be run by hand.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

STANDIN_TABLE = Path("src/brt/resources/synthetic_standin.csv")

DIVERSE_ROWS = 40
DIVERSE_PREDICTORS = 8
DIVERSE_NAN_PER_COLUMN = (3, 2)  # alternating: 20 of 320 cells, about 6%


@dataclass(frozen=True)
class Workload:
    name: str
    train_flags: tuple[str, ...]
    surface: tuple[str, str]
    surface_flags: tuple[str, ...] = ()
    time_limit_s: float = 165.0  # the benchmark contract allows 180 s per run

    def commands(self, table: Path, out: Path, seed: int, trees: int | None = None) -> list[tuple[str, list[str]]]:
        """(label, argv) per command, in the order they run."""
        flags = list(self.train_flags)
        if trees is not None:
            flags = _replace_flag(flags, "--trees", str(trees))
        model = str(out / "model.brtm")
        common = [str(table), "--out", str(out)]
        j, k = self.surface
        return [
            ("train", ["train", *common, *flags, "--seed", str(seed)]),
            ("report", ["report", model, *common]),
            ("pdp_all", ["pdp", model, *common, "--all"]),
            ("surface", ["pdp", model, *common, "--feature", j, "--feature2", k, *self.surface_flags]),
        ]


def _replace_flag(flags: list[str], name: str, value: str) -> list[str]:
    if name in flags:
        i = flags.index(name)
        return flags[:i] + [name, value] + flags[i + 2 :]
    return flags + [name, value]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's run on the bundled stand-in table (25 rows, 3 NaN cells):
        # 5-node trees, so per-stage overhead dominates the fit. At seed 1 the
        # 1200 stages have 43 distinct structures and 3 of the 21 feature
        # pairs share a tree, so structure reuse, pair restriction and NaN
        # shortcuts can all show.
        Workload(
            name="flagship",
            train_flags=("--trees", "1200"),
            surface=("MSP", "FWI"),
        ),
        # The bypass case: a generated 40x8 table with missing cells in every
        # predictor and 13-node trees, so no structure repeats (300 of 300 at
        # seed 1), all 28 pairs share a tree and the split search and deep
        # routing dominate. The optimisations above should leave it unchanged.
        Workload(
            name="diverse",
            train_flags=("--trees", "300", "--max-nodes", "13", "--learn-rate", "0.01", "--subsample", "0.8"),
            surface=("P1", "P2"),
            surface_flags=("--grid", "16"),
        ),
        # The paper's run with every default (50,000 trees), for checking the
        # flagship figures by hand; too slow for the repeated benchmark runs.
        Workload(
            name="paper",
            train_flags=(),
            surface=("MSP", "FWI"),
            time_limit_s=900.0,
        ),
    )
}


def diverse_table(seed: int) -> str:
    """CSV text of a 40-row x 8-predictor model table generated from `seed`.

    Predictors are percent-scale with 2 or 3 missing cells in each column
    (about 6%); the counts are fixed so that every seed asks the same amount
    of work. The response has main effects plus pairwise products so that
    many feature pairs interact.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n, d = DIVERSE_ROWS, DIVERSE_PREDICTORS
    X = np.round(rng.uniform(-10.0, 20.0, size=(n, d)), 2)
    main = rng.uniform(-0.5, 0.5, size=d)
    inter = rng.uniform(-0.05, 0.05, size=(d, d))
    y = 5.0 + X @ main + np.einsum("ij,jk,ik->i", X, np.triu(inter, 1), X) + rng.normal(0.0, 0.5, size=n)
    for j in range(d):
        holes = rng.choice(n, size=DIVERSE_NAN_PER_COLUMN[j % 2], replace=False)
        X[holes, j] = np.nan
    names = [f"P{j + 1}" for j in range(d)]
    lines = [",".join(["year", "FCPI", *names])]
    for i in range(n):
        cells = ["" if np.isnan(v) else repr(float(v)) for v in X[i]]
        lines.append(",".join([str(1977 + i), repr(round(float(y[i]), 4)), *cells]))
    return "\n".join(lines) + "\n"


def prepare_table(workload: Workload, seed: int, work: Path) -> Path:
    """Write (or locate) the workload's input table; the CLI sees only this file.

    The table is generated in a child process so that the caller does not
    import numpy (see check.py on peak RSS).
    """
    if workload.name != "diverse":
        return STANDIN_TABLE
    path = work / f"diverse_{seed}.csv"
    subprocess.run([sys.executable, __file__, str(seed), str(path)], check=True, timeout=60)
    return path


if __name__ == "__main__":
    Path(sys.argv[2]).write_text(diverse_table(int(sys.argv[1])), encoding="utf-8")
