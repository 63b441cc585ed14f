"""The brt command line: its parser and entry point, with no import beyond the
standard library, so that ``--help`` and usage errors (exit 2) return before
numpy or any analysis module is imported. A parsed command runs through
``brt.cli.run``.
"""

from __future__ import annotations

import argparse

# The most points one profile or surface may have (a 1024 x 1024 surface), checked
# before any grid is made, since a surface allocates grid-squared points.
MAX_GRID_POINTS = 1 << 20

# train's flags that set BoostConfig fields: flag, field (the flag's dest), type, help.
BOOST_FLAGS = (
    ("--trees", "n_trees", int, "number of boosting stages"),
    ("--learn-rate", "learn_rate", float, "shrinkage factor per stage"),
    ("--max-nodes", "max_nodes", int, "total node budget per tree"),
    ("--min-leaf", "min_leaf_obs", int, "minimum records per leaf"),
    ("--subsample", "subsample_fraction", float, "row fraction drawn per stage"),
    ("--seed", "seed", int, "random seed"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brt", description="Boosted regression trees with interpretation analytics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write fit diagnostics")
    p.add_argument("data", help="model-table CSV")
    p.add_argument("--out", default=".", help="output directory")
    for flag, field, kind, help in BOOST_FLAGS:
        p.add_argument(flag, type=kind, dest=field, metavar=flag[2:].upper().replace("-", "_"), help=help)
    p.add_argument("--stride", type=int, default=None, help="staged-curve stride (default n_trees/500)")
    p.add_argument("--roc-threshold", default="median", help="median | mean | value:x")

    p = sub.add_parser("report", help="influence and interaction tables for a fitted model")
    p.add_argument("model", help="model file (brtm/1)")
    p.add_argument("data", help="model-table CSV")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--top", type=int, default=5, help="pairwise rows to print")
    p.add_argument(
        "--interaction-denominator",
        choices=("model", "response"),
        default="model",
        help="normalise interaction scores by model-output or response variation",
    )

    p = sub.add_parser("pdp", help="partial dependence curves and surfaces")
    p.add_argument("model", help="model file (brtm/1)")
    p.add_argument("data", help="model-table CSV")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--feature", default=None, help="feature name")
    p.add_argument("--feature2", default=None, help="second feature (makes a surface)")
    p.add_argument("--all", action="store_true", help="one profile per feature")
    grid_help = f"linear grid size (default: observed values); at most {MAX_GRID_POINTS} points per profile or surface"
    p.add_argument("--grid", type=int, default=None, help=grid_help)

    p = sub.add_parser("build-data", help="assemble the model table from raw series CSVs")
    p.add_argument("--raw", required=True, help="directory of raw series CSVs")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--rain-mean", type=float, default=None, help="long-term mean rainfall (mm)")
    p.add_argument("--msp-weight-year", type=int, default=2005, help="production-share year for MSP weights")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .cli import run  # numpy and the analysis modules load only for a command that runs

    return run(args)
