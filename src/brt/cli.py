"""Command-line interface: train, report, pdp, build-data.

Every figure is written as a deterministic SVG next to a CSV holding
exactly the plotted numbers. Exit codes: 0 success, 1 runtime or model
error, 2 usage error (argparse's convention).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import svg
from .boosting import BoostConfig, fit_ensemble, predict_batch, staged_metric
from .data import fy_label, load_model_table, load_raw_directory, assemble_model_table, write_model_table
from .interpret import (
    MAX_GRID_POINTS, interaction_report, partial_dependence_1d, partial_dependence_2d, relative_influence
)
from .metrics import fit_report, resolve_threshold
from .model_io import load_model, save_model


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _add_boost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=None, help="number of boosting stages")
    p.add_argument("--learn-rate", type=float, default=None, help="shrinkage factor per stage")
    p.add_argument("--max-nodes", type=int, default=None, help="total node budget per tree")
    p.add_argument("--min-leaf", type=int, default=None, help="minimum records per leaf")
    p.add_argument("--subsample", type=float, default=None, help="row fraction drawn per stage")
    p.add_argument("--seed", type=int, default=None, help="random seed")


def _config_from_args(args) -> BoostConfig:
    overrides = {}
    for flag, field in (
        ("trees", "n_trees"),
        ("learn_rate", "learn_rate"),
        ("max_nodes", "max_nodes"),
        ("min_leaf", "min_leaf_obs"),
        ("subsample", "subsample_fraction"),
        ("seed", "seed"),
    ):
        v = getattr(args, flag)
        if v is not None:
            overrides[field] = v
    return BoostConfig(**overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _feature_index(model, name: str) -> int:
    try:
        return model.feature_names.index(name)
    except ValueError:
        raise ValueError(f"unknown feature {name!r}; valid names: {', '.join(model.feature_names)}") from None


def _load_model_and_table(args) -> tuple:
    """The model and the model table a command reads; their feature names must agree."""
    model, data = load_model(args.model), load_model_table(args.data)
    if tuple(model.feature_names) != tuple(data.feature_names):
        only_model = [n for n in model.feature_names if n not in data.feature_names]
        only_data = [n for n in data.feature_names if n not in model.feature_names]
        raise ValueError(
            f"feature names of model {args.model} and data {args.data} differ"
            + (f"; only in model: {only_model}" if only_model else "")
            + (f"; only in data: {only_data}" if only_data else "")
            + ("; order differs" if not only_model and not only_data else "")
        )
    return model, data


@contextlib.contextmanager
def _naming(*inputs):
    """A ValueError raised inside is about these inputs taken together: name them."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{' with '.join(map(str, inputs))}: {e}") from None


def cmd_train(args) -> int:
    data = load_model_table(args.data)
    config = _config_from_args(args)
    threshold = resolve_threshold(data.y, args.roc_threshold)  # checked before the fit, which it does not change
    out = _out_dir(args)

    model = fit_ensemble(data, config)
    save_model(model, out / "model.brtm")

    preds = predict_batch(model, data.X)
    report = fit_report(data.y, preds, roc_threshold=threshold)
    _write_csv(
        out / "metrics.csv",
        ["metric", "value"],
        [[name, value] for name, value in report.rows()] + [["n", report.n]],
    )

    years = np.asarray(data.years, dtype=np.float64)
    _write_csv(
        out / "actual_vs_predicted.csv",
        ["year", "actual", "predicted"],
        [[y, float(a), float(p)] for y, a, p in zip(data.years, data.y, preds)],
    )
    svg.line_chart(
        out / "actual_vs_predicted.svg",
        "Model fit on the learn sample",
        years,
        [("actual", data.y), ("predicted", preds)],
        "fiscal year",
        data.response_name,
    )

    if model.n_stages > 0:
        curve = staged_metric(model, data, metric="mse", stride=args.stride)
        ks = np.asarray([k for k, _ in curve.points], dtype=np.float64)
        ms = np.asarray([v for _, v in curve.points])
        _write_csv(out / "staged_mse.csv", ["n_trees", "mse"], [[int(k), float(v)] for k, v in curve.points])
        svg.line_chart(out / "staged_mse.svg", "Training MSE vs number of trees", ks, [("mse", ms)], "trees", "MSE")

    print(f"trained {model.n_stages} stages on {report.n} rows -> {out / 'model.brtm'}")
    for name, value in report.rows():
        print(f"  {name:8s} {value:.5f}")
    return 0


def cmd_report(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be at least 0, got {args.top}")
    model, data = _load_model_and_table(args)
    out = _out_dir(args)

    with _naming(args.model, args.data):
        ranked = relative_influence(model).ranked()
        interactions = interaction_report(model, data, denominator=args.interaction_denominator)
    _write_csv(out / "influence.csv", ["feature", "percent"], [[n, v] for n, v in ranked])
    svg.bar_chart(
        out / "influence.svg",
        "Relative influence of predictors",
        [n for n, _ in ranked],
        [v for _, v in ranked],
        "share of squared split improvement (%)",
    )

    pair_rows = [
        [model.feature_names[a], model.feature_names[b], score]
        for (a, b), score in interactions.pairwise_ranked()
    ]
    _write_csv(out / "interactions_pairwise.csv", ["feature_i", "feature_j", "score"], pair_rows)
    overall_rows = [[model.feature_names[j], score] for j, score in interactions.overall_ranked()]
    _write_csv(out / "interactions_overall.csv", ["feature", "score"], overall_rows)

    print("relative influence (%):")
    for name, v in ranked:
        print(f"  {name:12s} {v:7.2f}")
    print(f"top pairwise interactions (of {len(pair_rows)}):")
    for row in pair_rows[: args.top]:
        print(f"  {row[0]:12s} x {row[1]:12s} {row[2]:7.2f}")
    print("overall interaction strength:")
    for name, v in overall_rows:
        print(f"  {name:12s} {v:7.2f}")
    return 0


def cmd_pdp(args) -> int:
    if args.all and (args.feature or args.feature2):
        raise ValueError("--all cannot be combined with --feature/--feature2")
    if not args.all and not args.feature:
        raise ValueError("give --feature NAME (optionally --feature2 NAME) or --all")
    if args.feature and args.feature == args.feature2:
        raise ValueError("features must differ")
    model, data = _load_model_and_table(args)  # after the flag checks: loading a large model takes seconds
    out = _out_dir(args)
    grid = args.grid

    if args.all:
        features = list(model.feature_names)
    elif args.feature2:
        j = _feature_index(model, args.feature)
        k = _feature_index(model, args.feature2)
        with _naming(args.model, args.data):
            surface = partial_dependence_2d(model, j, k, data, grid_spec=grid)
        stem = f"pd_{args.feature}_x_{args.feature2}"
        rows = [
            [float(surface.grid_j[a]), float(surface.grid_k[b]), float(surface.values[a, b])]
            for a in range(len(surface.grid_j))
            for b in range(len(surface.grid_k))
        ]
        _write_csv(out / f"{stem}.csv", [args.feature, args.feature2, "dependence"], rows)
        svg.heatmap(
            out / f"{stem}.svg",
            f"Joint dependence: {args.feature} and {args.feature2}",
            surface.grid_j,
            surface.grid_k,
            surface.values,
            args.feature,
            args.feature2,
        )
        print(f"wrote {stem}.csv / .svg")
        return 0
    else:
        features = [args.feature]

    for name in features:
        j = _feature_index(model, name)
        with _naming(args.model, args.data):
            profile = partial_dependence_1d(model, j, data, grid_spec=grid)
        _write_csv(
            out / f"pd_{name}.csv",
            [name, "dependence"],
            [[float(g), float(v)] for g, v in zip(profile.grid, profile.values)],
        )
        svg.line_chart(
            out / f"pd_{name}.svg",
            f"Partial dependence: {name}",
            profile.grid,
            [("dependence", profile.values)],
            name,
            "centered mean response",
        )
    print(f"wrote {len(features)} partial dependence profile(s)")
    return 0


def cmd_build_data(args) -> int:
    series = load_raw_directory(args.raw)  # names the file at fault
    with _naming(args.raw):  # the series disagree: name the directory that holds them
        dataset, provenance = assemble_model_table(
            series, rain_mean=args.rain_mean, msp_weight_year=args.msp_weight_year
        )
    out = _out_dir(args)
    write_model_table(dataset, out / "model_table.csv")
    (out / "provenance.txt").write_text(provenance, encoding="utf-8")
    span = f"{fy_label(dataset.years[0])}-{fy_label(dataset.years[-1])}"
    print(f"built model table: {dataset.n_rows} rows ({span}) -> {out / 'model_table.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brt", description="Boosted regression trees with interpretation analytics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write fit diagnostics")
    p.add_argument("data", help="model-table CSV")
    p.add_argument("--out", default=".", help="output directory")
    _add_boost_flags(p)
    p.add_argument("--stride", type=int, default=None, help="staged-curve stride (default n_trees/500)")
    p.add_argument("--roc-threshold", default="median", help="median | mean | value:x")
    p.set_defaults(func=cmd_train)

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
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pdp", help="partial dependence curves and surfaces")
    p.add_argument("model", help="model file (brtm/1)")
    p.add_argument("data", help="model-table CSV")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--feature", default=None, help="feature name")
    p.add_argument("--feature2", default=None, help="second feature (makes a surface)")
    p.add_argument("--all", action="store_true", help="one profile per feature")
    grid_help = f"linear grid size (default: observed values); at most {MAX_GRID_POINTS} points per profile or surface"
    p.add_argument("--grid", type=int, default=None, help=grid_help)
    p.set_defaults(func=cmd_pdp)

    p = sub.add_parser("build-data", help="assemble the model table from raw series CSVs")
    p.add_argument("--raw", required=True, help="directory of raw series CSVs")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--rain-mean", type=float, default=None, help="long-term mean rainfall (mm)")
    p.add_argument("--msp-weight-year", type=int, default=2005, help="production-share year for MSP weights")
    p.set_defaults(func=cmd_build_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
