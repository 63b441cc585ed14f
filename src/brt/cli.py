"""The bodies of the commands train, report, pdp and build-data.

``brt.args`` parses the command line before this module, and numpy with
it, is imported; ``main`` here is that parser's entry point, and ``run``
runs the command it parsed. Every figure is written as a deterministic
SVG next to a CSV holding exactly the plotted numbers. Exit codes: 0
success, 1 runtime or model error, 2 usage error (argparse's convention).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import svg
from .args import BOOST_FLAGS, build_parser, main  # noqa: F401  (main is the entry point of brt.cli too)
from .boosting import BoostConfig, fit_ensemble, predict_batch, staged_metric
from .data import (
    assemble_model_table, fy_label, load_model_table, load_raw_directory, monsoon_deviation, naming, write_csv,
    write_model_table
)
from .interpret import _grid_size, interaction_report, partial_dependence_1d, partial_dependence_2d, relative_influence
from .metrics import fit_report, resolve_threshold
from .model_io import load_model, save_model


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    write_csv(path, [header, *([_fmt(c) if isinstance(c, float) else str(c) for c in row] for row in rows)])


def _config_from_args(args) -> BoostConfig:
    """The BoostConfig of the boosting flags given, each set in turn so that
    a value BoostConfig rejects is named by its flag."""
    config = BoostConfig()
    for flag, field, _, _ in BOOST_FLAGS:
        if getattr(args, field) is not None:
            with naming(flag):
                config = replace(config, **{field: getattr(args, field)})
    # BoostConfig keeps both for brtm/1 files, but a model trained with them is
    # no use: a learn rate of 0 only ever predicts f0, and the generator would
    # take a seed outside 64 bits modulo 2**64, as another seed.
    if config.learn_rate == 0:
        raise ValueError("--learn-rate: learn_rate must be above 0 to train")
    if not 0 <= config.seed < 2**64:
        raise ValueError(f"--seed: seed must be in [0, 2**64), got {config.seed}")
    return config


def _check_out(out: str) -> None:
    """Reject an --out whose nearest existing ancestor, itself if it exists,
    is not a directory, before anything is read or made."""
    for path in (Path(out), *Path(out).parents):
        if path.exists() or path.is_symlink():
            if not path.is_dir():
                raise ValueError(f"--out: {path} is not a directory")
            return


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
    """The model and the model table a command reads; their feature names must agree.
    A warning about the model file is printed as one line that names the file."""
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {args.model}: {message}", file=sys.stderr)
        model = load_model(args.model)
    data = load_model_table(args.data)
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


def cmd_train(args) -> int:
    if args.stride is not None and args.stride < 1:
        raise ValueError(f"--stride must be at least 1, got {args.stride}")
    config = _config_from_args(args)
    data = load_model_table(args.data)
    threshold = resolve_threshold(data.y, args.roc_threshold)  # checked before the fit, which it does not change

    with naming(args.data):  # a fit that fails on the table names it, and nothing is written
        model = fit_ensemble(data, config)
    out = _out_dir(args)
    save_model(model, out / "model.brtm")  # before prediction caches the structure tables on the model
    with naming(args.data):  # so does a score that fails on it
        preds = predict_batch(model, data.X)
        report = fit_report(data.y, preds, roc_threshold=threshold)
        curve = staged_metric(model, data, metric="mse", stride=args.stride) if model.n_stages > 0 else None
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

    if curve is not None:
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
    with naming(args.model, args.data):  # a failed analysis writes nothing
        ranked = relative_influence(model).ranked()
        interactions = interaction_report(model, data, denominator=args.interaction_denominator)
    out = _out_dir(args)
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
    with naming("--grid"):  # the cap on a surface over observed values needs the table: the analysis checks it
        _grid_size(args.grid, 2 if args.feature2 else 1)
    model, data = _load_model_and_table(args)  # after the flag checks: loading a large model takes seconds
    # Every name is checked, and every profile or surface computed, before anything is
    # written; each name goes into an output file name.
    names = list(model.feature_names) if args.all else [n for n in (args.feature, args.feature2) if n]
    columns = [_feature_index(model, name) for name in names]
    for name in names:
        if "/" in name or "\0" in name:
            raise ValueError(f"feature {name!r} cannot name an output file: it holds '/' or NUL")

    if args.feature2:
        j, k = columns
        pair = f"{args.feature}_x_{args.feature2}"
        stem = f"pd_{pair}"
        if pair in model.feature_names:
            raise ValueError(
                f"the surface of {args.feature!r} and {args.feature2!r} would overwrite the profile of "
                f"feature {pair!r}: both write {stem}.csv and .svg"
            )
        # So does the surface of any other cut of pair, at an "_x_", into two distinct features.
        for a, b in ((pair[:i], pair[i + 3 :]) for i in range(len(pair)) if pair.startswith("_x_", i)):
            if a != b and (a, b) != (args.feature, args.feature2) and {a, b} <= set(model.feature_names):
                raise ValueError(
                    f"the surface of {args.feature!r} and {args.feature2!r} would overwrite that of {a!r} and "
                    f"{b!r}: both write {stem}.csv and .svg"
                )
        with naming(args.model, args.data):
            surface = partial_dependence_2d(model, j, k, data, grid_spec=args.grid)
        out = _out_dir(args)
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

    with naming(args.model, args.data):
        profiles = [partial_dependence_1d(model, j, data, grid_spec=args.grid) for j in columns]
    out = _out_dir(args)
    for name, profile in zip(names, profiles):
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
    print(f"wrote {len(names)} partial dependence profile(s)")
    return 0


def cmd_build_data(args) -> int:
    if args.rain_mean is not None:
        with naming("--rain-mean"):  # before any raw file is read
            monsoon_deviation({}, args.rain_mean)
    series = load_raw_directory(args.raw)  # names the file at fault
    with naming(args.raw):  # the series disagree: name the directory that holds them
        dataset, provenance = assemble_model_table(
            series, rain_mean=args.rain_mean, msp_weight_year=args.msp_weight_year
        )
    out = _out_dir(args)
    write_model_table(dataset, out / "model_table.csv")
    (out / "provenance.txt").write_text(provenance, encoding="utf-8", newline="")
    span = f"{fy_label(dataset.years[0])}-{fy_label(dataset.years[-1])}"
    print(f"built model table: {dataset.n_rows} rows ({span}) -> {out / 'model_table.csv'}")
    return 0


COMMANDS = {"train": cmd_train, "report": cmd_report, "pdp": cmd_pdp, "build-data": cmd_build_data}


def run(args) -> int:
    """Run a command that ``brt.args.build_parser`` parsed; a runtime or model error
    prints one line and returns 1."""
    try:
        _check_out(args.out)  # every command writes to --out
        return COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # run this module's commands: main would import brt.cli a second time
    raise SystemExit(run(build_parser().parse_args()))
