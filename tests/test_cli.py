import builtins
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt import cli, interpret
from brt.cli import main
from brt.interpret import MAX_GRID_POINTS
from brt.data import Dataset, load_model_table, write_model_table
from brt.model_io import load_model
from brt.standin import bundled_path

from conftest import write_toy_raw


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table_named(path, names):
    """Write a 20-row model table with predictors named names (two or more) to path."""
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 2, size=(20, len(names)))
    write_model_table(Dataset((2000 + i for i in range(1, 21)), names, X, X[:, 0] * X[:, 1] + X[:, 1]), path)
    return path


@pytest.fixture()
def toy_table(tmp_path):
    return _table_named(tmp_path / "toy.csv", ("alpha", "beta"))


TRAIN_FLAGS = ["--trees", "300", "--learn-rate", "0.1", "--max-nodes", "6", "--min-leaf", "2", "--seed", "7"]


class TestTrain:
    def test_writes_all_outputs_and_reports_fit(self, tmp_path, capsys, toy_table):
        out = tmp_path / "run"
        code, stdout, _ = run(["train", str(toy_table), "--out", str(out)] + TRAIN_FLAGS, capsys)
        assert code == 0
        for name in (
            "model.brtm",
            "metrics.csv",
            "actual_vs_predicted.csv",
            "actual_vs_predicted.svg",
            "staged_mse.csv",
            "staged_mse.svg",
        ):
            assert (out / name).exists(), name
        assert "R-sq" in stdout
        r2 = float([ln for ln in stdout.splitlines() if "R-sq" in ln][0].split()[-1])
        assert r2 >= 0.95
        # figure/CSV pairing: the CSV holds exactly the plotted numbers
        csv_lines = (out / "staged_mse.csv").read_text().splitlines()
        assert csv_lines[0] == "n_trees,mse"
        assert len(csv_lines) > 2

    def test_zero_trees_prints_r2_zero(self, tmp_path, capsys, toy_table):
        out = tmp_path / "zero"
        code, stdout, _ = run(["train", str(toy_table), "--out", str(out), "--trees", "0"], capsys)
        assert code == 0
        r2_line = [ln for ln in stdout.splitlines() if "R-sq" in ln][0]
        assert float(r2_line.split()[-1]) == 0.0

    def test_memory_error_exits_1_with_its_message(self, tmp_path, capsys, toy_table, monkeypatch):
        message = "Unable to allocate 3.73 TiB for an array with shape (100000000000, 5) and data type float64"

        def no_memory(data, config):  # stands in for a fit whose columns do not fit in memory
            raise MemoryError(message)

        monkeypatch.setattr(cli, "fit_ensemble", no_memory)
        code, _, err = run(["train", str(toy_table), "--out", str(tmp_path / "big"), "--trees", "100000000000"], capsys)
        assert (code, err) == (1, f"error: {message}\n")

    def test_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_unreadable_input_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("spec", ["value:abc", "value:nan", "value:inf", "quartile"])
    def test_bad_roc_threshold_exits_1_before_the_fit(self, tmp_path, capsys, toy_table, spec):
        out = tmp_path / "run"
        code, _, err = run(["train", str(toy_table), "--out", str(out), "--roc-threshold", spec], capsys)
        assert code == 1
        assert f"roc threshold {spec!r}" in err
        assert not (out / "model.brtm").exists()

    @pytest.mark.parametrize("flags", [["--stride", "0"], ["--stride", "-5"], ["--stride", "0", "--trees", "0"]])
    def test_bad_stride_exits_1_before_the_fit(self, tmp_path, capsys, toy_table, flags):
        out = tmp_path / "run"
        code, _, err = run(["train", str(toy_table), "--out", str(out), *flags], capsys)
        assert (code, err) == (1, f"error: --stride must be at least 1, got {flags[1]}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trees", "-1", "n_trees must be >= 0"),
            ("--learn-rate", "1.5", "learn_rate must be in [0, 1]"),
            ("--learn-rate", "0", "learn_rate must be above 0 to train"),
            ("--max-nodes", "2", "max_nodes must be at least 3"),
            ("--min-leaf", "0", "min_leaf_obs must be at least 1"),
            ("--subsample", "0", "subsample_fraction must be in (0, 1]"),
        ],
    )
    def test_bad_boosting_flag_is_named_before_the_table_is_read(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "run"
        code, _, err = run(["train", str(tmp_path / "absent.csv"), "--out", str(out), flag, value], capsys)
        assert (code, err) == (1, f"error: {flag}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_64_bits_is_named_before_the_table_is_read(self, tmp_path, capsys, seed):
        out = tmp_path / "run"
        code, _, err = run(["train", str(tmp_path / "absent.csv"), "--out", str(out), "--seed", seed], capsys)
        assert (code, err) == (1, f"error: --seed: seed must be in [0, 2**64), got {seed}\n")
        assert not out.exists()

    def test_largest_seed_trains(self, tmp_path, capsys, toy_table):
        argv = ["train", str(toy_table), "--out", str(tmp_path / "run"), "--trees", "5", "--seed", str(2**64 - 1)]
        assert run(argv, capsys)[0] == 0

    def test_table_with_a_byte_order_mark_trains_as_without(self, tmp_path, capsys, toy_table):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + toy_table.read_bytes())
        for table, out in ((toy_table, tmp_path / "a"), (marked, tmp_path / "b")):
            assert run(["train", str(table), "--out", str(out)] + TRAIN_FLAGS, capsys)[0] == 0
        assert (tmp_path / "a" / "model.brtm").read_bytes() == (tmp_path / "b" / "model.brtm").read_bytes()

    def test_fit_failure_names_the_table(self, tmp_path, capsys):
        table = tmp_path / "one_row.csv"
        table.write_text("year,FCPI,MSP\n2002,1.0,2.0\n")
        out = tmp_path / "run"
        code, _, err = run(["train", str(table), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: {table}: empty learn sample\n")
        assert not out.exists()

    def test_non_utf8_table_names_file_and_line(self, tmp_path, capsys, toy_table):
        lines = toy_table.read_bytes().split(b"\n")
        lines[2] = lines[2] + b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code, _, err = run(["train", str(bad), "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        assert err == f"error: {bad}: line 3: not UTF-8: cannot decode byte 0xff\n"

    def test_byte_identical_reruns(self, tmp_path, capsys, toy_table):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["train", str(toy_table), "--out", str(out_a)] + TRAIN_FLAGS, capsys)[0] == 0
        assert run(["train", str(toy_table), "--out", str(out_b)] + TRAIN_FLAGS, capsys)[0] == 0
        for name in ("model.brtm", "metrics.csv", "actual_vs_predicted.csv", "staged_mse.csv", "staged_mse.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestReport:
    @pytest.fixture()
    def trained(self, tmp_path, capsys, toy_table):
        out = tmp_path / "run"
        assert run(["train", str(toy_table), "--out", str(out)] + TRAIN_FLAGS, capsys)[0] == 0
        return out, toy_table

    def test_tables_and_figure(self, tmp_path, capsys, trained):
        out, table = trained
        code, stdout, _ = run(["report", str(out / "model.brtm"), str(table), "--out", str(out)], capsys)
        assert code == 0
        assert (out / "influence.csv").exists()
        assert (out / "influence.svg").exists()
        pairwise = (out / "interactions_pairwise.csv").read_text().splitlines()
        assert pairwise[0] == "feature_i,feature_j,score"
        assert len(pairwise) == 2  # one pair for two features
        overall = (out / "interactions_overall.csv").read_text().splitlines()
        assert len(overall) == 3
        assert "relative influence" in stdout

    def test_constant_response_is_named_and_nothing_is_written(self, tmp_path, capsys, trained):
        out, table = trained
        ds = load_model_table(table)
        const = tmp_path / "const.csv"
        write_model_table(Dataset(ds.years, ds.feature_names, ds.X, np.full(len(ds.y), 5.0)), const)
        report = tmp_path / "report"
        argv = ["report", str(out / "model.brtm"), str(const), "--out", str(report)]
        code, stdout, err = run([*argv, "--interaction-denominator", "response"], capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: {out / 'model.brtm'} with {const}: degenerate response: no variation in FCPI\n"
        assert not report.exists()
        assert run(argv, capsys)[0] == 0  # the model itself varies

    def test_negative_top_exits_1_naming_the_option(self, tmp_path, capsys, trained):
        out, table = trained
        code, _, err = run(["report", str(out / "model.brtm"), str(table), "--out", str(out), "--top", "-1"], capsys)
        assert code == 1
        assert "--top must be at least 0" in err
        assert not (out / "influence.csv").exists()
        code, stdout, _ = run(["report", str(out / "model.brtm"), str(table), "--out", str(out), "--top", "0"], capsys)
        assert code == 0
        assert " x " not in stdout  # no pairwise row printed

    def test_non_utf8_model_file_names_file_and_line(self, tmp_path, capsys, trained):
        out, table = trained
        lines = (out / "model.brtm").read_bytes().split(b"\n")
        lines[3] = lines[3][:10] + b"\xff" + lines[3][11:]
        bad = tmp_path / "bad.brtm"
        bad.write_bytes(b"\n".join(lines))
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert f"{bad}: model parse error at line 4: not UTF-8: cannot decode byte 0xff" in err

    def test_corrupted_model_file(self, tmp_path, capsys, trained):
        out, table = trained
        bad = tmp_path / "bad.brtm"
        bad.write_text((out / "model.brtm").read_text()[:200])
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert "model parse error" in err or "unsupported model version" in err

    @pytest.mark.parametrize(
        "lineno, field, value", [(2, "f0", None), (3, "gamma", "x"), (4, "gamma", True), (5, "gamma", 10**400)]
    )
    def test_non_numeric_f0_or_gamma_names_line_and_field(self, tmp_path, capsys, trained, lineno, field, value):
        out, table = trained
        lines = (out / "model.brtm").read_text().splitlines()
        obj = json.loads(lines[lineno - 1])
        obj[field] = value
        lines[lineno - 1] = json.dumps(obj)
        bad = tmp_path / "bad.brtm"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert f"line {lineno}" in err and repr(field) in err

    @pytest.mark.parametrize(
        "lineno, field, mutate",
        [
            (3, "left", lambda v: 5),
            (2, "n_stages", str),
            (2, "feature_names", lambda v: [v[0], v[0]]),
            (3, "threshold", lambda v: [float("nan"), *v[1:]]),
        ],
    )
    def test_malformed_model_exits_1_naming_line_without_traceback(
        self, tmp_path, capsys, trained, lineno, field, mutate
    ):
        out, table = trained
        lines = (out / "model.brtm").read_text().splitlines()
        obj = json.loads(lines[lineno - 1])
        obj[field] = mutate(obj[field])
        lines[lineno - 1] = json.dumps(obj)
        bad = tmp_path / "bad.brtm"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert f"line {lineno}" in err and "Traceback" not in err

    @pytest.mark.parametrize("lineno", [2, 3, 5])
    def test_deeply_nested_line_exits_1_naming_file_and_line(self, tmp_path, capsys, trained, lineno):
        out, table = trained
        lines = (out / "model.brtm").read_text().splitlines()
        lines[lineno - 1] = "[" * 200_000
        bad = tmp_path / "bad.brtm"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert f"{bad}: model parse error at line {lineno}: nested too deeply" in err

    def test_unreachable_nodes_exit_1_naming_line_without_traceback(self, tmp_path, capsys, trained):
        out, table = trained
        lines = (out / "model.brtm").read_text().splitlines()
        stump = {"gamma": 1.0, "feature": [-1, -1, -1], "threshold": [0.0] * 3, "missing_right": [False] * 3,
                 "left": [-1] * 3, "right": [-1] * 3, "value": [0.0, 50.0, 50.0], "improvement": [0.0] * 3}
        lines[2] = json.dumps(stump)
        bad = tmp_path / "bad.brtm"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert "line 3: node 1 is not the child of exactly one split" in err and "Traceback" not in err
        assert not (tmp_path / "bad_out").exists()

    @pytest.mark.parametrize("key, value", [("seed", "abc"), ("max_nodes", 3.5), ("n_trees", True)])
    def test_config_value_of_wrong_type_exits_1_naming_field(self, tmp_path, capsys, trained, key, value):
        out, table = trained
        lines = (out / "model.brtm").read_text().splitlines()
        header = json.loads(lines[1])
        header["config"][key] = value
        lines[1] = json.dumps(header)
        bad = tmp_path / "bad.brtm"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["report", str(bad), str(table), "--out", str(tmp_path / "bad_out")], capsys)
        assert code == 1
        assert f"'config.{key}'" in err and "line 2" in err and "Traceback" not in err
        assert not (tmp_path / "bad_out").exists()

    def test_feature_name_mismatch_lists_differences(self, tmp_path, capsys, trained):
        out, table = trained
        other = tmp_path / "other.csv"
        text = table.read_text().replace("beta", "gamma")
        other.write_text(text)
        argv = ["report", str(out / "model.brtm"), str(other), "--out", str(tmp_path / "bad_out")]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "beta" in err and "gamma" in err
        assert f"feature names of model {out / 'model.brtm'} and data {other} differ" in err

    def test_analysis_failure_names_model_and_table(self, tmp_path, capsys, trained):
        out, table = trained
        lines = (out / "model.brtm").read_text().splitlines()
        header = json.loads(lines[1])
        header["config"]["learn_rate"] = 0.0  # every prediction is f0
        lines[1] = json.dumps(header)
        flat = tmp_path / "flat.brtm"
        flat.write_text("\n".join(lines) + "\n")
        code, _, err = run(["report", str(flat), str(table), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert f"{flat} with {table}: degenerate model: no output variation" in err
        ds = load_model_table(table)
        holes = tmp_path / "holes.csv"
        write_model_table(Dataset(ds.years, ds.feature_names, np.where([False, True], np.nan, ds.X), ds.y), holes)
        code, _, err = run(["pdp", str(out / "model.brtm"), str(holes), "--all", "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert f"{out / 'model.brtm'} with {holes}: cannot grid a fully missing feature" in err


class TestPdp:
    @pytest.fixture()
    def trained(self, tmp_path, capsys, toy_table):
        out = tmp_path / "run"
        assert run(["train", str(toy_table), "--out", str(out)] + TRAIN_FLAGS, capsys)[0] == 0
        return out, toy_table

    def test_all_emits_one_profile_per_feature(self, capsys, trained):
        out, table = trained
        code, _, _ = run(["pdp", str(out / "model.brtm"), str(table), "--out", str(out), "--all"], capsys)
        assert code == 0
        for name in ("alpha", "beta"):
            assert (out / f"pd_{name}.csv").exists()
            assert (out / f"pd_{name}.svg").exists()

    def test_surface_pair(self, capsys, trained):
        out, table = trained
        code, _, _ = run(
            ["pdp", str(out / "model.brtm"), str(table), "--out", str(out), "--feature", "alpha", "--feature2", "beta"],
            capsys,
        )
        assert code == 0
        assert (out / "pd_alpha_x_beta.csv").exists()
        assert (out / "pd_alpha_x_beta.svg").exists()

    def test_same_feature_twice_rejected(self, capsys, trained):
        out, table = trained
        code, _, err = run(
            ["pdp", str(out / "model.brtm"), str(table), "--feature", "alpha", "--feature2", "alpha"], capsys
        )
        assert code == 1
        assert "features must differ" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--all", "--feature", "alpha"], "--all cannot be combined with --feature/--feature2"),
            (["--all", "--feature2", "beta"], "--all cannot be combined with --feature/--feature2"),
            (["--feature", "alpha", "--feature2", "alpha"], "features must differ"),
            (["--feature2", "beta"], "give --feature NAME (optionally --feature2 NAME) or --all"),
            ([], "give --feature NAME (optionally --feature2 NAME) or --all"),
            (["--feature", "alpha", "--grid", "1"], "--grid: grid size must be at least 2"),
            (["--feature", "alpha", "--feature2", "beta", "--grid", "-3"], "--grid: grid size must be at least 2"),
            (
                ["--all", "--grid", str(MAX_GRID_POINTS + 1)],
                f"--grid: a grid of {MAX_GRID_POINTS + 1} points is over the cap of {MAX_GRID_POINTS}; "
                "give a smaller --grid",
            ),
            (
                ["--feature", "alpha", "--feature2", "beta", "--grid", "1025"],
                f"--grid: a grid of {1025**2} points is over the cap of {MAX_GRID_POINTS}; give a smaller --grid",
            ),
        ],
        ids=["all-feature", "all-feature2", "same-twice", "feature2-only", "none", "grid-1", "surface-grid-below-2",
             "grid-over-cap", "surface-grid-over-cap"],
    )
    def test_flags_are_checked_before_loading(self, tmp_path, capsys, flags, message):
        """Neither file exists: the flag message shows that nothing was read."""
        code, _, err = run(["pdp", str(tmp_path / "none.brtm"), str(tmp_path / "none.csv"), *flags], capsys)
        assert code == 1
        assert err == f"error: {message}\n"

    def test_unknown_feature_lists_valid_names(self, capsys, trained):
        out, table = trained
        code, _, err = run(["pdp", str(out / "model.brtm"), str(table), "--feature", "delta"], capsys)
        assert code == 1
        assert "alpha" in err and "beta" in err

    def test_grid_flag(self, capsys, trained):
        out, table = trained
        code, _, _ = run(
            ["pdp", str(out / "model.brtm"), str(table), "--out", str(out), "--feature", "alpha", "--grid", "9"],
            capsys,
        )
        assert code == 0
        assert len((out / "pd_alpha.csv").read_text().splitlines()) == 10  # header + 9

    @pytest.mark.parametrize(
        "features, grid",
        [
            (["--feature", "alpha"], 10**9),
            (["--all"], MAX_GRID_POINTS + 1),
            (["--feature", "alpha", "--feature2", "beta"], 10**9),
            (["--feature", "alpha", "--feature2", "beta"], 1025),  # 1025 squared points
        ],
    )
    def test_grid_over_the_cap_exits_1_before_any_grid_is_made(self, monkeypatch, capsys, trained, features, grid):
        out, table = trained

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        argv = ["pdp", str(out / "model.brtm"), str(table), "--out", str(out), *features, "--grid", str(grid)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "--grid" in err and f"over the cap of {MAX_GRID_POINTS}" in err
        assert not list(out.glob("pd_*"))

    @pytest.mark.parametrize("features", [["--feature", "alpha"], ["--feature", "alpha", "--feature2", "beta"]])
    @pytest.mark.parametrize("grid", [1, -2000])
    def test_grid_below_two_exits_1(self, capsys, trained, features, grid):
        out, table = trained
        argv = ["pdp", str(out / "model.brtm"), str(table), "--out", str(out), *features, "--grid", str(grid)]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "grid size must be at least 2" in err and "over the cap" not in err
        assert not list(out.glob("pd_*"))

    def test_default_grid_surface_over_the_cap_exits_1(self, monkeypatch, capsys, trained):
        out, table = trained
        monkeypatch.setattr(interpret, "MAX_GRID_POINTS", 399)  # the toy table's 20 x 20 observed values
        argv = ["pdp", str(out / "model.brtm"), str(table), "--out", str(out), "--feature", "alpha", "--feature2", "beta"]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "a grid of 400 points is over the cap of 399; give a smaller --grid" in err


class TestBuildData:
    def test_toy_raw_set_round_trips_into_train(self, tmp_path, capsys):
        write_toy_raw(tmp_path / "raw")
        out = tmp_path / "built"
        code, stdout, _ = run(
            ["build-data", "--raw", str(tmp_path / "raw"), "--out", str(out), "--rain-mean", "900"], capsys
        )
        assert code == 0
        assert (out / "model_table.csv").exists()
        assert "FY05-FY07" in stdout
        provenance = (out / "provenance.txt").read_text()
        assert "MSP" in provenance and "drought" in provenance
        # output is ingestible unchanged
        ds = load_model_table(out / "model_table.csv")
        assert ds.n_rows == 3
        code2, _, _ = run(
            ["train", str(out / "model_table.csv"), "--out", str(out), "--trees", "5", "--min-leaf", "1"], capsys
        )
        assert code2 == 0

    @pytest.mark.parametrize("value", ["-5", "0", "nan"])
    def test_bad_rain_mean_is_named_before_any_file_is_read(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        argv = ["build-data", "--raw", str(tmp_path / "absent"), "--out", str(out), "--rain-mean", value]
        code, _, err = run(argv, capsys)
        assert (code, err) == (1, "error: --rain-mean: long-term mean must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.write_text("year,mm\n")], ids=["absent", "file"])
    def test_raw_that_is_not_a_directory_is_named(self, tmp_path, capsys, make):
        raw, out = tmp_path / "raw", tmp_path / "o"
        make(raw)
        code, _, err = run(["build-data", "--raw", str(raw), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: {raw}: not a directory\n")
        assert not out.exists()

    def test_missing_series_is_runtime_error(self, tmp_path, capsys):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "fx_inr_usd.csv").unlink()
        code, _, err = run(["build-data", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "missing series: fx_inr_usd" in err

    def test_header_only_series_names_the_file(self, tmp_path, capsys):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "cpi_food.csv").write_text("year,index\n")
        code, _, err = run(["build-data", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "cpi_food.csv: no data rows" in err

    def test_bad_weights_file_names_the_file_and_row(self, tmp_path, capsys):
        write_toy_raw(tmp_path / "raw")
        path = tmp_path / "raw" / "agri_input_weights.csv"
        path.write_text("item,weight\ndiesel,0.5\ndiesel,0.5\n")
        code, _, err = run(["build-data", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert f"{path}: row 3, column 'item': duplicate item 'diesel'" in err
        assert "Traceback" not in err

    def test_infinite_raw_cell_names_the_file_row_and_column(self, tmp_path, capsys):
        write_toy_raw(tmp_path / "raw")
        path, out = tmp_path / "raw" / "rainfall.csv", tmp_path / "o"
        path.write_text("year,mm\n2005,900\n2006,inf\n2007,945\n")
        code, _, err = run(["build-data", "--raw", str(tmp_path / "raw"), "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: {path}: row 3, column 'mm': values must be finite where present\n")
        assert not out.exists()

    def test_no_year_covered_by_every_input_names_the_series(self, tmp_path, capsys):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "agri_input_prices.csv").write_text("year,diesel,fertiliser\n2004,100,\n2005,,100\n")
        code, _, err = run(["build-data", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "agri_input_prices has no year covered by every input" in err
        assert "Traceback" not in err


MUTATION_TRAIN_FLAGS = ["--trees", "8", "--learn-rate", "0.3", "--min-leaf", "1", "--seed", "3"]
LINE_TEXT = st.text(st.sampled_from('0123456789.-+eE,"{}[]:naNAyr \t\xff\u00e9'), max_size=12)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A small model table, a model trained on it, and a raw directory."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(5)
    X = np.round(rng.uniform(0, 2, size=(10, 3)), 2)
    X[3, 1] = np.nan
    ds = Dataset(range(2001, 2011), ("alpha", "beta", "gamma"), X, np.round(X[:, 0] * X[:, 2] - X[:, 0], 2))
    write_model_table(ds, root / "table.csv")
    assert main(["train", str(root / "table.csv"), "--out", str(root), *MUTATION_TRAIN_FLAGS]) == 0
    write_toy_raw(root / "raw")
    return root


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_0_or_1_naming_an_input(valid_inputs, data):
    """One line or one byte of a valid model, model table, series CSV or weights
    CSV is changed; every command that reads it exits 0 or 1 without an escaping
    exception, and an exit 1 names an input file."""
    draw = data.draw
    names = ["model.brtm", "table.csv", *(f"raw/{p.name}" for p in sorted((valid_inputs / "raw").iterdir()))]
    target = draw(st.sampled_from(names))
    raw = (valid_inputs / target).read_bytes()
    if draw(st.booleans()):
        lines = raw.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(LINE_TEXT).encode()
        mutated = b"\n".join(lines)
    else:
        i = draw(st.integers(0, len(raw) - 1))
        mutated = raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in names:
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_bytes(mutated if name == target else (valid_inputs / name).read_bytes())
        model, table, raw_dir, out = (str(root / p) for p in ("model.brtm", "table.csv", "raw", "out"))
        if target == "model.brtm":
            runs = [["report", model, table], ["pdp", model, table, "--all"]]
        elif target == "table.csv":
            runs = [["train", table, *MUTATION_TRAIN_FLAGS], ["report", model, table], ["pdp", model, table, "--all"]]
        else:
            runs = [["build-data", "--raw", raw_dir]]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", out])
            inputs = [a for a in argv[1:] if a.startswith(tmp)]
            assert code in (0, 1), argv
            assert code == 0 or any(p in err.getvalue() for p in inputs), (argv, err.getvalue())


@pytest.mark.parametrize(
    "command",
    [
        ["train", "absent.csv"],
        ["report", "absent.brtm", "absent.csv"],
        ["pdp", "absent.brtm", "absent.csv", "--all"],
        ["build-data", "--raw", "absent"],
    ],
    ids=["train", "report", "pdp", "build-data"],
)
@pytest.mark.parametrize(
    "make, out",
    [
        (lambda p: p.write_text(""), "afile"),
        (lambda p: p.write_text(""), "afile/run"),
        (lambda p: p.symlink_to("absent"), "afile"),
    ],
    ids=["file", "below-file", "dangling-link"],
)
def test_out_under_a_file_is_named_before_any_input_is_read(tmp_path, capsys, monkeypatch, command, make, out):
    """No input exists: the --out message shows that nothing was read, and nothing is made."""
    monkeypatch.chdir(tmp_path)
    make(Path("afile"))
    code, _, err = run([*command, "--out", out], capsys)
    assert (code, err) == (1, "error: --out: afile is not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_bundled_dataset_trains_quickly(tmp_path, capsys):
    code, stdout, _ = run(
        ["train", bundled_path(), "--out", str(tmp_path), "--trees", "200", "--learn-rate", "0.02", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "trained 200 stages on 25 rows" in stdout


def test_pdp_all_on_seven_predictor_model(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["train", bundled_path(), "--out", str(out), "--trees", "60", "--learn-rate", "0.05"], capsys)[0] == 0
    code, _, _ = run(["pdp", str(out / "model.brtm"), bundled_path(), "--out", str(out), "--all"], capsys)
    assert code == 0
    csvs = sorted(p.name for p in out.glob("pd_*.csv"))
    svgs = sorted(p.name for p in out.glob("pd_*.svg"))
    assert len(csvs) == 7 and len(svgs) == 7


def test_names_with_commas_and_quotes_are_quoted_in_every_csv(tmp_path, capsys):
    names = ("MSP, support", 'rain "mm"')
    table = _table_named(tmp_path / "t.csv", names)
    assert load_model_table(table).feature_names == names
    out = tmp_path / "run"
    assert run(["train", str(table), "--out", str(out)] + TRAIN_FLAGS, capsys)[0] == 0
    model = str(out / "model.brtm")
    assert run(["report", model, str(table), "--out", str(out)], capsys)[0] == 0
    assert run(["pdp", model, str(table), "--out", str(out), "--all"], capsys)[0] == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 8
    for path in csvs:
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert {len(row) for row in rows} == {len(rows[0])}, path.name
    with (out / "influence.csv").open(newline="", encoding="utf-8") as f:
        assert {row[0] for row in list(csv.reader(f))[1:]} == set(names)


@pytest.mark.parametrize("flags", [["--all"], ["--feature", "F/D"], ["--feature", "alpha", "--feature2", "F/D"]])
def test_pdp_names_a_feature_that_cannot_name_a_file_before_writing(tmp_path, capsys, flags):
    table = _table_named(tmp_path / "t.csv", ("alpha", "F/D"))
    trained = tmp_path / "run"
    assert run(["train", str(table), "--out", str(trained)] + TRAIN_FLAGS, capsys)[0] == 0
    out = tmp_path / "pd"
    code, _, err = run(["pdp", str(trained / "model.brtm"), str(table), "--out", str(out), *flags], capsys)
    assert code == 1
    assert err == "error: feature 'F/D' cannot name an output file: it holds '/' or NUL\n"
    assert not out.exists()


def test_surface_that_would_overwrite_a_profile_is_refused(tmp_path, capsys):
    table = _table_named(tmp_path / "t.csv", ("A", "B", "A_x_B"))
    trained = tmp_path / "run"
    assert run(["train", str(table), "--out", str(trained)] + TRAIN_FLAGS, capsys)[0] == 0
    model, out = str(trained / "model.brtm"), tmp_path / "pd"
    assert run(["pdp", model, str(table), "--out", str(out), "--all"], capsys)[0] == 0
    profile = [(out / f"pd_A_x_B.{ext}").read_bytes() for ext in ("csv", "svg")]
    fresh = tmp_path / "fresh"
    for where in (out, fresh):
        code, _, err = run(["pdp", model, str(table), "--out", str(where), "--feature", "A", "--feature2", "B"], capsys)
        assert code == 1
        assert err == (
            "error: the surface of 'A' and 'B' would overwrite the profile of feature 'A_x_B': "
            "both write pd_A_x_B.csv and .svg\n"
        )
    assert [(out / f"pd_A_x_B.{ext}").read_bytes() for ext in ("csv", "svg")] == profile
    assert not fresh.exists()
    assert run(["pdp", model, str(table), "--out", str(out), "--feature", "B", "--feature2", "A"], capsys)[0] == 0


def test_surfaces_that_would_write_the_same_files_are_refused(tmp_path, capsys):
    table = _table_named(tmp_path / "t.csv", ("A", "B_x_C", "A_x_B", "C"))
    trained = tmp_path / "run"
    assert run(["train", str(table), "--out", str(trained)] + TRAIN_FLAGS, capsys)[0] == 0
    model, out = str(trained / "model.brtm"), tmp_path / "pd"
    for pair, other in ((("A", "B_x_C"), ("A_x_B", "C")), (("A_x_B", "C"), ("A", "B_x_C"))):
        code, _, err = run(["pdp", model, str(table), "--out", str(out), "--feature", pair[0], "--feature2", pair[1]], capsys)
        assert code == 1
        assert err == (
            f"error: the surface of {pair[0]!r} and {pair[1]!r} would overwrite that of {other[0]!r} and "
            f"{other[1]!r}: both write pd_A_x_B_x_C.csv and .svg\n"
        )
    assert not out.exists()
    assert run(["pdp", model, str(table), "--out", str(out), "--feature", "C", "--feature2", "A_x_B"], capsys)[0] == 0
    assert sorted(p.name for p in out.iterdir()) == ["pd_C_x_A_x_B.csv", "pd_C_x_A_x_B.svg"]


def test_pdp_on_a_fully_missing_feature_names_it_and_writes_nothing(tmp_path, capsys):
    table = tmp_path / "holes.csv"
    X = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan], [4.0, np.nan]])
    write_model_table(Dataset(range(2001, 2005), ("A", "B"), X, X[:, 0] ** 2), table)
    trained = tmp_path / "run"
    assert run(["train", str(table), "--out", str(trained), "--trees", "20", "--min-leaf", "1"], capsys)[0] == 0
    model = trained / "model.brtm"
    for flags in (["--all"], ["--feature", "B"], ["--feature", "A", "--feature2", "B"]):
        code, _, err = run(["pdp", str(model), str(table), "--out", str(trained), *flags], capsys)
        assert code == 1
        assert err == f"error: {model} with {table}: cannot grid a fully missing feature 'B'\n"
        assert not list(trained.glob("pd_*"))


def test_unknown_model_fields_are_one_warning_line_naming_the_file(tmp_path, capsys, toy_table):
    trained = tmp_path / "run"
    assert run(["train", str(toy_table), "--out", str(trained)] + TRAIN_FLAGS, capsys)[0] == 0
    lines = (trained / "model.brtm").read_text().splitlines()
    header = json.loads(lines[1])
    header["config"]["extra"] = 1
    lines[1] = json.dumps(header)
    extra = tmp_path / "extra.brtm"
    extra.write_text("\n".join(lines) + "\n")
    shown = warnings.showwarning
    for argv in (["pdp", str(extra), str(toy_table), "--feature", "alpha"], ["report", str(extra), str(toy_table)]):
        code, _, err = run([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        assert err == f"warning: {extra}: model file line 2: ignoring unknown field(s) ['extra']\n"
    assert warnings.showwarning is shown
    with pytest.warns(UserWarning, match=r"^model file line 2: ignoring unknown field\(s\) \['extra'\]$"):
        load_model(extra)


def test_every_text_file_is_written_without_newline_translation(tmp_path, capsys, monkeypatch, toy_table):
    """Text-mode writes that translated "\\n" would write "\\r\\n" on Windows, so models and figures would
    differ by platform; each open and Path.write_text (which goes through Path.open) must turn it off."""
    real_open, real_path_open, opened = builtins.open, Path.open, []

    def text_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None, *args, **kwargs):
        if "b" not in mode:
            opened.append((Path(file).name, newline))
        return real_open(file, mode, buffering, encoding, errors, newline, *args, **kwargs)

    def path_open(self, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        if "b" not in mode:
            opened.append((self.name, newline))
        return real_path_open(self, mode, buffering, encoding, errors, newline)

    write_toy_raw(tmp_path / "raw")
    out, model = tmp_path / "out", str(tmp_path / "out" / "model.brtm")
    monkeypatch.setattr(builtins, "open", text_open)
    monkeypatch.setattr(Path, "open", path_open)
    for argv in (
        ["train", str(toy_table), *TRAIN_FLAGS],
        ["report", model, str(toy_table)],
        ["pdp", model, str(toy_table), "--all"],
        ["build-data", "--raw", str(tmp_path / "raw")],
    ):
        assert run([*argv, "--out", str(out)], capsys)[0] == 0, argv
    monkeypatch.undo()
    written = {name for name, _ in opened}
    assert {"model.brtm", "provenance.txt", "pd_alpha.svg", "influence.csv", "model_table.csv"} <= written
    assert {name for name, newline in opened if newline not in ("", "\n")} == set()
