import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt import interpret
from brt.cli import main
from brt.interpret import MAX_GRID_POINTS
from brt.data import Dataset, load_model_table, write_model_table
from brt.standin import bundled_path

from conftest import write_toy_raw


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def toy_table(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 2, size=(20, 2))
    y = X[:, 0] * X[:, 1] + X[:, 1]
    ds = Dataset((2000 + i for i in range(1, 21)), ("alpha", "beta"), X, y)
    path = tmp_path / "toy.csv"
    write_model_table(ds, path)
    return path


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
        ],
        ids=["all-feature", "all-feature2", "same-twice", "feature2-only", "none"],
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
