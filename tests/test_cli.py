import json

import numpy as np
import pytest

from brt.cli import main
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
