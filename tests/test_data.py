import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt.data import (
    MODEL_PREDICTORS,
    Dataset,
    assemble_model_table,
    fao_inr,
    fy_label,
    load_model_table,
    load_raw_directory,
    load_series_csv,
    load_weights_csv,
    monsoon_deviation,
    weighted_index,
    write_model_table,
    yoy_change,
)

from conftest import write_toy_raw


class TestDataset:
    def test_contiguous_years_required(self):
        with pytest.raises(ValueError, match="contiguous"):
            Dataset((2001, 2003), ("a",), np.zeros((2, 1)), np.zeros(2))

    def test_missing_response_rejected(self):
        with pytest.raises(ValueError, match="response missing at FY03"):
            Dataset((2002, 2003), ("a",), np.zeros((2, 1)), np.array([1.0, np.nan]))

    def test_infinite_predictor_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset((2002,), ("a",), np.array([[np.inf]]), np.array([1.0]))

    def test_from_arrays_defaults(self):
        ds = Dataset.from_arrays([[1.0], [2.0]], [0.5, 0.6])
        assert ds.feature_names == ("x0",)
        assert ds.years == (1, 2)


class TestLoadModelTable:
    def test_well_formed(self):
        csv = "year,FCPI,MonsDev,MSP\n1992,10.5,3.0,8.0\n1993,9.1,-2.0,7.5\n"
        ds = load_model_table(io.StringIO(csv))
        assert ds.n_rows == 2
        assert ds.feature_names == ("MonsDev", "MSP")
        assert ds.y.tolist() == [10.5, 9.1]

    def test_bundled_shape(self):
        from brt.standin import load_bundled

        ds = load_bundled()
        assert ds.n_rows == 25
        assert ds.n_features == 7
        assert ds.feature_names == MODEL_PREDICTORS
        assert ds.years[0] == 1992 and ds.years[-1] == 2016

    def test_bundled_file_is_the_generated_standin(self):
        from brt.standin import bundled_path, make_standin

        buf = io.StringIO()
        write_model_table(make_standin(), buf)
        with open(bundled_path(), "rb") as fh:
            assert buf.getvalue().encode("utf-8") == fh.read()

    def test_missing_response_cell(self):
        csv = "year,FCPI,MSP\n2002,1.0,2.0\n2003,,2.5\n"
        with pytest.raises(ValueError, match="response missing at FY03"):
            load_model_table(io.StringIO(csv))

    def test_missing_predictor_cells_accepted(self):
        csv = "year,FCPI,ProteinExp\n2012,1.0,2.0\n2013,1.5,NA\n2014,2.0,\n"
        ds = load_model_table(io.StringIO(csv))
        assert math.isnan(ds.X[1, 0]) and math.isnan(ds.X[2, 0])

    def test_duplicate_year(self):
        csv = "year,FCPI,MSP\n2002,1.0,2.0\n2002,1.5,2.5\n"
        with pytest.raises(ValueError, match="duplicate year 2002"):
            load_model_table(io.StringIO(csv))

    def test_non_numeric_cell_reports_row_and_column(self):
        csv = "year,FCPI,MSP\n2002,1.0,abc\n"
        with pytest.raises(ValueError, match="row 2, column 'MSP'"):
            load_model_table(io.StringIO(csv))

    @pytest.mark.parametrize(
        "csv, where",
        [
            ("year,FCPI,MSP\n2003,1.0,2.0\n2002,,2.5\n", "row 3, column 'FCPI': response missing at FY02"),
            ("year,FCPI,MSP\n2002,1.0,2.0\n2003,1.5,-inf\n", "row 3, column 'MSP': values must be finite where present$"),
            ("year,FCPI,MSP\n2005,1.0,2.0\n2002,1.5,2.5\n", "row 2, column 'year': .*saw 2002 then 2005"),
        ],
    )
    def test_dataset_faults_name_the_file_row(self, csv, where):
        """Rows are named as in the file, although the table is sorted by year."""
        with pytest.raises(ValueError, match=f"^<stream>: {where}"):
            load_model_table(io.StringIO(csv))

    def test_header_rules(self):
        with pytest.raises(ValueError, match="first column must be 'year'"):
            load_model_table(io.StringIO("FCPI,MSP\n1.0,2.0\n"))
        with pytest.raises(ValueError, match="no 'FCPI' column"):
            load_model_table(io.StringIO("year,MSP\n2002,2.0\n"))
        with pytest.raises(ValueError, match="duplicate columns"):
            load_model_table(io.StringIO("year,FCPI,MSP,MSP\n2002,1,2,3\n"))
        with pytest.raises(ValueError, match="missing header"):
            load_model_table(io.StringIO(""))
        with pytest.raises(ValueError, match="at least one predictor"):
            load_model_table(io.StringIO("year,FCPI\n2002,1.0\n"))

    def test_header_only_table_rejected(self):
        with pytest.raises(ValueError, match="no data rows"):
            load_model_table(io.StringIO("year,FCPI,MSP\n"))

    def test_rows_sorted_by_year(self):
        csv = "year,FCPI,MSP\n2003,2.0,1.0\n2002,1.0,3.0\n"
        ds = load_model_table(io.StringIO(csv))
        assert ds.years == (2002, 2003)
        assert ds.y.tolist() == [1.0, 2.0]

    def test_write_read_roundtrip(self, tmp_path):
        X = np.array([[1.5, np.nan], [2.5, 3.5]])
        ds = Dataset((2001, 2002), ("A", "B"), X, np.array([0.1, 0.2]))
        path = tmp_path / "t.csv"
        write_model_table(ds, path)
        back = load_model_table(path)
        assert back.years == ds.years
        assert np.array_equal(back.X, ds.X, equal_nan=True)
        assert np.array_equal(back.y, ds.y)

    def test_crlf_and_cr_line_ends_read_like_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        for end in (b"\r\n", b"\r"):
            path.write_bytes(end.join([b"year,FCPI,MSP", b"2002,1.0,2.0", b"", b"2003,1.5,NA", b""]))
            ds = load_model_table(path)
            assert ds.years == (2002, 2003) and ds.y.tolist() == [1.0, 1.5]

    def test_leading_byte_order_mark_is_dropped_from_a_path_or_a_stream(self, tmp_path):
        text = "year,FCPI,MSP\n2002,1.0,2.0\n2003,1.5,NA\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())  # as spreadsheets export UTF-8
        for source in (path, io.StringIO("\ufeff" + text)):
            ds = load_model_table(source)
            assert ds.feature_names == ("MSP",) and ds.years == (2002, 2003) and ds.y.tolist() == [1.0, 1.5]

    def test_byte_order_mark_elsewhere_is_cell_text(self):
        with pytest.raises(ValueError, match=re.escape(r"row 1, column '\ufeffyear': missing header")):
            load_model_table(io.StringIO("\ufeff\ufeffyear,FCPI,MSP\n2002,1.0,2.0\n"))
        ds = load_model_table(io.StringIO("\ufeffyear,FCPI,\ufeffMSP\n2002,1.0,2.0\n"))
        assert ds.feature_names == ("\ufeffMSP",)


@pytest.mark.parametrize(
    "load, text, byte",
    [
        (load_model_table, b"year,FCPI,MSP\n2002,1.0,2.0\n\n2003,1.5,\xff\n", "0xff"),
        (load_series_csv, b"year,index\n2002,1.0\n\n2003,1.5\xe9\n", "0xe9"),
        (load_weights_csv, b"item,weight\na,1\n\nb\xc3,2\n", "0xc3"),
    ],
    ids=["model-table", "series", "weights"],
)
def test_non_utf8_csv_names_file_and_line(tmp_path, load, text, byte):
    """The line counts every line, the blank one too."""
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 4: not UTF-8: cannot decode byte {byte}$"):
        load(path)


class TestLoadSeriesCsv:
    def test_schema_enforced(self):
        with pytest.raises(ValueError, match="unknown columns: \\['extra'\\]"):
            load_series_csv(io.StringIO("year,index,extra\n2001,1,2\n"), ("index",))
        with pytest.raises(ValueError, match="missing columns: \\['total'\\]"):
            load_series_csv(io.StringIO("year,index\n2001,1\n"), ("index", "total"))

    def test_header_only_series_rejected(self):
        with pytest.raises(ValueError, match="no data rows"):
            load_series_csv(io.StringIO("year,index\n"), ("index",))

    def test_any_columns_when_unconstrained(self):
        series = load_series_csv(io.StringIO("year,rice,wheat\n2002,3,\n2001,1,2\n"))
        assert series == {"rice": {2001: 1.0, 2002: 3.0}, "wheat": {2001: 2.0}}
        assert [list(years) for years in series.values()] == [[2001, 2002], [2001]]

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_cell_names_row_and_column(self, cell):
        with pytest.raises(ValueError, match="^<stream>: row 3, column 'wheat': values must be finite where present$"):
            load_series_csv(io.StringIO(f"year,rice,wheat\n2001,1,2\n2002,3,{cell}\n2003,,-inf\n"))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_reads_back_as_year_value_maps(self, data):
        """A year-keyed CSV of finite values, empty and NA cells, rows in any
        order, reads back as one year -> value map per column, years ascending,
        missing cells left out."""
        years = data.draw(st.lists(st.integers(1900, 2100), min_size=1, max_size=8, unique=True))
        names = data.draw(st.lists(st.sampled_from(["rice", "wheat", "mm", "index"]), min_size=1, unique=True))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        cells = {(y, c): data.draw(st.one_of(finite, st.sampled_from(["", "NA", " na "]))) for y in years for c in names}

        def text(v):  # a value as its shortest round-trip repr, a missing cell as it is
            return repr(v) if isinstance(v, float) else v

        lines = [",".join([str(y), *(text(cells[y, c]) for c in names)]) for y in years]
        text = "\n".join(["year," + ",".join(names), *data.draw(st.permutations(lines))]) + "\n"
        series = load_series_csv(io.StringIO(text), tuple(names))
        assert series == {c: {y: cells[y, c] for y in sorted(years) if isinstance(cells[y, c], float)} for c in names}
        assert all(list(m) == sorted(m) for m in series.values())


class TestLoadWeightsCsv:
    def test_reads_items(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("item,weight\ndiesel,0.5\n\nfertiliser, 1.5 \n")
        assert load_weights_csv(path) == {"diesel": 0.5, "fertiliser": 1.5}

    @pytest.mark.parametrize(
        "text, where",
        [
            ("item,w\na,1\n", "row 1: weights file must have columns"),
            ("weight,item\n1,a\n", "row 1: weights file must have columns"),
            ("item,weight\na,1,2\n", "row 2 has 3 cells, expected 2"),
            ("item,weight\na,1\nb,x\n", "non-numeric cell at row 3, column 'weight'"),
            ("item,weight\na,1\nb,2\na,3\n", "row 4, column 'item': duplicate item 'a'"),
            ("item,weight\n ,1\n", "row 2, column 'item': empty item"),
            ("item,weight\na,-1\n", "row 2, column 'weight': weight for 'a' must be a nonnegative number"),
            ("item,weight\na,1\nb,\n", "row 3, column 'weight': weight for 'b' must be a nonnegative"),
            ("item,weight\na,inf\n", "row 2, column 'weight'"),
            ("item,weight\n", "no data rows below the header in row 1"),
            ("", "missing header row"),
        ],
        ids=["header", "column-order", "cell-count", "non-numeric", "duplicate", "empty-item", "negative",
             "missing-weight", "infinite", "no-rows", "empty-file"],
    )
    def test_errors_name_file_and_row(self, tmp_path, text, where):
        path = tmp_path / "agri_input_weights.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_weights_csv(path)
        assert str(info.value).startswith(f"{path}: ")
        assert where in str(info.value)

    def test_stream_errors_name_the_stream(self):
        with pytest.raises(ValueError, match="^<stream>: row 3, column 'item': duplicate item 'a'"):
            load_weights_csv(io.StringIO("item,weight\na,1\na,2\n"))

    def test_raw_directory_error_names_weights_file(self, tmp_path):
        write_toy_raw(tmp_path / "raw")
        path = tmp_path / "raw" / "agri_input_weights.csv"
        path.write_text("item,w\ndiesel,0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 1: weights file must have columns"):
            load_raw_directory(tmp_path / "raw")


class TestTransforms:
    def test_yoy_constant_series(self):
        out = yoy_change({2000: 5.0, 2001: 5.0, 2002: 5.0})
        assert out == {2001: 0.0, 2002: 0.0}

    def test_yoy_simple(self):
        assert yoy_change({2000: 100.0, 2001: 110.0}) == {2001: pytest.approx(10.0)}

    def test_yoy_constant_growth_rate(self):
        # tripling over a decade at a constant rate: each year +11.61%
        rate = 3 ** (1 / 10)
        series = {2000 + i: rate**i for i in range(11)}
        out = yoy_change(series)
        for v in out.values():
            assert v == pytest.approx(100 * (rate - 1), rel=1e-9)
        assert 100 * (rate - 1) == pytest.approx(11.61, abs=0.005)

    def test_yoy_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="nonpositive index value at FY01"):
            yoy_change({2000: 1.0, 2001: -2.0})
        with pytest.raises(ValueError, match="at least 2"):
            yoy_change({2000: 1.0})

    def test_yoy_skips_gaps(self):
        out = yoy_change({2000: 100.0, 2001: 110.0, 2005: 50.0, 2006: 55.0})
        assert set(out) == {2001, 2006}

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.1, 1e6),
        st.lists(st.floats(0.5, 2.0), min_size=1, max_size=19),
    )
    def test_yoy_roundtrip_property(self, start, ratios):
        # annual index series move by factors in [0.5, 2]; wilder jumps would
        # cancel catastrophically in (1 + growth/100) and need no support
        values = [start]
        for r in ratios:
            values.append(values[-1] * r)
        series = {2000 + i: v for i, v in enumerate(values)}
        growth = yoy_change(series)
        rebuilt = values[0]
        for i in range(1, len(values)):
            rebuilt = rebuilt * (1 + growth[2000 + i] / 100.0)
            assert rebuilt == pytest.approx(values[i], rel=1e-9)

    def test_weighted_index_single_item(self):
        prices = {"rice": {2000: 10.0, 2001: 13.0}}
        out = weighted_index(prices, {"rice": 3.0}, base_year=2000)
        assert out == {2000: 100.0, 2001: pytest.approx(130.0)}

    def test_weighted_index_two_items(self):
        prices = {"a": {2000: 10.0, 2001: 20.0}, "b": {2000: 30.0, 2001: 30.0}}
        out = weighted_index(prices, {"a": 0.5, "b": 0.5}, base_year=2000)
        assert out[2001] == pytest.approx(125.0)
        assert out[2000] == 100.0

    def test_weighted_index_rescaling_invariance(self):
        prices = {"a": {2000: 10.0, 2001: 14.0}, "b": {2000: 3.0, 2001: 4.0}}
        w1 = weighted_index(prices, {"a": 0.25, "b": 0.75}, 2000)
        w2 = weighted_index(prices, {"a": 25.0, "b": 75.0}, 2000)
        for y in w1:
            assert w1[y] == pytest.approx(w2[y], rel=1e-12)

    def test_weighted_index_item_mismatch(self):
        with pytest.raises(ValueError, match="absent from prices"):
            weighted_index({"a": {2000: 1.0}}, {"a": 1.0, "b": 1.0}, 2000)
        with pytest.raises(ValueError, match="without weights"):
            weighted_index({"a": {2000: 1.0}, "b": {2000: 2.0}}, {"a": 1.0}, 2000)

    def test_fao_inr_identity_fx(self):
        out = fao_inr({2000: 100.0, 2001: 120.0}, {2000: 1.0, 2001: 1.0})
        assert out == {2000: 100.0, 2001: 120.0}

    def test_fao_inr_pure_currency_effect(self):
        out = fao_inr({2000: 100.0, 2001: 100.0}, {2000: 40.0, 2001: 50.0})
        assert yoy_change(out)[2001] == pytest.approx(25.0)

    def test_fao_inr_combined_effect(self):
        out = fao_inr({2000: 100.0, 2001: 110.0}, {2000: 40.0, 2001: 50.0})
        assert yoy_change(out)[2001] == pytest.approx(37.5)

    def test_fao_inr_year_mismatch(self):
        with pytest.raises(ValueError, match="FY01"):
            fao_inr({2000: 1.0, 2001: 2.0}, {2000: 1.0})

    def test_monsoon_deviation_and_drought_flags(self):
        dev, drought = monsoon_deviation({2000: 900.0, 2001: 765.0, 2002: 814.5}, 900.0)
        assert dev[2000] == 0.0 and not drought[2000]
        assert dev[2001] == pytest.approx(-15.0) and drought[2001]
        assert dev[2002] == pytest.approx(-9.5) and not drought[2002]  # strict -10 boundary

    def test_monsoon_boundary_is_strict(self):
        dev, drought = monsoon_deviation({2000: 810.0}, 900.0)
        assert dev[2000] == pytest.approx(-10.0)
        assert not drought[2000]

    def test_monsoon_nonpositive_mean(self):
        with pytest.raises(ValueError, match="positive"):
            monsoon_deviation({2000: 1.0}, 0.0)


class TestAssemble:
    def test_toy_pipeline_matches_hand_computed_table(self, tmp_path):
        expected = write_toy_raw(tmp_path / "raw")
        series = load_raw_directory(tmp_path / "raw")
        ds, provenance = assemble_model_table(series, rain_mean=900.0, msp_weight_year=2005)
        assert ds.years == expected["years"]
        assert ds.feature_names == MODEL_PREDICTORS
        np.testing.assert_allclose(ds.y, expected["FCPI"], rtol=1e-9)
        for j, name in enumerate(MODEL_PREDICTORS):
            np.testing.assert_allclose(ds.X[:, j], expected[name], rtol=1e-9, equal_nan=True)
        assert "FY06" in provenance  # drought year flagged
        assert "FCPI" in provenance and "MSP" in provenance

    def test_missing_series_reported(self, tmp_path):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "fx_inr_usd.csv").unlink()
        series = load_raw_directory(tmp_path / "raw")
        with pytest.raises(ValueError, match="missing series: fx_inr_usd"):
            assemble_model_table(series)

    def test_missing_weights_reported(self, tmp_path):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "agri_input_weights.csv").unlink()
        series = load_raw_directory(tmp_path / "raw")
        with pytest.raises(ValueError, match="missing series: agri_input_weights"):
            assemble_model_table(series)

    def test_every_missing_input_reported_in_one_error(self, tmp_path):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "fx_inr_usd.csv").unlink()
        (tmp_path / "raw" / "agri_input_weights.csv").unlink()
        with pytest.raises(ValueError, match="^missing series: fx_inr_usd, agri_input_weights$"):
            assemble_model_table(load_raw_directory(tmp_path / "raw"))

    def test_late_starting_wages_shift_first_usable_year(self, tmp_path):
        write_toy_raw(tmp_path / "raw")
        wages = (tmp_path / "raw" / "farm_wages.csv").read_text().splitlines()
        (tmp_path / "raw" / "farm_wages.csv").write_text("\n".join([wages[0]] + wages[2:]) + "\n")
        series = load_raw_directory(tmp_path / "raw")
        ds, _ = assemble_model_table(series, rain_mean=900.0, msp_weight_year=2005)
        assert ds.years == (2006, 2007)  # wage changes only measurable from 2006

    def test_protein_tail_missing_accepted(self, tmp_path):
        expected = write_toy_raw(tmp_path / "raw")
        series = load_raw_directory(tmp_path / "raw")
        ds, _ = assemble_model_table(series, rain_mean=900.0, msp_weight_year=2005)
        protein = ds.X[:, MODEL_PREDICTORS.index("ProteinExp")]
        assert math.isnan(protein[-1])
        assert np.isfinite(protein[:-1]).all()

    @pytest.mark.parametrize(
        "row, message",
        [("2005,60,", "msp_production has missing cells at FY05"), ("2005,,", "MSP weight year FY05 not in msp_production")],
        ids=["some-empty", "all-empty"],
    )
    def test_weight_year_needs_every_crop(self, tmp_path, row, message):
        write_toy_raw(tmp_path / "raw")
        (tmp_path / "raw" / "msp_production.csv").write_text(f"year,rice,wheat\n{row}\n2006,1,1\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            assemble_model_table(load_raw_directory(tmp_path / "raw"), rain_mean=900.0, msp_weight_year=2005)

    def test_weight_year_must_exist(self, tmp_path):
        write_toy_raw(tmp_path / "raw")
        series = load_raw_directory(tmp_path / "raw")
        with pytest.raises(ValueError, match="FY99"):
            assemble_model_table(series, rain_mean=900.0, msp_weight_year=1999)

    def test_deterministic_under_row_order(self, tmp_path):
        expected = write_toy_raw(tmp_path / "raw")
        series = load_raw_directory(tmp_path / "raw")
        ds1, prov1 = assemble_model_table(series, rain_mean=900.0, msp_weight_year=2005)
        # rewrite one file with rows reversed
        lines = (tmp_path / "raw" / "cpi_food.csv").read_text().splitlines()
        (tmp_path / "raw" / "cpi_food.csv").write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
        ds2, prov2 = assemble_model_table(load_raw_directory(tmp_path / "raw"), rain_mean=900.0, msp_weight_year=2005)
        assert np.array_equal(ds1.X, ds2.X, equal_nan=True)
        assert np.array_equal(ds1.y, ds2.y)
        assert prov1 == prov2


def test_fy_label():
    assert fy_label(2007) == "FY07"
    assert fy_label(1992) == "FY92"
    assert fy_label(2016) == "FY16"


# A valid model table and a valid series file; the properties below change
# one cell, one header cell or one line of each and load the result.
_MODEL_CSV = "year,FCPI,MSP,FWI\n2001,1.5,2.0,\n2002,2.5,NA,3.0\n2003,3.5,4.0,5.0\n"
_SERIES_CSV = "year,rice,wheat\n2001,10,20\n2002,12,20\n2003,15,22\n"
_WEIGHTS_CSV = "item,weight\ndiesel,0.5\nfertiliser,0.25\nseed,1.5\n"
_CELL_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "NA", "nan", "inf", "-inf", "1e400", "x", "2001", "2004", "1999", " 7 ", "-0", "٣", '"', "a,b"]),
)


def _mutate(text, data):
    """(mutated text, the mutated data cell as (row number, column) or None)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    kind = data.draw(st.sampled_from(["cell", "header", "delete line", "duplicate line", "replace line"]))
    value = data.draw(_CELL_TEXT)
    cell = None
    if kind in ("cell", "header"):
        r = 0 if kind == "header" else data.draw(st.integers(1, len(lines) - 1))
        c = data.draw(st.integers(0, len(header) - 1))
        cells = lines[r].split(",")
        cells[c] = value
        lines[r] = ",".join(cells)
        if kind == "cell" and not any(ch in value for ch in ',"\r\n'):
            cell = (r + 1, header[c])
    else:
        r = data.draw(st.integers(0, len(lines) - 1))
        if kind == "delete line":
            del lines[r]
        elif kind == "duplicate line":
            lines.insert(r, lines[r])
        else:
            lines[r] = value
    return "\n".join(lines) + "\n", cell


def _load_or_named_error(load, path, text, cell):
    path.write_text(text, encoding="utf-8")
    try:
        load(path)
    except ValueError as e:
        message = str(e)
        assert type(e) is ValueError, f"{type(e).__name__}: {message}"
        assert message.startswith(f"{path}: "), message
        if cell is not None:
            # A single bad value names the row and the column it breaks.
            assert re.search(r"row \d+, column '[^']*'", message), message
        else:
            assert re.search(r"\b(row|line) \d+", message), message


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated_csv")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_table_loads_or_names_file_row_and_column(csv_dir, data):
    text, cell = _mutate(_MODEL_CSV, data)
    _load_or_named_error(load_model_table, csv_dir / "model_table.csv", text, cell)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_series_loads_or_names_file_row_and_column(csv_dir, data):
    text, cell = _mutate(_SERIES_CSV, data)
    _load_or_named_error(lambda p: load_series_csv(p, ("rice", "wheat")), csv_dir / "series.csv", text, cell)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_weights_load_or_name_file_row_and_column(csv_dir, data):
    text, cell = _mutate(_WEIGHTS_CSV, data)
    _load_or_named_error(load_weights_csv, csv_dir / "weights.csv", text, cell)


@pytest.mark.parametrize(
    "load, template, column",
    [
        (load_model_table, "year,FCPI,MSP\n2001,1.0,2.0\n2002,1.5,{}\n", "MSP"),
        (load_model_table, "year,FCPI,MSP\n2001,1.0,2.0\n{},1.5,2.5\n", "year"),
        (load_series_csv, "year,rice\n2001,1\n2002,{}\n", "rice"),
        (load_series_csv, "year,rice\n2001,1\n{},2\n", "year"),
        (load_weights_csv, "item,weight\na,1\nb,{}\n", "weight"),
    ],
    ids=["model-table", "model-table-year", "series", "series-year", "weights"],
)
@pytest.mark.parametrize("cell", ["2_002", "٣", "１"], ids=["underscore", "arabic-indic", "fullwidth"])
def test_digit_group_underscores_and_non_ascii_digits_refused(load, template, column, cell):
    """float() and int() read these as numbers; a cell of the tables must be ASCII without '_'."""
    with pytest.raises(ValueError, match=f"^<stream>: non-numeric cell at row 3, column '{column}': '{cell}'$"):
        load(io.StringIO(template.format(cell)))


# Each table's one numeric cell, row 3, in each loader; the response too.
_ONE_CELL = pytest.mark.parametrize(
    "load, template, column",
    [
        (load_model_table, "year,FCPI,MSP\n2001,1.0,2.0\n2002,1.5,{}\n", "MSP"),
        (load_model_table, "year,FCPI,MSP\n2001,1.0,2.0\n2002,{},2.5\n", "FCPI"),
        (load_series_csv, "year,rice\n2001,1\n2002,{}\n", "rice"),
        (load_weights_csv, "item,weight\na,1\nb,{}\n", "weight"),
    ],
    ids=["model-table", "response", "series", "weights"],
)


@_ONE_CELL
@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "+NAN"])
def test_nan_spellings_other_than_empty_and_na_are_not_numbers(load, template, column, cell):
    """Only an empty or NA cell is missing; float() reads these as NaN, but they are not numbers."""
    message = f"^<stream>: non-numeric cell at row 3, column '{column}': {re.escape(repr(cell))}$"
    with pytest.raises(ValueError, match=message):
        load(io.StringIO(template.format(cell)))


@_ONE_CELL
@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
def test_non_finite_numbers_are_refused_at_their_cell(load, template, column, cell):
    """An infinite response is refused as such, not as a missing one."""
    with pytest.raises(ValueError, match=f"^<stream>: row 3, column '{column}': values must be finite where present$"):
        load(io.StringIO(template.format(cell)))
