"""Dataset schema, CSV ingestion, and the feature-construction pipeline.

The model table is one row per fiscal year: a response column plus any
number of real-valued predictor columns, percent units throughout, with
missing cells allowed in predictors only. Raw source series (price
indices, wages, rainfall, ...) are read into year -> value maps, keyed by
file stem, and combined by ``assemble_model_table`` into the model table via
year-on-year changes, weighted indices, currency conversion, and monsoon
deviation.

Fiscal years are keyed by their ending calendar year: the label FY07
means the year ending 31 March 2007 and is stored as 2007.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

RESPONSE_NAME = "FCPI"
MODEL_PREDICTORS = ("MonsDev", "MSP", "FAO", "FD", "FWI", "AgrilInput", "ProteinExp")

DROUGHT_DEVIATION_PCT = -10.0  # monsoon deficiency beyond this marks a drought year

# Raw series files understood by assemble_model_table, with their columns
# (None means: any numeric columns, at least one).
RAW_SCHEMAS: dict[str, tuple[str, ...] | None] = {
    "cpi_food": ("index",),
    "rainfall": ("mm",),
    "msp_prices": None,
    "msp_production": None,
    "fao_usd": ("index",),
    "fx_inr_usd": ("rate",),
    "gdp": ("value",),
    "fiscal_deficit": ("value",),
    "farm_wages": None,
    "agri_input_prices": None,
    "pfce": ("pulses", "oils_oilseeds", "milk_products", "meat_egg_fish", "total_food"),
}

PROTEIN_ITEMS = ("pulses", "oils_oilseeds", "milk_products", "meat_egg_fish")


def fy_label(year: int) -> str:
    return f"FY{year % 100:02d}"


class DatasetError(ValueError):
    """A Dataset fault at one cell: ``row`` indexes ``years`` and ``column``
    is the column's name, so that a file loader can point at its line."""

    def __init__(self, message: str, row: int, column: str):
        super().__init__(message)
        self.row = row
        self.column = column


@dataclass(frozen=True)
class Dataset:
    """Rectangular learn sample: one row per fiscal year.

    X holds the predictors (NaN marks a missing cell); y is the response
    and must be fully observed.
    """

    years: tuple[int, ...]
    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    response_name: str = RESPONSE_NAME

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "years", tuple(int(v) for v in self.years))
        object.__setattr__(self, "feature_names", tuple(str(s) for s in self.feature_names))
        n = len(self.years)
        if X.shape != (n, len(self.feature_names)) or y.shape != (n,):
            raise ValueError("years, feature_names, X, y have inconsistent shapes")
        for i, (a, b) in enumerate(zip(self.years, self.years[1:]), start=1):
            if b != a + 1:
                message = f"year keys must be strictly increasing and contiguous (saw {a} then {b})"
                raise DatasetError(message, i, "year")
        for i, v in enumerate(y):
            if not math.isfinite(v):
                raise DatasetError(f"response missing at {fy_label(self.years[i])}", i, self.response_name)
        bad = np.argwhere(np.isinf(X))
        if bad.size:
            i, j = bad[0]
            raise DatasetError("predictor values must be finite where present", int(i), self.feature_names[j])

    @property
    def n_rows(self) -> int:
        return len(self.years)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @classmethod
    def from_arrays(cls, X, y, feature_names=None, years=None, response_name=RESPONSE_NAME) -> "Dataset":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(y, dtype=np.float64)
        if feature_names is None:
            feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
        if years is None:
            years = tuple(range(1, X.shape[0] + 1))
        return cls(tuple(years), tuple(feature_names), X, y, response_name)


def _parse_cell(raw: str, row: int, col: str) -> float:
    text = raw.strip()
    if text == "" or text.upper() == "NA":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"non-numeric cell at row {row}, column {col!r}: {raw!r}") from None


@contextlib.contextmanager
def naming(*sources, error=ValueError):
    """Prefix an ``error`` raised inside with the names of ``sources``, the
    inputs it is about, joined by " with ": a path or a flag as it is, a stream
    by its ``name`` or as ``<stream>``."""
    try:
        yield
    except error as e:
        names = (str(getattr(s, "name", "<stream>")) if hasattr(s, "read") else str(s) for s in sources)
        raise error(f"{' with '.join(names)}: {e}") from None


class DecodeError(ValueError):
    """Bytes that are not UTF-8: ``line`` is the line of the first bad byte, and
    ``reason`` names the byte."""

    def __init__(self, line: int, byte: int):
        self.line = line
        self.reason = f"not UTF-8: cannot decode byte {byte:#04x}"
        super().__init__(f"line {line}: {self.reason}")


def _decode(raw: bytes, first_line: int = 1) -> str:
    """raw decoded as UTF-8, or a DecodeError; raw starts at line first_line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DecodeError(first_line + raw.count(b"\n", 0, e.start), raw[e.start]) from None


def _read_rows(source) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(header cells, [(row number, cells)] of the rows below it); blank
    rows are skipped and not counted, and the header is row 1. A path is
    read as Path.read_text reads it, CRLF and lone CR line ends made LF. One
    byte-order mark (U+FEFF) at the start of the text is dropped."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = _decode(Path(source).read_bytes()).replace("\r\n", "\n").replace("\r", "\n")
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except csv.Error as e:
        raise ValueError(f"line {reader.line_num}: {e}") from None
    if not rows:
        raise ValueError("missing header row")
    header = [h.strip() for h in rows[0]]
    return header, list(enumerate(rows[1:], start=2))


def _read_year_table(source, check_columns) -> tuple[list[str], tuple[int, ...], np.ndarray, tuple[int, ...]]:
    """Read a CSV whose first column is ``year``: (value column names, years
    ascending, float cells with rows in year order and NaN where a cell is
    empty or NA, the row number of each year).

    ``check_columns(names)`` validates the value column names before any
    row is read.
    """
    header, body = _read_rows(source)  # the header has at least one non-blank cell
    if header[0] != "year":
        raise ValueError(f"row 1, column {header[0]!r}: missing header: first column must be 'year'")
    cols = header[1:]
    check_columns(cols)
    dupes = sorted({h for h in header if header.count(h) > 1})
    if dupes:
        raise ValueError(f"row 1, column {dupes[0]!r}: duplicate columns: {dupes}")
    if not body:
        raise ValueError("no data rows below the header in row 1")

    years: list[int] = []
    data: list[list[float]] = []
    seen = set()
    for i, row in body:
        if len(row) != len(header):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(header)}")
        try:
            year = int(row[0].strip())
        except ValueError:
            raise ValueError(f"non-numeric cell at row {i}, column 'year': {row[0]!r}") from None
        if year in seen:
            raise ValueError(f"row {i}, column 'year': duplicate year {year}")
        seen.add(year)
        years.append(year)
        data.append([_parse_cell(row[j + 1], i, c) for j, c in enumerate(cols)])

    order = sorted(range(len(years)), key=years.__getitem__)
    return (
        cols,
        tuple(years[i] for i in order),
        np.asarray(data, dtype=np.float64)[order],
        tuple(body[i][0] for i in order),
    )


def load_model_table(source, response_name: str = RESPONSE_NAME) -> Dataset:
    """Read a model-table CSV: columns ``year``, the response, and
    predictors in header order. Missing cells are empty or NA; the
    response must be present in every row. A malformed table raises a
    ValueError, which ``naming`` prefixes with the source, naming the row
    and column where there is one."""

    def check_columns(cols):
        if response_name not in cols:
            raise ValueError(f"row 1: missing header: no {response_name!r} column")
        if all(c == response_name for c in cols):
            raise ValueError("row 1: model table needs at least one predictor column")

    with naming(source):
        cols, years, cells, rows = _read_year_table(source, check_columns)
        r = cols.index(response_name)
        predictors = tuple(c for c in cols if c != response_name)
        y = np.ascontiguousarray(cells[:, r])
        try:
            return Dataset(years, predictors, np.delete(cells, r, axis=1), y, response_name)
        except DatasetError as e:
            raise ValueError(f"row {rows[e.row]}, column {e.column!r}: {e}") from None


def load_series_csv(source, expected_columns: tuple[str, ...] | None = None) -> dict[str, dict[int, float]]:
    """Read one raw series CSV (year + numeric columns) as ``{column: {year:
    value}}``, years ascending, with empty and NA cells left out.

    When expected_columns is given, the header must match it exactly;
    unknown columns are rejected by name. A malformed file, an infinite
    cell among them, raises a ValueError, which ``naming`` prefixes with the
    source, naming the row and column where there is one.
    """

    def check_columns(cols):
        if not cols:
            raise ValueError("row 1: series file needs at least one value column")
        if expected_columns is not None:
            unknown = [c for c in cols if c not in expected_columns]
            if unknown:
                raise ValueError(
                    f"row 1, column {unknown[0]!r}: unknown columns: {unknown} (expected {list(expected_columns)})"
                )
            absent = [c for c in expected_columns if c not in cols]
            if absent:
                raise ValueError(f"row 1: missing columns: {absent}")

    with naming(source):
        cols, years, cells, rows = _read_year_table(source, check_columns)
        bad = np.argwhere(np.isinf(cells))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"row {rows[i]}, column {cols[j]!r}: values must be finite where present")
    return {c: {y: v for y, v in zip(years, cells[:, j].tolist()) if not math.isnan(v)} for j, c in enumerate(cols)}


def load_weights_csv(source) -> dict[str, float]:
    """Read an item,weight CSV into a mapping. A malformed file raises a
    ValueError, which ``naming`` prefixes with the source, naming the row
    (and column) where there is one."""
    out: dict[str, float] = {}
    with naming(source):
        header, body = _read_rows(source)
        if header != ["item", "weight"]:
            raise ValueError(f"row 1: weights file must have columns ['item', 'weight'], got {header}")
        for i, row in body:
            if len(row) != 2:
                raise ValueError(f"row {i} has {len(row)} cells, expected 2")
            item = row[0].strip()
            if not item:
                raise ValueError(f"row {i}, column 'item': empty item")
            if item in out:
                raise ValueError(f"row {i}, column 'item': duplicate item {item!r}")
            w = _parse_cell(row[1], i, "weight")
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"row {i}, column 'weight': weight for {item!r} must be a nonnegative number")
            out[item] = w
        if not out:
            raise ValueError("no data rows below the header in row 1")
    return out


def _fmt(v: float) -> str:
    if math.isnan(v):
        return ""
    return repr(float(v))


def write_csv(sink, rows) -> None:
    """Write rows of text cells to a stream or a path (opened as UTF-8 text),
    quoting a cell only where it holds a comma, a quote or a line end, with
    "\\n" line ends."""
    if hasattr(sink, "write"):
        csv.writer(sink, lineterminator="\n").writerows(rows)
    else:
        with open(sink, "w", encoding="utf-8", newline="") as stream:
            write_csv(stream, rows)


def write_model_table(dataset: Dataset, sink) -> None:
    """Write a Dataset back to model-table CSV (missing cells empty)."""
    header = ["year", dataset.response_name, *dataset.feature_names]
    rows = zip(dataset.years, dataset.y.tolist(), dataset.X.tolist())
    write_csv(sink, [header, *([str(year), *map(_fmt, [y, *x])] for year, y, x in rows)])


# ---------------------------------------------------------------------------
# transforms


def yoy_change(series: dict[int, float]) -> dict[int, float]:
    """Year-on-year percent change; the first year drops out.

    out(t) = 100 * (x(t) - x(t-1)) / x(t-1), defined only across
    consecutive years. All values must be positive.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 consecutive years")
    years = sorted(series)
    for y in years:
        if not series[y] > 0:
            raise ValueError(f"nonpositive index value at {fy_label(y)}")
    out: dict[int, float] = {}
    for prev, cur in zip(years, years[1:]):
        if cur == prev + 1:
            out[cur] = 100.0 * (series[cur] - series[prev]) / series[prev]
    if not out:
        raise ValueError("need at least 2 consecutive years")
    return out


def weighted_index(
    prices: dict[str, dict[int, float]],
    weights: dict[str, float],
    base_year: int,
) -> dict[int, float]:
    """Fixed-weight price index: 100 * sum(w*p(t)) / sum(w*p(base)).

    Weights are normalised internally, so any positive rescaling of all
    weights leaves the index unchanged. Every weighted item must appear in
    prices and vice versa.
    """
    missing = sorted(set(weights) - set(prices))
    if missing:
        raise ValueError(f"weighted items absent from prices: {missing}")
    extra = sorted(set(prices) - set(weights))
    if extra:
        raise ValueError(f"price items without weights: {extra}")
    wsum = sum(weights.values())
    if not wsum > 0:
        raise ValueError("weights must sum to a positive value")
    items = sorted(weights)
    years = set.intersection(*(set(prices[c]) for c in items))
    if base_year not in years:
        raise ValueError(f"base year {fy_label(base_year)} not covered by all price series")
    base = sum(weights[c] * prices[c][base_year] for c in items)
    if not base > 0:
        raise ValueError("nonpositive base-year basket value")
    return {y: 100.0 * sum(weights[c] * prices[c][y] for c in items) / base for y in sorted(years)}


def fao_inr(fao_usd_index: dict[int, float], fx_inr_per_usd: dict[int, float]) -> dict[int, float]:
    """USD-denominated index converted to rupee terms (elementwise product)."""
    missing = sorted(set(fao_usd_index) - set(fx_inr_per_usd))
    if missing:
        raise ValueError(f"fx rate missing for years: {[fy_label(y) for y in missing]}")
    for name, series in (("index", fao_usd_index), ("fx", fx_inr_per_usd)):
        for y, v in series.items():
            if not v > 0:
                raise ValueError(f"nonpositive {name} value at {fy_label(y)}")
    return {y: fao_usd_index[y] * fx_inr_per_usd[y] for y in sorted(fao_usd_index)}


def monsoon_deviation(
    rainfall: dict[int, float], long_term_mean: float
) -> tuple[dict[int, float], dict[int, bool]]:
    """Percent deviation from the long-term mean, plus drought flags.

    A year is flagged as drought when the deviation is below -10 percent
    (strict: exactly -10 is not a drought).
    """
    if not long_term_mean > 0:
        raise ValueError("long-term mean must be positive")
    dev = {y: 100.0 * (r - long_term_mean) / long_term_mean for y, r in sorted(rainfall.items())}
    drought = {y: d < DROUGHT_DEVIATION_PCT for y, d in dev.items()}
    return dev, drought


# ---------------------------------------------------------------------------
# assembly


def load_raw_directory(raw_dir) -> dict[str, dict]:
    """Every known raw file in a directory, keyed by file stem: each series of
    RAW_SCHEMAS as ``load_series_csv`` reads it, ``agri_input_weights`` as an item -> weight map."""
    raw_dir = Path(raw_dir)
    if not raw_dir.is_dir():
        raise ValueError(f"{raw_dir}: not a directory")
    raw: dict[str, dict] = {}
    for name in (*RAW_SCHEMAS, "agri_input_weights"):
        path = raw_dir / f"{name}.csv"
        if path.exists():
            raw[name] = load_series_csv(path, RAW_SCHEMAS[name]) if name in RAW_SCHEMAS else load_weights_csv(path)
    return raw


def assemble_model_table(
    raw: dict[str, dict],
    rain_mean: float | None = None,
    msp_weight_year: int = 2005,
) -> tuple[Dataset, str]:
    """Build the model Dataset from ``load_raw_directory``'s maps; returns (dataset, provenance).

    The usable year span is inferred: the run of consecutive years on which
    the response and every required predictor except ProteinExp are
    defined. ProteinExp joins where available and is missing elsewhere.
    MSP weights are the production shares of ``msp_weight_year``; rainfall
    deviation uses ``rain_mean`` or, if omitted, the mean over all supplied
    rainfall years.
    """
    missing = [n for n in RAW_SCHEMAS if n not in raw]
    if missing:
        raise ValueError(f"missing series: {', '.join(missing)}")
    if "agri_input_weights" not in raw:
        raise ValueError("missing series: agri_input_weights")

    prov: list[str] = []

    fcpi = yoy_change(raw["cpi_food"]["index"])
    prov.append("FCPI: yoy_change(cpi_food.index)")

    rain = raw["rainfall"]["mm"]
    if not rain:
        raise ValueError("rainfall series is empty")
    mean = rain_mean if rain_mean is not None else sum(rain.values()) / len(rain)
    monsdev, drought = monsoon_deviation(rain, mean)
    prov.append(
        f"MonsDev: monsoon_deviation(rainfall.mm, long_term_mean={mean!r})"
        + ("" if rain_mean is not None else " [mean over supplied years]")
    )

    production = raw["msp_production"]
    wrow = {crop: col[msp_weight_year] for crop, col in production.items() if msp_weight_year in col}
    if not wrow:
        raise ValueError(f"MSP weight year {fy_label(msp_weight_year)} not in msp_production")
    if len(wrow) < len(production):
        raise ValueError(f"msp_production has missing cells at {fy_label(msp_weight_year)}")
    msp_base = _covered_years(raw, "msp_prices", "crop")[0]
    msp = yoy_change(weighted_index(raw["msp_prices"], wrow, msp_base))
    prov.append(
        f"MSP: yoy_change(weighted_index(msp_prices, weights=production shares {fy_label(msp_weight_year)},"
        f" base={fy_label(msp_base)})) [YoY is base-invariant]"
    )

    fao = yoy_change(fao_inr(raw["fao_usd"]["index"], raw["fx_inr_usd"]["rate"]))
    prov.append("FAO: yoy_change(fao_usd.index * fx_inr_usd.rate)")

    gdp = raw["gdp"]["value"]
    deficit = raw["fiscal_deficit"]["value"]
    fd = {}
    for y in sorted(set(gdp) & set(deficit)):
        if not gdp[y] > 0:
            raise ValueError(f"nonpositive GDP at {fy_label(y)}")
        fd[y] = 100.0 * deficit[y] / gdp[y]
    prov.append("FD: 100 * fiscal_deficit.value / gdp.value")

    wages = raw["farm_wages"]
    ops = sorted(wages)
    wage_mean = {y: sum(wages[op][y] for op in ops) / len(ops) for y in _covered_years(raw, "farm_wages", "operation")}
    fwi = yoy_change(wage_mean)
    prov.append(f"FWI: yoy_change(mean of farm_wages[{', '.join(ops)}]) [unweighted operations mean]")

    ai_base = _covered_years(raw, "agri_input_prices", "input")[0]
    agril = yoy_change(weighted_index(raw["agri_input_prices"], raw["agri_input_weights"], ai_base))
    prov.append(f"AgrilInput: yoy_change(weighted_index(agri_input_prices, agri_input_weights, base={fy_label(ai_base)}))")

    pfce = raw["pfce"]
    ratio: dict[int, float] = {}
    for y in _covered_years(raw, "pfce"):  # none is no error: ProteinExp is optional
        total = pfce["total_food"][y]
        if not total > 0:
            raise ValueError(f"nonpositive total_food at {fy_label(y)}")
        ratio[y] = 100.0 * sum(pfce[c][y] for c in PROTEIN_ITEMS) / total
    protein = yoy_change(ratio) if len(ratio) >= 2 else {}
    prov.append("ProteinExp: yoy_change(100 * sum(pfce protein items) / pfce.total_food) [missing where PFCE ends]")

    core = {"FCPI": fcpi, "MonsDev": monsdev, "MSP": msp, "FAO": fao, "FD": fd, "FWI": fwi, "AgrilInput": agril}
    common = set.intersection(*(set(s) for s in core.values()))
    if not common:
        raise ValueError("no year is covered by all required series")
    years = _longest_consecutive_run(sorted(common))

    X = np.empty((len(years), len(MODEL_PREDICTORS)))
    for j, name in enumerate(MODEL_PREDICTORS):
        src = protein if name == "ProteinExp" else core[name]
        X[:, j] = [src.get(y, float("nan")) for y in years]
    y_vec = np.asarray([fcpi[y] for y in years])

    droughts = [fy_label(y) for y in years if drought.get(y)]
    prov.append(f"rows: {fy_label(years[0])}-{fy_label(years[-1])} ({len(years)} fiscal years)")
    prov.append("drought years (monsoon deficient beyond 10%): " + (", ".join(droughts) if droughts else "none"))

    dataset = Dataset(tuple(years), MODEL_PREDICTORS, X, y_vec)
    return dataset, "\n".join(prov) + "\n"


def _covered_years(raw: dict[str, dict], name: str, item: str | None = None) -> list[int]:
    """The years, ascending, that every column of raw series ``name`` covers;
    a ValueError naming the series if there are none and ``item``, what a
    column holds, is given."""
    years = sorted(set.intersection(*map(set, raw[name].values())))
    if not years and item:
        raise ValueError(f"{name} has no year covered by every {item}")
    return years


def _longest_consecutive_run(years: list[int]) -> list[int]:
    """The first longest run of consecutive years in ascending ``years``: a
    run's years less their positions are one constant."""
    runs = ([y for _, y in run] for _, run in groupby(enumerate(years), lambda iy: iy[1] - iy[0]))
    return max(runs, key=len)
