"""Shared fixtures and toy-data builders."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from brt.boosting import BoostConfig, fit_ensemble
from brt.data import Dataset
from brt.standin import load_bundled


def random_dataset(rng: np.random.Generator, n_rows: int, n_features: int, missing=False) -> Dataset:
    X = rng.uniform(-5.0, 5.0, size=(n_rows, n_features))
    if missing and n_rows > 2:
        holes = rng.integers(0, 2, size=X.shape).astype(bool) & (rng.uniform(size=X.shape) < 0.15)
        X[holes] = np.nan
    y = rng.uniform(-3.0, 3.0, size=n_rows)
    return Dataset.from_arrays(X, y)


def lattice_dataset(fn, lo=0.0, hi=2.0, side=5) -> Dataset:
    g = np.linspace(lo, hi, side)
    X = np.array([[a, b] for a in g for b in g])
    return Dataset.from_arrays(X, fn(X[:, 0], X[:, 1]))


def write_toy_raw(raw_dir) -> dict:
    """Three usable fiscal years (2005-07) of raw series with hand-computable
    transforms; returns the expected model-table columns."""
    raw_dir.mkdir(parents=True, exist_ok=True)

    def put(name, text):
        (raw_dir / name).write_text(text, encoding="utf-8")

    put("cpi_food.csv", "year,index\n2004,100\n2005,105\n2006,115.5\n2007,127.05\n")
    put("rainfall.csv", "year,mm\n2005,900\n2006,765\n2007,945\n")
    put(
        "msp_prices.csv",
        "year,rice,wheat\n2004,10,20\n2005,12,20\n2006,15,22\n2007,15,26.4\n",
    )
    put("msp_production.csv", "year,rice,wheat\n2005,60,40\n")
    put("fao_usd.csv", "year,index\n2004,100\n2005,100\n2006,110\n2007,99\n")
    put("fx_inr_usd.csv", "year,rate\n2004,40\n2005,50\n2006,50\n2007,55\n")
    put("gdp.csv", "year,value\n2005,1000\n2006,1100\n2007,1210\n")
    put("fiscal_deficit.csv", "year,value\n2005,60\n2006,77\n2007,60.5\n")
    put(
        "farm_wages.csv",
        "year,ploughing,harvesting\n2004,50,70\n2005,55,77\n2006,60.5,84.7\n2007,66.55,93.17\n",
    )
    put(
        "agri_input_prices.csv",
        "year,diesel,fertiliser\n2004,100,100\n2005,110,100\n2006,110,110\n2007,121,110\n",
    )
    put("agri_input_weights.csv", "item,weight\ndiesel,0.5\nfertiliser,0.5\n")
    put(
        "pfce.csv",
        "year,pulses,oils_oilseeds,milk_products,meat_egg_fish,total_food\n"
        "2004,10,10,15,5,100\n2005,11,10,16,5,100\n2006,11,11,16,6,110\n",
    )

    # hand-worked expectations (spreadsheet-style):
    # MSP basket (w=.6/.4): 14, 15.2, 17.8, 19.56 -> YoY below
    return {
        "years": (2005, 2006, 2007),
        "FCPI": [5.0, 10.0, 10.0],
        "MonsDev": [0.0, -15.0, 5.0],
        "MSP": [100 * 1.2 / 14, 100 * 2.6 / 15.2, 100 * 1.76 / 17.8],
        "FAO": [25.0, 10.0, -1.0],
        "FD": [6.0, 7.0, 5.0],
        "FWI": [10.0, 10.0, 10.0],
        "AgrilInput": [5.0, 100 * 5 / 105, 5.0],
        "ProteinExp": [5.0, -100 / 21, float("nan")],
        "drought_years": ["FY06"],
    }


@pytest.fixture(scope="session")
def additive_lattice_model():
    ds = lattice_dataset(lambda a, b: a + 2 * b)
    config = BoostConfig(
        n_trees=3000, learn_rate=0.1, max_nodes=3, min_leaf_obs=1, subsample_fraction=1.0, seed=11
    )
    return fit_ensemble(ds, config), ds


@pytest.fixture(scope="session")
def multiplicative_lattice_model():
    ds = lattice_dataset(lambda a, b: a * b)
    config = BoostConfig(
        n_trees=3000, learn_rate=0.1, max_nodes=6, min_leaf_obs=1, subsample_fraction=1.0, seed=11
    )
    return fit_ensemble(ds, config), ds


def traced_peak(fn, *args):
    """fn(*args), and the peak bytes of the Python allocations made while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(model) -> int:
    """Bytes of a model's columns."""
    return model.gamma.nbytes + model.node_count.nbytes + sum(c.nbytes for c in model.nodes.values())


def assert_peak_flat(small, large, extra_small, extra_large):
    """From the model `small` to the model `large`, the peak bytes a step holds
    beyond the columns it returns (extra_*) grow by less than half of what the
    columns grow by: room for one spare column and per-block bookkeeping, not
    for a second copy of the model or of its text."""
    growth = column_bytes(large) - column_bytes(small)
    assert growth > 0
    assert extra_large - extra_small < growth / 2, (extra_small, extra_large, growth)


@pytest.fixture(scope="session")
def standin_fits():
    """{stages: (model, peak bytes of its fit)}: flagship fits of 2,000 and 4,000
    stages on the stand-in table, after a small fit that warms every cache."""
    ds = load_bundled()
    fit_ensemble(ds, BoostConfig(n_trees=50))
    return {n: traced_peak(fit_ensemble, ds, BoostConfig(n_trees=n)) for n in (2000, 4000)}
