import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt.metrics import FitReport, _average_ranks, fit_report, resolve_threshold, roc_auc

from oracles import average_ranks


def test_perfect_fit():
    r = fit_report([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0])
    assert r.mse == 0.0
    assert r.mad == 0.0
    assert r.r_squared == 1.0
    assert r.roc_auc == 1.0
    assert r.n == 4


def test_four_point_auc_example():
    r = fit_report([0.0, 0.0, 1.0, 1.0], [0.1, 0.2, 0.8, 0.9])
    assert r.roc_auc == 1.0
    assert r.mse == pytest.approx(0.025, rel=1e-14)  # mean of (.01,.04,.04,.01)


def test_mean_predictor_r2_exactly_zero():
    y = np.array([3.0, 7.0, 1.0, 9.0, 4.0])
    mean = float(y.sum()) / len(y)
    r = fit_report(y, np.full(5, mean))
    assert r.r_squared == 0.0


def test_zero_variance_actual_marks_r2_undefined():
    r = fit_report([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert math.isnan(r.r_squared)
    assert r.mse == pytest.approx(2.0 / 3.0)
    assert math.isnan(r.roc_auc)  # no positive class either


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        fit_report([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        fit_report([], [])


def test_auc_with_ties_counts_half():
    # two positives, two negatives, all scores identical -> 0.5
    assert roc_auc(np.array([0, 0, 1, 1.0]), np.array([5.0, 5.0, 5.0, 5.0]), 0.5) == 0.5


def test_threshold_variants():
    a = np.array([1.0, 2.0, 3.0, 10.0])
    assert resolve_threshold(a, "median") == 2.5
    assert resolve_threshold(a, "mean") == 4.0
    assert resolve_threshold(a, "value:2") == 2.0
    assert resolve_threshold(a, 7) == 7.0
    with pytest.raises(ValueError):
        resolve_threshold(a, "quartile")
    for spec in ("value:abc", "value:", "value:nan", "value:inf", "value:-inf", float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match=f"roc threshold {re.escape(repr(spec))} must be a finite number"):
            resolve_threshold(a, spec)
    r_med = fit_report(a, a, roc_threshold="median")
    r_val = fit_report(a, a, roc_threshold="value:9")
    assert r_med.roc_auc == 1.0 and r_val.roc_auc == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from((0.0, -0.0, 1.5, 5e-324)), min_size=1, max_size=30))
def test_median_threshold_equals_np_median(actual):
    a = np.asarray(actual)
    assert resolve_threshold(a, "median") == np.median(a)  # a zero's sign may differ, which no comparison sees


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=30),
    st.integers(0, 2**32 - 1),
)
def test_auc_invariant_under_monotone_transform(actual, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(actual)
    p = rng.normal(size=len(a))
    thr = float(np.median(a))
    base = roc_auc(a, p, thr)
    transformed = roc_auc(a, np.exp(p / 50.0), thr)  # strictly increasing map
    if math.isnan(base):
        assert math.isnan(transformed)
    else:
        assert transformed == pytest.approx(base, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=25),
    st.integers(0, 2**32 - 1),
)
def test_mad_at_most_root_mse(actual, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(actual)
    p = a + rng.normal(size=len(a))
    r = fit_report(a, p)
    assert r.mse >= 0.0
    assert r.mad <= math.sqrt(r.mse) * (1 + 1e-12) + 1e-12


def test_report_rows_for_printing():
    r = FitReport(mse=0.1, mad=0.2, r_squared=0.9, roc_auc=0.8, n=5)
    assert [name for name, _ in r.rows()] == ["MSE", "MAD", "R-sq", "ROC AUC"]


def test_average_ranks_pinned_example():
    nan = float("nan")
    assert _average_ranks(np.array([1, nan, 1, nan, 0.5])).tolist() == [2.5, 4, 2.5, 5, 1]


# Ties, both signed zeros, infinities and NaN, which ties with nothing (not even another NaN).
RANK_CELLS = (0.0, -0.0, 1.0, 0.5, -2.0, float("inf"), float("-inf"), float("nan"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(RANK_CELLS), st.floats()), max_size=40))
def test_average_ranks_match_brute_force_oracle(cells):
    got = _average_ranks(np.array(cells, dtype=np.float64))
    assert got.tobytes() == np.array(average_ranks(cells), dtype=np.float64).tobytes()
