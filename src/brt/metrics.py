"""Fit-quality measures: MSE, MAD, R-squared, and a rank-based ROC area.

A regression fit has no native positive class, so the ROC area is computed
after binarising the actual values at a documented threshold (median by
default; mean or an explicit value are also supported). Values strictly
above the threshold are positive; the score is the Mann-Whitney statistic
of the predictions with ties counted half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitReport:
    mse: float
    mad: float
    r_squared: float  # NaN when actual has zero variance
    roc_auc: float  # NaN when a binarised class is empty
    n: int

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("MSE", self.mse),
            ("MAD", self.mad),
            ("R-sq", self.r_squared),
            ("ROC AUC", self.roc_auc),
        ]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(actual: np.ndarray, predicted: np.ndarray, threshold: float) -> float:
    """Area under the ROC curve for positives = actual strictly above
    threshold, scored by predicted. NaN when either class is empty."""
    pos = actual > threshold
    n_pos = int(pos.sum())
    n_neg = len(actual) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(predicted)
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def resolve_threshold(actual: np.ndarray, spec) -> float:
    """'median', 'mean', or a number (also accepts 'value:x' strings)."""
    if isinstance(spec, str):
        if spec == "median":
            return float(np.median(actual))
        if spec == "mean":
            return float(actual.sum()) / len(actual)
        if spec.startswith("value:"):
            return float(spec.split(":", 1)[1])
        raise ValueError(f"unknown roc threshold {spec!r}")
    return float(spec)


def fit_report(actual, predicted, roc_threshold="median") -> FitReport:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("actual and predicted must be equal-length nonempty vectors")
    n = len(a)
    err = a - p
    sse = float((err * err).sum())
    mse = sse / n
    mad = float(np.abs(err).sum()) / n
    mean = float(a.sum()) / n
    sst = float(((a - mean) ** 2).sum())
    r2 = 1.0 - sse / sst if sst > 0 else float("nan")
    auc = roc_auc(a, p, resolve_threshold(a, roc_threshold))
    return FitReport(mse=mse, mad=mad, r_squared=r2, roc_auc=auc, n=n)
