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
    """1-based ranks with ties sharing their average rank; a NaN ties with nothing."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))  # where each run of equal values starts
    ends = np.append(starts[1:], len(v)) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
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
    """'median', 'mean', or a finite number (also accepts 'value:x' strings)."""
    if spec == "median":  # np.median's value without its first-call import of numpy.ma (~1 MB)
        s, mid = np.sort(actual), len(actual) // 2
        return float(s[mid]) if len(s) % 2 else (float(s[mid - 1]) + float(s[mid])) / 2.0
    if spec == "mean":
        return float(actual.sum()) / len(actual)
    if isinstance(spec, str) and not spec.startswith("value:"):
        raise ValueError(f"unknown roc threshold {spec!r}; give median, mean or value:x")
    try:
        threshold = float(spec.removeprefix("value:") if isinstance(spec, str) else spec)
    except (TypeError, ValueError):
        threshold = math.nan  # rejected below with the infinities
    if not math.isfinite(threshold):
        raise ValueError(f"roc threshold {spec!r} must be a finite number")
    return threshold


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
