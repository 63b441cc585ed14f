"""Stagewise least-squares gradient boosting with shrinkage and subsampling.

Each stage draws a subsample of rows without replacement, fits a small
tree to the current residuals y - F (the negative gradient of squared
loss, the only loss), scales it by a line-searched step length, shrinks by
the learn rate, and adds it to the running model:

    F_0 = mean(y);  F_m = F_{m-1} + learn_rate * gamma_m * h_m

Everything is deterministic for a fixed seed: subsampling uses the
package's portable splitmix64 stream, split search has fixed tie rules,
and all reductions run in a fixed order, so models are bit-identical
across runs and operating systems.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import SplitMix64, sample_without_replacement
from .tree import RegressionTree, TreeFitter, TreeLimits


@dataclass(frozen=True)
class BoostConfig:
    """Calibration parameters for one boosting run.

    Defaults reproduce the flagship configuration: 50,000 trees, learn
    rate 1e-4, 6-node trees, at least 3 records per leaf, and a 0.95
    subsample fraction. learn_rate 0 is accepted as a degenerate
    diagnostic limit (the fitted model then predicts f0 everywhere).
    ``loss`` must be "least_squares", the only loss fitted; it is kept
    because brtm/1 model headers record it.
    """

    n_trees: int = 50_000
    learn_rate: float = 1e-4
    max_nodes: int = 6
    min_leaf_obs: int = 3
    subsample_fraction: float = 0.95
    loss: str = "least_squares"
    seed: int = 1

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if not 0.0 <= self.learn_rate <= 1.0:
            raise ValueError("learn_rate must be in [0, 1]")
        if self.max_nodes < 3:
            raise ValueError("max_nodes must be at least 3")
        if self.min_leaf_obs < 1:
            raise ValueError("min_leaf_obs must be at least 1")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample_fraction must be in (0, 1]")
        if self.loss != "least_squares":
            raise ValueError(f"unknown loss {self.loss!r}; available: ['least_squares']")


@dataclass(frozen=True)
class Stage:
    tree: RegressionTree
    gamma: float


@dataclass(frozen=True)
class BoostedModel:
    """Immutable fitted ensemble: f0 plus ordered, gamma-scaled trees."""

    f0: float
    stages: tuple[Stage, ...]
    config: BoostConfig
    feature_names: tuple[str, ...]
    degenerate_stages: int = 0  # stages whose tree output was identically zero

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def packed(self) -> PackedStages:
        """Prediction plan, built on first use and kept with the model."""
        return PackedStages.build(self)


@dataclass(frozen=True)
class PackedStages:
    """The stages rearranged for batch prediction.

    Flagship ensembles reuse few tree structures (a structure is a tree's
    feature, threshold, missing_right, left and right arrays: 43 in 1,200
    stages, 320 in 50,000), so prediction routes each distinct structure
    once per batch and then only gathers leaf values per stage. ``scaled``
    row m is ``(learn_rate*gamma_m) * value_m``, the same product per
    element that the stage adds, zero-padded to the widest tree.
    """

    structure: np.ndarray  # structure id of each stage
    last_use: np.ndarray  # True at the last stage of each structure
    scaled: np.ndarray  # (n_stages, widest tree) leaf tables
    leaf_dtype: np.dtype  # smallest unsigned dtype holding every node index

    @classmethod
    def build(cls, model: BoostedModel) -> PackedStages:
        n = model.n_stages
        width = max((s.tree.node_count for s in model.stages), default=1)
        structure = np.empty(n, dtype=np.intp)
        scaled = np.zeros((n, width))
        ids: dict[bytes, int] = {}
        last: dict[int, int] = {}
        lr = model.config.learn_rate
        for m, stage in enumerate(model.stages):
            t = stage.tree
            key = b"".join(a.tobytes() for a in (t.feature, t.threshold, t.missing_right, t.left, t.right))
            sid = structure[m] = ids.setdefault(key, len(ids))
            last[sid] = m
            scaled[m, : t.node_count] = (lr * stage.gamma) * t.value
        last_use = np.zeros(n, dtype=bool)
        last_use[list(last.values())] = True
        return cls(structure, last_use, scaled, np.min_scalar_type(width - 1))


@dataclass(frozen=True)
class StagedCurve:
    """Metric values measured with growing numbers of leading stages."""

    metric: str
    points: tuple[tuple[int, float], ...]


def line_search_gamma(residuals, tree_outputs) -> tuple[float, bool]:
    """Step length minimising sum((r - gamma*h)^2), plus a degeneracy flag.

    For squared loss the minimiser is sum(r*h)/sum(h*h). When the tree
    output is identically zero the step is undefined; gamma=1 is returned
    with the flag set (the stage then contributes nothing).
    """
    r = np.asarray(residuals, dtype=np.float64)
    h = np.asarray(tree_outputs, dtype=np.float64)
    if r.shape != h.shape or r.ndim != 1 or r.size == 0:
        raise ValueError("residuals and tree_outputs must be equal-length nonempty vectors")
    denom = float((h * h).sum())
    if denom == 0.0:
        return 1.0, True
    return float((r * h).sum()) / denom, False


def fit_ensemble(data, config: BoostConfig) -> BoostedModel:
    """Fit a boosted ensemble to a Dataset (or anything with X, y, feature_names).

    Rows with a missing response are excluded up front; predictor cells may
    be missing. Residuals and the line search use only each stage's
    subsample, but the running fit F is maintained on every usable row so
    later subsamples see current values.
    """
    X = np.asarray(data.X, dtype=np.float64)
    y = np.asarray(data.y, dtype=np.float64)
    feature_names = tuple(data.feature_names)
    if X.shape[0] == 0:
        raise ValueError("empty learn sample")
    usable = np.isfinite(y)
    if not usable.any():
        raise ValueError("no usable response values")
    if int(usable.sum()) < 2:
        raise ValueError("empty learn sample")
    if not usable.all():
        X = X[usable]
        y = y[usable]
    n = len(y)

    f0 = float(y.sum()) / n
    current = np.full(n, f0)
    limits = TreeLimits(config.max_nodes, config.min_leaf_obs)
    fitter = TreeFitter(X)
    rng = SplitMix64(config.seed)
    n_sub = max(2, math.floor(config.subsample_fraction * n))

    stages = []
    degenerate = 0
    scale_base = config.learn_rate
    for _ in range(config.n_trees):
        rows = np.asarray(sample_without_replacement(n, n_sub, rng), dtype=np.intp)
        residual = y - current
        tree = fitter.fit(residual, rows, limits)
        outputs = tree.predict_batch(X)
        gamma, flat = line_search_gamma(residual[rows], outputs[rows])
        if flat:
            degenerate += 1
        current += (scale_base * gamma) * outputs
        stages.append(Stage(tree, gamma))

    return BoostedModel(
        f0=f0,
        stages=tuple(stages),
        config=config,
        feature_names=feature_names,
        degenerate_stages=degenerate,
    )


def _stage_count(model: BoostedModel, n_stages) -> int:
    if n_stages is None:
        return model.n_stages
    if not 0 <= n_stages <= model.n_stages:
        raise ValueError(f"n_stages must be in [0, {model.n_stages}]")
    return int(n_stages)


def _running_sums(model: BoostedModel, X: np.ndarray, n_stages: int):
    """Yield (m, F_m(X)) for m = 0..n_stages: f0 plus the first m tree
    outputs, each scaled by learn_rate*gamma rounded once, added in stage
    order into one array that is updated in place and yielded each time.

    Each distinct structure is routed once: its leaf ids are kept, in the
    smallest dtype that holds them, only while a later stage still uses it.
    """
    plan = model.packed
    stages = model.stages
    cached: dict[int, np.ndarray] = {}
    out = np.full(X.shape[0], model.f0)
    yield 0, out
    for m, (sid, last) in enumerate(zip(plan.structure[:n_stages].tolist(), plan.last_use.tolist())):
        leaves = cached.pop(sid, None) if last else cached.get(sid)
        if leaves is None:
            leaves = stages[m].tree.leaf_assignments(X)
            if not last:
                cached[sid] = leaves.astype(plan.leaf_dtype)
        out += plan.scaled[m].take(leaves)
        yield m + 1, out


def predict(model: BoostedModel, sample, n_stages: int | None = None) -> float:
    """predict_batch on one feature row (cells may be NaN)."""
    x = np.asarray(sample, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ValueError("feature count mismatch")
    return float(predict_batch(model, x[None, :], n_stages)[0])


def predict_batch(model: BoostedModel, X, n_stages: int | None = None) -> np.ndarray:
    """f0 plus the first n_stages shrunken tree contributions at each row of
    X, summed in stage order."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError("feature count mismatch")
    k = _stage_count(model, n_stages)
    return deque(_running_sums(model, X, k), maxlen=1).pop()[1]


def staged_metric(model: BoostedModel, data, metric: str = "mse", stride: int | None = None) -> StagedCurve:
    """Metric after k = stride, 2*stride, ... stages (final stage always
    included), accumulated in one pass over the stages."""
    if metric not in ("mse", "r2"):
        raise ValueError("metric must be 'mse' or 'r2'")
    if stride is None:
        stride = max(1, model.n_stages // 500)
    if stride < 1:
        raise ValueError("stride must be >= 1")

    X = np.asarray(data.X, dtype=np.float64)
    y = np.asarray(data.y, dtype=np.float64)
    usable = np.isfinite(y)
    if not usable.all():
        X = X[usable]
        y = y[usable]
    n = len(y)
    if n == 0:
        raise ValueError("empty learn sample")
    if X.shape[1] != model.n_features:
        raise ValueError("feature count mismatch")

    y_mean = float(y.sum()) / n
    sst = float(((y - y_mean) ** 2).sum())
    points = []
    total = model.n_stages
    for m, preds in _running_sums(model, X, total):
        if m and (m % stride == 0 or m == total):
            sse = float(((y - preds) ** 2).sum())
            if metric == "mse":
                points.append((m, sse / n))
            else:
                points.append((m, 1.0 - sse / sst if sst > 0 else float("nan")))
    return StagedCurve(metric=metric, points=tuple(points))
