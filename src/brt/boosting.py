"""Stagewise least-squares gradient boosting with shrinkage and subsampling.

Each stage draws a subsample of rows without replacement, fits a small
tree to the current residuals y - F (the negative gradient of squared
loss, the only loss), scales it by a line-searched step length, shrinks by
the learn rate, and adds it to the running model:

    F_0 = mean(y);  F_m = F_{m-1} + learn_rate * gamma_m * h_m

Everything is deterministic for a fixed seed: subsampling uses the
package's portable splitmix64 stream, split search has fixed tie rules,
and all reductions run in a fixed order, so models are bit-identical
across runs and operating systems. A model keeps its stages as one table
of padded node columns (BoostedModel), which prediction reads directly.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# sample_without_replacement, the scalar draw that sample_blocks reproduces, stays a
# name of this module: perfbench's span table wraps it here.
from .rng import SplitMix64, sample_blocks, sample_without_replacement  # noqa: F401
from .tree import NODE_FIELDS, RegressionTree, TreeFitter, TreeLimits, goes_right

# The node fields that decide which leaf a row reaches.
ROUTING = ("feature", "threshold", "missing_right", "left", "right")
# Bytes of temporaries (fail masks, float rows, keys) that one block of structures or
# stages aims to hold at once: 128 KiB, small enough to keep the commands' peak memory
# about flat, large enough to amortise each numpy step. A block holds at least one,
# whatever that takes; copies of the rows are not counted.
BLOCK_CELLS = 1 << 17


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
        TreeLimits(self.max_nodes, self.min_leaf_obs)  # checks both
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample_fraction must be in (0, 1]")
        if self.loss != "least_squares":
            raise ValueError(f"unknown loss {self.loss!r}; available: ['least_squares']")


class Stage(NamedTuple):
    tree: RegressionTree
    gamma: float


@dataclass(frozen=True, eq=False)
class BoostedModel:
    """Immutable fitted ensemble: f0 plus ordered, gamma-scaled trees, stored
    as columns: stage m is row m of ``gamma``, ``node_count`` and each
    (n_stages, widest tree) array in ``nodes``, one per NODE_FIELDS entry,
    with leaf placeholders past the stage's node count."""

    f0: float
    config: BoostConfig
    feature_names: tuple[str, ...]
    gamma: np.ndarray
    node_count: np.ndarray
    nodes: dict[str, np.ndarray]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_stages(self) -> int:
        return len(self.gamma)

    @property
    def stages(self) -> Iterator[Stage]:
        """Each stage in order as a Stage(tree, gamma), made from its row of the columns when reached."""
        for m in range(self.n_stages):
            tree = RegressionTree(*(self.nodes[k][m, : self.node_count[m]] for k in NODE_FIELDS), self.n_features)
            yield Stage(tree, float(self.gamma[m]))

    @cached_property
    def degenerate_stages(self) -> int:
        """Stages whose tree output is identically zero: every leaf holds 0.0
        (the padding past a stage's node count is such a leaf)."""
        n = self.nodes
        return int(np.count_nonzero(((n["feature"] >= 0) | (n["value"] == 0.0)).all(axis=1)))

    @cached_property
    def structure(self) -> np.ndarray:
        """Structure id of each stage, numbered by first use: stages share one when
        their node counts and ROUTING rows match, thresholds bit for bit. Rows are
        keyed a block of stages at a time, so only distinct keys outlive a block."""
        routing = [self.nodes[k].view(np.int64) if k == "threshold" else self.nodes[k] for k in ROUTING]
        ids: dict[bytes, int] = {}
        structure = np.empty(self.n_stages, dtype=np.intp)
        # cells per stage: an int64 key row and a bytes copy of it
        for block in _blocks(range(self.n_stages), 16 * (1 + len(ROUTING) * self.nodes["feature"].shape[1])):
            keys = np.column_stack([self.node_count[block], *(r[block] for r in routing)])
            rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()
            structure[block] = [ids.setdefault(r, len(ids)) for r in rows]
        return structure

    @cached_property
    def structure_tables(self) -> dict[str, np.ndarray]:
        """Each distinct tree structure, in order of first use, as one row of
        (n_structures, widest tree) columns: the ROUTING fields of its first
        stage, padded with leaf placeholders, a leaf's children being -1 whatever
        the file held there; ``leaf``, true at its leaves; ``leaves``, its leaf
        positions in node order, then a position off them up to the most leaves;
        and ``table``, at each of ``leaves``, the scaled values of its stages'
        leaves summed in stage order, 0 off the leaves."""
        # ids are numbered by first use: id s first appears where the running maximum reaches s
        rows = np.searchsorted(np.maximum.accumulate(self.structure), np.arange(self.structure.max(initial=-1) + 1))
        columns = {k: self.nodes[k][rows] for k in ROUTING}
        for k in ("left", "right"):
            columns[k] = np.where(columns["feature"] >= 0, columns[k], -1)
        filled = np.arange(self.scaled.shape[1]) < self.node_count[rows][:, None]
        leaf = columns["leaf"] = (columns["feature"] < 0) & filled
        rank = np.cumsum(leaf, axis=1) - 1  # each leaf's place among its structure's leaves
        # padding, a position off the leaves (the root, or position 1 of a one-node tree), then the leaves
        leaves = np.repeat(leaf[:, :1].astype(np.intp), rank[:, -1].max(initial=-1) + 1, axis=1)
        leaves[leaf.nonzero()[0], rank[leaf]] = leaf.nonzero()[1]
        tables = np.zeros(leaf.shape)
        np.add.at(tables, self.structure, self.scaled)
        columns["leaves"], columns["table"] = leaves, np.take_along_axis(np.where(leaf, tables, 0.0), leaves, axis=1)
        return columns

    @cached_property
    def scaled(self) -> np.ndarray:
        """Leaf tables: row m is ``(learn_rate*gamma_m) * value_m``, the product stage m adds."""
        return (self.config.learn_rate * self.gamma)[:, None] * self.nodes["value"]


def node_columns(count: np.ndarray, nodes: dict) -> dict[str, np.ndarray]:
    """One (n_stages, widest) column per NODE_FIELDS entry: row m holds the next
    count[m] entries of the flat array ``nodes[name]``, stage after stage, then
    leaf placeholders. The one place node columns are padded: each flat array is
    popped from ``nodes`` as its column is filled, so it is dropped once copied."""
    filled = np.arange(int(count.max(initial=1))) < count[:, None]
    columns = {}
    for name, (dtype, pad) in NODE_FIELDS.items():
        column = columns[name] = np.full(filled.shape, pad, dtype=dtype)
        column[filled] = nodes.pop(name)
    return columns


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
    denom = float(np.add.reduce(h * h))
    if denom == 0.0:
        return 1.0, True
    return float(np.add.reduce(r * h)) / denom, False


def fit_ensemble(data, config: BoostConfig) -> BoostedModel:
    """Fit a boosted ensemble to a Dataset (or anything with X, y, feature_names).

    Rows with a missing response are excluded up front; predictor cells may
    be missing. Residuals and the line search use only each stage's
    subsample, but the running fit F is maintained on every usable row so
    later subsamples see current values.

    The fitter writes each stage's tree into its row of the model's columns
    and returns every row's leaf, so the fit holds one copy of the model. The
    columns are ``limits.widest(n_sub)`` wide, the most nodes a tree fit on a
    subsample can have, and are trimmed to the widest tree at the end.
    """
    X, y = _finite_response(np.asarray(data.X, dtype=np.float64), np.asarray(data.y, dtype=np.float64))
    n = len(y)
    if n < 2:
        raise ValueError("empty learn sample")

    f0 = float(y.sum()) / n
    current = np.full(n, f0)
    limits = TreeLimits(config.max_nodes, config.min_leaf_obs)
    fitter = TreeFitter(X, limits)
    rng = SplitMix64(config.seed)
    n_sub = max(2, math.floor(config.subsample_fraction * n))

    gamma = np.empty(config.n_trees)
    count = np.empty(config.n_trees, dtype=np.intp)
    shape = (config.n_trees, limits.widest(n_sub))
    nodes = {k: np.full(shape, pad, dtype=dtype) for k, (dtype, pad) in NODE_FIELDS.items()}
    for m, rows in enumerate(sample_blocks(n, n_sub, rng, config.n_trees)):
        residual = y - current
        row = {k: column[m] for k, column in nodes.items()}
        count[m], leaf = fitter.fit(residual, rows, row)
        outputs = row["value"][leaf]
        g, _ = line_search_gamma(residual[rows], outputs[rows])
        current += (config.learn_rate * g) * outputs
        gamma[m] = g

    widest = int(count.max(initial=1))
    for k in NODE_FIELDS:  # one column at a time, so the trim holds one spare column at most
        nodes[k] = np.ascontiguousarray(nodes[k][:, :widest])
    return BoostedModel(f0, config, tuple(data.feature_names), gamma, count, nodes)


def _usable_rows(model: BoostedModel, data) -> tuple[np.ndarray, np.ndarray]:
    """data's X and y as floats, on the rows whose response is finite; a
    ValueError when X lacks the model's features or no row is left."""
    X = np.asarray(data.X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError("feature count mismatch")
    return _finite_response(X, np.asarray(data.y, dtype=np.float64))


def _finite_response(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float table X, y on the rows whose response is finite; a ValueError
    when the table is empty or no row has a finite response."""
    if X.shape[0] == 0:
        raise ValueError("empty learn sample")
    usable = np.isfinite(y)
    if not usable.any():
        raise ValueError("no usable response values")
    return X[usable], y[usable]


def _blocks(ids, cells: int):
    """Consecutive runs of the structure (or stage) ids `ids`, each as many as
    fit in BLOCK_CELLS when one id's temporaries take `cells` cells."""
    size = max(1, BLOCK_CELLS // max(cells, 1))
    return [ids[a : a + size] for a in range(0, len(ids), size)]


def _mask_blocks(model: BoostedModel, ids, rows: int, n_columns: int):
    """(block, its structure_tables rows) for runs of the structure ids `ids`, as many as fit
    in BLOCK_CELLS at a fail mask over width + 1 node positions and two float rows per row."""
    tables, size = model.structure_tables, np.min_scalar_type((1 << n_columns) - 1).itemsize
    for block in _blocks(ids, ((tables["feature"].shape[1] + 1) * size + 16) * rows):
        yield block, {k: v[block] for k, v in tables.items()}


def _fail_mask(columns: dict, V: np.ndarray, cols) -> np.ndarray:
    """fail[s, l, row]: bit c is set when V's row leaves the path to leaf
    ``columns["leaves"][s, l]`` at a split on feature cols[c] (column c of V);
    a split on another feature sets none. The row passes every split on the
    features of bits b along the path when ``fail & b == 0``. The dtype is the
    smallest unsigned integer with a bit per column, Python ints past 64. One
    numpy step per node position serves every structure in `columns`
    (structure_tables rows), as children are numbered after their parent."""
    feature, threshold, missing_right, left, right = (columns[k] for k in ROUTING)
    at = np.full(feature.shape, -1)  # the column of V holding each split's feature, -1 for none
    for c, f in enumerate(cols):
        at[feature == f] = c
    dtype = np.min_scalar_type((1 << len(cols)) - 1)
    bit = np.array([1 << c for c in range(len(cols))] + [0], dtype=dtype)  # bit[-1]: no column
    values = np.concatenate([V.T, np.zeros((1, V.shape[0]))])  # row -1 stands in for the other features
    fail = np.zeros((feature.shape[0], feature.shape[1] + 1, V.shape[0]), dtype=dtype)  # a leaf's children: -1, a spare
    every = np.arange(feature.shape[0])
    for i in range(feature.shape[1]):
        up = goes_right(values[at[:, i]], threshold[:, i, None], missing_right[:, i, None])
        split, parent = bit[at[:, i], None], fail[:, i]
        right_bit = split * up  # the split's bit where the row goes right, so leaves the left path
        fail[every, left[:, i]] = parent | right_bit
        fail[every, right[:, i]] = parent | (split ^ right_bit)
    return fail[every[:, None], columns["leaves"]]


def _running_sums(model: BoostedModel, X: np.ndarray, n_stages: int):
    """Yield (m, F_m(X)) for m = 0..n_stages: f0 plus the first m tree
    outputs, each scaled by learn_rate*gamma rounded once, added in stage
    order into one array that is updated in place and yielded each time.

    Before the first yield, the structures those stages use (ids 0 up to
    the largest, as ids are numbered by first use) are routed once, a block
    at a time, by the fail-mask builder the analytics share: a row's leaf is
    the first of its structure's leaves where its mask is 0, the one it
    reaches, as the padding follows the leaves. Leaf ids are integers, kept
    in the smallest dtype that holds them, so routing changes no bit of a sum.
    """
    scaled, structure = model.scaled, model.structure[:n_stages]
    n, d = X.shape
    leaves = np.empty((int(structure.max(initial=-1)) + 1, n), dtype=np.min_scalar_type(scaled.shape[1] - 1))
    for block, columns in _mask_blocks(model, np.arange(len(leaves)), n, d):
        leaves[block] = np.take_along_axis(columns["leaves"], (_fail_mask(columns, X, range(d)) == 0).argmax(axis=1), 1)
    out = np.full(n, model.f0)
    yield 0, out
    for m, sid in enumerate(structure.tolist()):
        out += scaled[m].take(leaves[sid])
        yield m + 1, out


def predict(model: BoostedModel, sample, n_stages: int | None = None) -> float:
    """predict_batch on one feature row (cells may be NaN)."""
    return float(predict_batch(model, [sample], n_stages)[0])


def predict_batch(model: BoostedModel, X, n_stages: int | None = None) -> np.ndarray:
    """f0 plus the first n_stages shrunken tree contributions at each row of
    X, summed in stage order."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError("feature count mismatch")
    k = model.n_stages if n_stages is None else n_stages
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"n_stages must be an integer, got {n_stages!r}")
    if not 0 <= k <= model.n_stages:
        raise ValueError(f"n_stages must be in [0, {model.n_stages}]")
    return deque(_running_sums(model, X, int(k)), maxlen=1).pop()[1]


def staged_metric(model: BoostedModel, data, metric: str = "mse", stride: int | None = None) -> StagedCurve:
    """Metric after k = stride, 2*stride, ... stages (final stage always
    included), accumulated in one pass over the stages."""
    if metric not in ("mse", "r2"):
        raise ValueError("metric must be 'mse' or 'r2'")
    if stride is None:
        stride = max(1, model.n_stages // 500)
    if stride < 1:
        raise ValueError("stride must be >= 1")

    X, y = _usable_rows(model, data)
    n = len(y)
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
