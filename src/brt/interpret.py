"""Post-fit analytics: relative influence, partial dependence, interactions.

Partial dependence is defined by brute force, and computed that way: sweep
the chosen feature(s) over a grid and, at each grid point, average the
model's prediction over every learn record with that feature overridden.
Profiles and surfaces are centered to zero mean over their grid. At 25
records and a few dozen grid points this is cheap even for 50k-tree models
because each sweep is one prediction batch, in which every distinct tree
structure is routed once and each stage only looks up its leaf values.

The pairwise interaction score asks how far the bivariate dependence is
from the additive combination of the two univariate ones, evaluated at
the learn records and normalised to the variation of the model output:

    d_i   = PDjk(x_ij, x_ik) - PDj(x_ij) - PDk(x_ik)   (each centered
            over the learn records)
    score = 100 * sum(d_i^2) / sum((F(x_i) - mean F)^2)

Only trees that split on both j and k contribute to d (the others cancel
exactly), so d is computed per distinct tree structure over those trees
alone; it matches the brute-force definition to 1e-12, and a pair that no
tree splits on together scores exactly 0. The overall interaction strength
of a feature is the plain sum of its pairwise scores against every other
feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .boosting import BoostedModel, predict_batch
from .tree import split_improvements


@dataclass(frozen=True)
class InfluenceReport:
    """Per-feature share of total squared-error improvement, in percent."""

    feature_names: tuple[str, ...]
    percent: tuple[float, ...]

    def ranked(self) -> list[tuple[str, float]]:
        order = sorted(range(len(self.percent)), key=lambda i: (-self.percent[i], i))
        return [(self.feature_names[i], self.percent[i]) for i in order]


@dataclass(frozen=True)
class PDProfile:
    feature: int
    feature_name: str
    grid: np.ndarray
    values: np.ndarray  # centered: zero mean over the grid


@dataclass(frozen=True)
class PDSurface:
    features: tuple[int, int]
    feature_names: tuple[str, str]
    grid_j: np.ndarray
    grid_k: np.ndarray
    values: np.ndarray  # (|grid_j|, |grid_k|), centered over all cells


@dataclass(frozen=True)
class InteractionReport:
    feature_names: tuple[str, ...]
    pairwise: dict[tuple[int, int], float]  # keyed by (j, k) with j < k
    overall: dict[int, float]

    def pairwise_ranked(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self.pairwise.items(), key=lambda kv: (-kv[1], kv[0]))

    def overall_ranked(self) -> list[tuple[int, float]]:
        return sorted(self.overall.items(), key=lambda kv: (-kv[1], kv[0]))


def relative_influence(model: BoostedModel) -> InfluenceReport:
    """Split improvements summed per feature over all trees, as percents.

    Every stage contributes on the same scale (improvements are measured
    on each stage's own residuals). Percentages sum to 100.
    """
    totals = np.zeros(model.n_features)
    for stage in model.stages:
        totals += split_improvements(stage.tree)
    grand = float(totals.sum())
    if grand <= 0.0:
        raise ValueError("no splits to attribute")
    percent = 100.0 * totals / grand
    return InfluenceReport(model.feature_names, tuple(float(p) for p in percent))


def _usable_rows(model: BoostedModel, data) -> np.ndarray:
    X = np.asarray(data.X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError("feature count mismatch")
    y = np.asarray(data.y, dtype=np.float64)
    keep = np.isfinite(y)
    X = X[keep] if not keep.all() else X
    if X.shape[0] == 0:
        raise ValueError("empty learn sample")
    return X


def _resolve_grid(X: np.ndarray, feature: int, grid_spec) -> np.ndarray:
    col = X[:, feature]
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ValueError("cannot grid a fully missing feature")
    if grid_spec is None:
        return np.unique(col)
    g = int(grid_spec)
    if g < 2:
        raise ValueError("grid size must be at least 2")
    return np.linspace(float(col.min()), float(col.max()), g)


def _pd_means(model: BoostedModel, X: np.ndarray, features: tuple[int, ...], points: np.ndarray) -> np.ndarray:
    """Mean prediction over all rows of X with `features` overridden by each
    row of `points`; the brute-force partial-dependence kernel."""
    n = X.shape[0]
    g = points.shape[0]
    batch = np.tile(X, (g, 1)).reshape(g, n, X.shape[1])
    for idx, f in enumerate(features):
        batch[:, :, f] = points[:, idx][:, None]
    preds = predict_batch(model, batch.reshape(g * n, X.shape[1]))
    return preds.reshape(g, n).sum(axis=1) / n


def partial_dependence_1d(model: BoostedModel, feature: int, data, grid_spec=None) -> PDProfile:
    """Centered mean-response curve for one feature (brute-force contract)."""
    X = _usable_rows(model, data)
    if not 0 <= feature < model.n_features:
        raise ValueError(f"feature index {feature} out of range")
    grid = _resolve_grid(X, feature, grid_spec)
    raw = _pd_means(model, X, (feature,), grid[:, None])
    values = raw - raw.sum() / len(raw)
    return PDProfile(feature, model.feature_names[feature], grid, values)


def partial_dependence_2d(model: BoostedModel, j: int, k: int, data, grid_spec=None) -> PDSurface:
    """Centered mean-response grid for a feature pair."""
    if j == k:
        raise ValueError("features must differ")
    X = _usable_rows(model, data)
    for f in (j, k):
        if not 0 <= f < model.n_features:
            raise ValueError(f"feature index {f} out of range")
    grid_j = _resolve_grid(X, j, grid_spec)
    grid_k = _resolve_grid(X, k, grid_spec)
    points = np.empty((len(grid_j) * len(grid_k), 2))
    points[:, 0] = np.repeat(grid_j, len(grid_k))
    points[:, 1] = np.tile(grid_k, len(grid_j))
    raw = _pd_means(model, X, (j, k), points).reshape(len(grid_j), len(grid_k))
    values = raw - raw.sum() / raw.size
    return PDSurface((j, k), (model.feature_names[j], model.feature_names[k]), grid_j, grid_k, values)


def _interaction_denominator(model: BoostedModel, X: np.ndarray, data, which: str) -> float:
    if which == "model":
        f = predict_batch(model, X)
        ref = f - f.sum() / len(f)
    elif which == "response":
        y = np.asarray(data.y, dtype=np.float64)
        y = y[np.isfinite(y)]
        ref = y - y.sum() / len(y)
    else:
        raise ValueError("denominator must be 'model' or 'response'")
    den = float((ref * ref).sum())
    if den == 0.0:
        raise ValueError("degenerate model: no output variation")
    return den


def _interaction_scores(model: BoostedModel, data, denominator: str, pairs) -> dict[tuple[int, int], float]:
    """Score of each (j, k) in `pairs` (j < k) from d = PDjk - PDj - PDk at
    each record, centered over the records.

    A tree that splits on neither feature shifts all three dependences by
    one constant, which centering removes, and a tree that splits on only j
    adds the same vector to PDjk and PDj. So in exact arithmetic d is the
    centered sum, over the distinct structures that split on both j and k,
    of B - Uj - Uk: the mean over the records of the structure's summed leaf
    table with both (B) or one (U) of the features overridden by each
    record's own values. Missing cells stay missing under override and route
    by each split's default side. Pairs that share no tree are exactly zero
    and never routed.
    """
    X = _usable_rows(model, data)
    den = _interaction_denominator(model, X, data, denominator)
    plan = model.packed
    n = X.shape[0]
    first_stage: dict[int, int] = {}  # structure id (0, 1, ... by first use) -> that first stage
    for m, sid in enumerate(plan.structure.tolist()):
        first_stage.setdefault(sid, m)
    tables = np.zeros((len(first_stage), plan.scaled.shape[1]))
    np.add.at(tables, plan.structure, plan.scaled)  # stage order within each structure
    batch = np.tile(X, (n, 1))  # row i*n + r: record r with record i's values in the swept columns
    grid = batch.reshape(n, n, X.shape[1])

    def sweep(tree, table, cols: list[int]) -> np.ndarray:
        grid[:, :, cols] = X[:, None, cols]
        leaves = tree.leaf_assignments(batch)
        grid[:, :, cols] = X[None, :, cols]
        return table.take(leaves).reshape(n, n).sum(axis=1) / n

    deltas = {p: np.zeros(n) for p in pairs}
    for sid, m in first_stage.items():
        tree = model.stages[m].tree
        used = sorted(set(tree.feature.tolist()) - {-1})
        shared = [p for p in combinations(used, 2) if p in deltas]
        if not shared:
            continue
        uni = {f: sweep(tree, tables[sid], [f]) for f in sorted({f for p in shared for f in p})}
        for j, k in shared:
            deltas[(j, k)] += sweep(tree, tables[sid], [j, k]) - uni[j] - uni[k]
    centered = {p: d - d.sum() / n for p, d in deltas.items()}
    return {p: 100.0 * float((d * d).sum()) / den for p, d in centered.items()}


def pairwise_interaction(model: BoostedModel, j: int, k: int, data, denominator: str = "model") -> float:
    """Interaction strength of one feature pair, in percent of output variation."""
    if j == k:
        raise ValueError("features must differ")
    for f in (j, k):
        if not 0 <= f < model.n_features:
            raise ValueError(f"feature index {f} out of range")
    pair = (j, k) if j < k else (k, j)
    return _interaction_scores(model, data, denominator, [pair])[pair]


def overall_interaction(model: BoostedModel, data, denominator: str = "model") -> dict[int, float]:
    """Per-feature sum of pairwise scores against all other features."""
    return interaction_report(model, data, denominator).overall


def interaction_report(model: BoostedModel, data, denominator: str = "model") -> InteractionReport:
    """All pairwise scores plus per-feature overall strengths.

    Each distinct tree structure that splits on two or more features is
    routed once per feature and once per feature pair it splits on, over
    the records with those features overridden; the scores equal
    pairwise_interaction's for every pair.
    """
    d = model.n_features
    if d < 2:
        raise ValueError("interaction analysis needs at least 2 features")
    pairwise = _interaction_scores(model, data, denominator, list(combinations(range(d), 2)))
    overall = {
        j: float(sum(v for (a, b), v in pairwise.items() if j in (a, b)))
        for j in range(d)
    }
    return InteractionReport(model.feature_names, pairwise, overall)
