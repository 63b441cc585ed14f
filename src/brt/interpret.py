"""Post-fit analytics: relative influence, partial dependence, interactions.

Partial dependence is defined by brute force: sweep the chosen feature(s)
over a grid and, at each point, average the model's prediction over every
learn record with those features overridden; profiles and surfaces are
centered over their grid. It is computed by path factorisation (Friedman
2001, section 8.2): a record with the features S set to g reaches leaf l
exactly when g passes l's path splits on S and the record passes the rest,
so PD_S(g) = f0 + sum over structures and leaves l of T[l] * pass_l,S(g) *
mean_r pass_l,not S(x_r), T being a structure's scaled leaf values summed
in stage order. Passes use ``tree.goes_right``, the rule that prediction
routes by, so NaN, +-inf and values on a threshold go where prediction sends
them; this matches the brute-force loop to 1e-12 without a grid-by-records
batch.

The pairwise interaction score asks how far the bivariate dependence is
from the additive combination of the two univariate ones, evaluated at
the learn records and normalised to the variation of the model output:

    d_i   = PDjk(x_ij, x_ik) - PDj(x_ij) - PDk(x_ik)   (each centered
            over the learn records)
    score = 100 * sum(d_i^2) / sum((F(x_i) - mean F)^2)

A pair that no tree splits on together scores exactly 0. A feature's
overall strength is the sum of its pairwise scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .boosting import BoostedModel, predict_batch
from .tree import RegressionTree, goes_right, split_improvements


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
    X = X[np.isfinite(np.asarray(data.y, dtype=np.float64))]
    if X.shape[0] == 0:
        raise ValueError("empty learn sample")
    return X


def _check_features(model: BoostedModel, *features: int) -> None:
    if len(set(features)) < len(features):
        raise ValueError("features must differ")
    for f in features:
        if not 0 <= f < model.n_features:
            raise ValueError(f"feature index {f} out of range")


def _resolve_grid(X: np.ndarray, feature: int, grid_spec) -> np.ndarray:
    col = X[:, feature]
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ValueError("cannot grid a fully missing feature")
    if grid_spec is None:  # np.unique(col) without its first-call memory: sort, keep each first of equals
        col = np.sort(col)
        return col[np.concatenate(([True], col[1:] != col[:-1]))]
    g = int(grid_spec)
    if g < 2:
        raise ValueError("grid size must be at least 2")
    return np.linspace(float(col.min()), float(col.max()), g)


def _passes(tree: RegressionTree, V: np.ndarray, cols) -> np.ndarray:
    """P[leaf, c, row]: does V[row, c], as a value of feature cols[c], pass
    every split on that feature along the path to the leaf? Leaves are in
    node order; splits on features outside `cols` are not checked."""
    at = {f: c for c, f in enumerate(cols)}
    ok = np.ones((tree.node_count, len(at), V.shape[0]), dtype=bool)
    nodes = zip(*(a.tolist() for a in (tree.feature, tree.threshold, tree.missing_right, tree.left, tree.right)))
    for i, (f, thr, missing_right, lo, hi) in enumerate(nodes):
        if f < 0:
            continue
        ok[lo] = ok[hi] = ok[i]  # children are numbered after their parent
        c = at.get(f)
        if c is not None:
            right = goes_right(V[:, c], thr, missing_right)
            ok[lo, c] &= ~right
            ok[hi, c] &= right
    return ok[tree.feature < 0]


def _pd_means(model: BoostedModel, X: np.ndarray, features: tuple[int, ...], points: np.ndarray) -> np.ndarray:
    """Mean prediction over all rows of X with `features` overridden by each
    row of `points`, by path factorisation (see the module docstring)."""
    rest = [f for f in range(X.shape[1]) if f not in features]
    out = np.full(points.shape[0], model.f0)
    for tree, table in model.structure_tables:
        reach = np.where(_passes(tree, X[:, rest], rest).all(axis=1), 1.0, 0.0).sum(axis=1) / X.shape[0]
        out += np.where(_passes(tree, points, features).all(axis=1), (table * reach)[:, None], 0.0).sum(axis=0)
    return out


def partial_dependence_1d(model: BoostedModel, feature: int, data, grid_spec=None) -> PDProfile:
    """Centered mean-response curve for one feature (brute-force contract)."""
    X = _usable_rows(model, data)
    _check_features(model, feature)
    grid = _resolve_grid(X, feature, grid_spec)
    raw = _pd_means(model, X, (feature,), grid[:, None])
    return PDProfile(feature, model.feature_names[feature], grid, raw - raw.sum() / len(raw))


def partial_dependence_2d(model: BoostedModel, j: int, k: int, data, grid_spec=None) -> PDSurface:
    """Centered mean-response grid for a feature pair."""
    _check_features(model, j, k)
    X = _usable_rows(model, data)
    grid_j, grid_k = (_resolve_grid(X, f, grid_spec) for f in (j, k))
    points = np.column_stack([np.repeat(grid_j, len(grid_k)), np.tile(grid_k, len(grid_j))])
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


def _interaction_scores(model: BoostedModel, data, denominator: str) -> np.ndarray:
    """Scores of all pairs: entry [j, k], j < k, from d = PDjk - PDj - PDk.

    A tree that splits on neither feature shifts all three dependences by
    one constant, which centering removes; one that splits on only j adds
    the same vector to PDjk and PDj. So d is the centered sum, over the
    structures that split on both, of B - Uj - Uk: the structure's PD with
    both (B) or one (U) feature set to each record's own values.
    """
    X = _usable_rows(model, data)
    den = _interaction_denominator(model, X, data, denominator)
    n, d = X.shape
    delta = np.zeros((d, d, n))  # the diagonal is never read
    for tree, table in model.structure_tables:
        used = sorted(set(tree.feature.tolist()) - {-1})
        if len(used) < 2:
            continue
        miss = np.where(_passes(tree, X[:, used], used), 0.0, 1.0)  # floats: int sums page in more numpy
        fails = miss.sum(axis=1)  # per leaf and record: features whose path splits it fails
        # share of records failing no feature but j (one), or but j and k (two)
        one = np.where(fails[:, None, :] == miss, 1.0, 0.0).sum(axis=2) / n
        two = np.where(fails[:, None, None, :] == miss[:, :, None, :] + miss[:, None, :, :], 1.0, 0.0).sum(axis=3) / n
        hit = 1.0 - miss
        U = ((table[:, None] * one)[:, :, None] * hit).sum(axis=0)
        B = ((table[:, None, None] * two)[..., None] * (hit[:, :, None, :] * hit[:, None, :, :])).sum(axis=0)
        delta[np.ix_(used, used)] += B - U[:, None, :] - U[None, :, :]
    centered = delta - delta.sum(axis=2, keepdims=True) / n
    return 100.0 * (centered * centered).sum(axis=2) / den


def pairwise_interaction(model: BoostedModel, j: int, k: int, data, denominator: str = "model") -> float:
    """Interaction strength of one feature pair, in percent of output variation."""
    _check_features(model, j, k)
    return float(_interaction_scores(model, data, denominator)[min(j, k), max(j, k)])


def overall_interaction(model: BoostedModel, data, denominator: str = "model") -> dict[int, float]:
    """Per-feature sum of pairwise scores against all other features."""
    return interaction_report(model, data, denominator).overall


def interaction_report(model: BoostedModel, data, denominator: str = "model") -> InteractionReport:
    """All pairwise scores, each bit-equal to pairwise_interaction's (both
    read one computation of every pair), plus per-feature overall strengths."""
    d = model.n_features
    if d < 2:
        raise ValueError("interaction analysis needs at least 2 features")
    scores = _interaction_scores(model, data, denominator)
    pairwise = {(j, k): float(scores[j, k]) for j, k in combinations(range(d), 2)}
    overall = {j: float(sum(v for pair, v in pairwise.items() if j in pair)) for j in range(d)}
    return InteractionReport(model.feature_names, pairwise, overall)
