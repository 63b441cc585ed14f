"""Post-fit analytics: relative influence, partial dependence, interactions.

Partial dependence is defined by brute force: sweep the chosen feature(s)
over a grid and, at each point, average the model's prediction over every
learn record with those features overridden; profiles and surfaces are
centered over their grid. It is computed by path factorisation (Friedman
2001, section 8.2): a record with the features S set to g reaches leaf l
exactly when g passes l's path splits on S and the record passes the rest,
so PD_S(g) = f0 + sum over structures and leaves l of T[l] * pass_l,S(g) *
mean_r pass_l,not S(x_r), T being a structure's scaled leaf values summed
in stage order. Passes come from ``boosting._pass_table``, the builder that
prediction routes blocks of structures with, so NaN, +-inf and values on a
threshold go where prediction sends them; this matches the brute-force loop
to 1e-12 without a grid-by-records batch.

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

from .boosting import BoostedModel, _blocks, _pass_table, _usable_rows, predict_batch
from .tree import split_improvements

# The most points one profile or surface may have (a 1024 x 1024 surface), checked
# before any grid is made, since a surface allocates grid-squared points.
MAX_GRID_POINTS = 1 << 20


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
    totals = split_improvements(model.nodes["feature"], model.nodes["improvement"], model.n_features)
    grand = float(totals.sum())
    if grand <= 0.0:
        raise ValueError("no splits to attribute")
    percent = 100.0 * totals / grand
    return InfluenceReport(model.feature_names, tuple(float(p) for p in percent))


def _check_features(model: BoostedModel, *features: int) -> None:
    if len(set(features)) < len(features):
        raise ValueError("features must differ")
    for f in features:
        if not 0 <= f < model.n_features:
            raise ValueError(f"feature index {f} out of range")


def _grid_size(grid_spec, dims: int):
    """The size `grid_spec` asks for on each of `dims` features, or None for the
    observed values; checked before any grid is made."""
    if grid_spec is None:
        return None
    g = int(grid_spec)
    if g < 2:
        raise ValueError("grid size must be at least 2")
    _check_points(g**dims)
    return g


def _check_points(count: int) -> None:
    if count > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {count} points is over the cap of {MAX_GRID_POINTS}; give a smaller --grid")


def _resolve_grid(X: np.ndarray, feature: int, size) -> np.ndarray:
    """`size` points spaced evenly over the feature's finite values, or those
    values themselves when `size` is None."""
    col = X[:, feature]
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ValueError("cannot grid a fully missing feature")
    if size is None:  # np.unique(col) without its first-call memory: sort, keep each first of equals
        col = np.sort(col)
        return col[np.concatenate(([True], col[1:] != col[:-1]))]
    return np.linspace(float(col.min()), float(col.max()), size)


def _pd_means(model: BoostedModel, X: np.ndarray, features: tuple[int, ...], points: np.ndarray) -> np.ndarray:
    """Mean prediction over all rows of X with `features` overridden by each
    row of `points`, by path factorisation (see the module docstring).

    Blocks of structures share each numpy step. Within a structure leaves are
    added in node order, and structures in order of first use, so the block
    size changes no bit."""
    rest = [f for f in range(X.shape[1]) if f not in features]
    structures = model.structure_tables
    n, (count, width) = X.shape[0], structures["feature"].shape
    out = np.full(points.shape[0], model.f0)
    # per structure: a bool pass table over width + 1 node positions, and two float rows
    # (the split values gathered at a node position, and the sums)
    for block in _blocks(np.arange(count), (width + 17) * max(n, len(points))):
        columns = {k: v[block] for k, v in structures.items()}
        reach = _pass_table(columns, X[:, rest], rest, np.ones((len(rest), n), dtype=bool))
        weight = columns["table"] * (reach.sum(axis=2, dtype=np.float64) / n)  # the counts are exact
        grid = _pass_table(columns, points, features, np.ones((len(features), len(points)), dtype=bool))
        sums = np.zeros((len(block), len(points)))
        # a sum that starts at +0.0 is the same without a failed leaf's +0.0 and with a non-leaf's
        for i in range(width):
            np.add(sums, weight[:, i, None], out=sums, where=grid[:, i])
        for row in sums:
            out += row
    return out


def partial_dependence_1d(model: BoostedModel, feature: int, data, grid_spec=None) -> PDProfile:
    """Centered mean-response curve for one feature (brute-force contract)."""
    X, _ = _usable_rows(model, data)
    _check_features(model, feature)
    grid = _resolve_grid(X, feature, _grid_size(grid_spec, 1))
    raw = _pd_means(model, X, (feature,), grid[:, None])
    return PDProfile(feature, model.feature_names[feature], grid, raw - raw.sum() / len(raw))


def partial_dependence_2d(model: BoostedModel, j: int, k: int, data, grid_spec=None) -> PDSurface:
    """Centered mean-response grid for a feature pair."""
    _check_features(model, j, k)
    X, _ = _usable_rows(model, data)
    size = _grid_size(grid_spec, 2)
    grid_j, grid_k = (_resolve_grid(X, f, size) for f in (j, k))
    if size is None:  # observed values: the product is known only now
        _check_points(len(grid_j) * len(grid_k))
    points = np.column_stack([np.repeat(grid_j, len(grid_k)), np.tile(grid_k, len(grid_j))])
    raw = _pd_means(model, X, (j, k), points).reshape(len(grid_j), len(grid_k))
    values = raw - raw.sum() / raw.size
    return PDSurface((j, k), (model.feature_names[j], model.feature_names[k]), grid_j, grid_k, values)


def _interaction_denominator(model: BoostedModel, X: np.ndarray, y: np.ndarray, which: str) -> float:
    if which == "model":
        f = predict_batch(model, X)
        ref = f - f.sum() / len(f)
    elif which == "response":
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
    X, y = _usable_rows(model, data)
    den = _interaction_denominator(model, X, y, denominator)
    n, d = X.shape
    delta = np.zeros((d, d, n))  # the diagonal is never read
    structures = model.structure_tables
    used = [sorted(set(row) - {-1}) for row in structures["feature"].tolist()]
    pairs = np.array([s for s, u in enumerate(used) if len(u) >= 2], dtype=np.intp)
    # per structure and feature: a bool pass table over width + 1 node positions, and
    # the split values gathered at a node position
    for block in _blocks(pairs, (structures["feature"].shape[1] + 9) * n * d):
        columns = {k: v[block] for k, v in structures.items()}
        # the records once per feature, each copy tested by that feature's splits alone
        cols = sorted(set().union(*(used[s] for s in block)))
        V, tests = np.tile(X[:, cols], (len(cols), 1)), np.repeat(np.eye(len(cols), dtype=bool), n, axis=1)
        passes = _pass_table(columns, V, cols, tests).reshape(len(block), -1, len(cols), n)
        for b, s in enumerate(block.tolist()):
            leaf = columns["leaf"][b]
            table = columns["table"][b, leaf]
            # miss[leaf, c, record] as floats: int sums page in more numpy
            miss = np.where(passes[b, leaf][:, [cols.index(f) for f in used[s]]], 0.0, 1.0)
            fails = miss.sum(axis=1)  # per leaf and record: features whose path splits it fails
            # share of records failing no feature but j (one), or but j and k (two)
            one = np.where(fails[:, None, :] == miss, 1.0, 0.0).sum(axis=2) / n
            two = miss[:, :, None, :] + miss[:, None, :, :]
            two = np.where(fails[:, None, None, :] == two, 1.0, 0.0).sum(axis=3) / n
            hit = 1.0 - miss
            U = ((table[:, None] * one)[:, :, None] * hit).sum(axis=0)
            B = ((table[:, None, None] * two)[..., None] * (hit[:, :, None, :] * hit[:, None, :, :])).sum(axis=0)
            delta[np.ix_(used[s], used[s])] += B - U[:, None, :] - U[None, :, :]
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
