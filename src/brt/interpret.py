"""Post-fit analytics: relative influence, partial dependence, interactions.

Partial dependence is defined by brute force: sweep the chosen feature(s)
over a grid and, at each point, average the model's prediction over every
learn record with those features overridden; profiles and surfaces are
centered over their grid. It is computed by path factorisation (Friedman
2001, section 8.2): a record with the features S set to g reaches leaf l
exactly when g passes l's path splits on S and the record passes the rest,
so PD_S(g) = f0 + sum over structures and leaves l of T[l] * pass_l,S(g) *
mean_r pass_l,not S(x_r), T being a structure's scaled leaf values summed
in stage order. Passes are read from ``boosting._fail_mask``, the builder
that prediction routes blocks of structures with: one integer per structure,
leaf and row, with a bit per feature set where the row leaves the leaf's
path at a split on that feature, so one mask over the records serves every
choice of S and NaN, +-inf and values on a threshold go where prediction
sends them. This matches the brute-force loop to 1e-12 without a
grid-by-records batch.

The pairwise interaction score asks how far the bivariate dependence is
from the additive combination of the two univariate ones, evaluated at
the learn records and normalised to the variation of the model output:

    d_i   = PDjk(x_ij, x_ik) - PDj(x_ij) - PDk(x_ik)   (each centered
            over the learn records)
    score = 100 * sum(d_i^2) / sum((F(x_i) - mean F)^2)

It is computed from that definition with the same kernel, over only the
structures that split on both features (see ``_interaction_scores``); a
pair that no tree splits on together is never computed and scores exactly
0. A feature's overall strength is the sum of its pairwise scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .args import MAX_GRID_POINTS
from .boosting import BoostedModel, _fail_mask, _mask_blocks, _usable_rows, predict_batch
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


def _resolve_grid(X: np.ndarray, feature: int, size, name: str) -> np.ndarray:
    """`size` points spaced evenly over the finite values of feature `name`, column
    `feature` of X, or those values themselves when `size` is None."""
    col = X[:, feature]
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ValueError(f"cannot grid a fully missing feature {name!r}")
    if size is None:  # np.unique(col) without its first-call memory: sort, keep each first of equals
        col = np.sort(col)
        return col[np.concatenate(([True], col[1:] != col[:-1]))]
    return np.linspace(float(col.min()), float(col.max()), size)


def _shares(table: np.ndarray, reach: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Each structure's row of its share of the mean prediction: leaf l adds T[l] times the
    share of records that `reach` it at each point that passes its path (`grid`), in node order."""
    weight = table * (reach.sum(axis=2, dtype=np.float64) / reach.shape[2])  # the counts are exact
    sums = np.zeros((grid.shape[0], grid.shape[2]))
    for i in range(grid.shape[1]):  # a sum from +0.0 is the same with the padding's +0.0 added
        np.add(sums, weight[:, i, None], out=sums, where=grid[:, i])
    return sums


def _pd_rows(model: BoostedModel, X: np.ndarray, features: tuple[int, ...], points: np.ndarray, ids: np.ndarray):
    """Yield, a block of the structure ids `ids` at a time, each structure's
    row of its share of the mean prediction over all rows of X with `features`
    set to each row of `points` (path factorisation, see the module docstring):
    the records pass the other features' splits, the points those on `features`.
    Leaves are added in node order, so the block size changes no bit."""
    d = X.shape[1]
    others = ((1 << d) - 1) ^ sum(1 << f for f in features)
    for _, columns in _mask_blocks(model, ids, max(len(X), len(points)), d):
        reach = (_fail_mask(columns, X, range(d)) & others) == 0
        yield _shares(columns["table"], reach, _fail_mask(columns, points, features) == 0)


def _pd_means(model: BoostedModel, X: np.ndarray, features: tuple[int, ...], points: np.ndarray) -> np.ndarray:
    """Mean prediction over all rows of X with `features` overridden by each
    row of `points`: f0 plus every structure's row of _pd_rows, added in order
    of first use."""
    out = np.full(points.shape[0], model.f0)
    for rows in _pd_rows(model, X, features, points, np.arange(len(model.structure_tables["feature"]))):
        for row in rows:
            out += row
    return out


def partial_dependence_1d(model: BoostedModel, feature: int, data, grid_spec=None) -> PDProfile:
    """Centered mean-response curve for one feature (brute-force contract)."""
    X, _ = _usable_rows(model, data)
    _check_features(model, feature)
    grid = _resolve_grid(X, feature, _grid_size(grid_spec, 1), model.feature_names[feature])
    raw = _pd_means(model, X, (feature,), grid[:, None])
    return PDProfile(feature, model.feature_names[feature], grid, raw - raw.sum() / len(raw))


def partial_dependence_2d(model: BoostedModel, j: int, k: int, data, grid_spec=None) -> PDSurface:
    """Centered mean-response grid for a feature pair."""
    _check_features(model, j, k)
    X, _ = _usable_rows(model, data)
    size = _grid_size(grid_spec, 2)
    grid_j, grid_k = (_resolve_grid(X, f, size, model.feature_names[f]) for f in (j, k))
    if size is None:  # observed values: the product is known only now
        _check_points(len(grid_j) * len(grid_k))
    points = np.column_stack([np.repeat(grid_j, len(grid_k)), np.tile(grid_k, len(grid_j))])
    raw = _pd_means(model, X, (j, k), points).reshape(len(grid_j), len(grid_k))
    values = raw - raw.sum() / raw.size
    return PDSurface((j, k), (model.feature_names[j], model.feature_names[k]), grid_j, grid_k, values)


def _interaction_denominator(model: BoostedModel, X: np.ndarray, y: np.ndarray, which: str, response: str) -> float:
    if which == "model":
        f = predict_batch(model, X)
        ref, fault = f - f.sum() / len(f), "degenerate model: no output variation"
    elif which == "response":
        ref, fault = y - y.sum() / len(y), f"degenerate response: no variation in {response}"
    else:
        raise ValueError("denominator must be 'model' or 'response'")
    den = float((ref * ref).sum())
    if den == 0.0:
        raise ValueError(fault)
    return den


def _interaction_scores(model: BoostedModel, data, denominator: str, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Scores of the feature pairs `pairs`, from d = PDjk - PDj - PDk.

    A tree that splits on neither feature shifts all three dependences by
    one constant, which centering removes; one that splits on only j adds
    the same vector to PDjk and PDj. So d is the sum, over the structures
    that split on both, of B - Uj - Uk: the structure's share of the mean
    prediction (as _pd_rows gives it) with both (B) or one (U) feature set
    to each record's own values, added one after another in order of first
    use. Records and points are then the same rows, so one fail mask over
    the records per block of such structures gives every U and B. A pair
    that no structure splits on is not computed.
    """
    X, y = _usable_rows(model, data)
    den = _interaction_denominator(model, X, y, denominator, getattr(data, "response_name", "the response"))
    n, d = X.shape
    split = model.structure_tables["feature"]
    uses = np.zeros((len(split), d + 1), dtype=bool)  # the last column takes the leaves' -1
    uses[np.arange(len(split))[:, None], split] = True
    shared = [uses[:, j] & uses[:, k] for j, k in pairs]
    need = np.zeros((d, len(split)), dtype=bool)  # U[f] holds the structures sharing a pair with f
    for (j, k), both in zip(pairs, shared):
        need[[j, k]] |= both
    every, delta = (1 << d) - 1, np.zeros((len(pairs), n))
    # the U rows a block keeps, and each U's and B's temporaries, are not counted in its cells
    for block, columns in _mask_blocks(model, np.flatnonzero(need.any(axis=0)), n, d):
        fail = _fail_mask(columns, X, range(d))

        def own(bits, at):  # the rows of structures `at` with `bits`' features set to the records' own values
            return _shares(columns["table"][at], (fail[at] & (every ^ bits)) == 0, (fail[at] & bits) == 0)

        U = {f: own(1 << f, need[f, block]) for f in range(d) if need[f, block].any()}
        row = np.cumsum(need[:, block], axis=1) - 1  # a structure's row in U[f]
        for p, (j, k) in enumerate(pairs):
            at = shared[p][block]
            if at.any():
                rows = own(1 << j | 1 << k, at) - U[j][row[j, at]] - U[k][row[k, at]]
                delta[p] = np.add.accumulate(np.concatenate([delta[p, None], rows]))[-1]
    centered = delta - delta.sum(axis=1, keepdims=True) / n
    return 100.0 * (centered * centered).sum(axis=1) / den


def pairwise_interaction(model: BoostedModel, j: int, k: int, data, denominator: str = "model") -> float:
    """Interaction strength of one feature pair, in percent of output variation."""
    _check_features(model, j, k)
    return float(_interaction_scores(model, data, denominator, [(min(j, k), max(j, k))])[0])


def overall_interaction(model: BoostedModel, data, denominator: str = "model") -> dict[int, float]:
    """Per-feature sum of pairwise scores against all other features."""
    return interaction_report(model, data, denominator).overall


def interaction_report(model: BoostedModel, data, denominator: str = "model") -> InteractionReport:
    """All pairwise scores, each bit-equal to pairwise_interaction's (every
    pair is computed on its own), plus per-feature overall strengths."""
    d = model.n_features
    if d < 2:
        raise ValueError("interaction analysis needs at least 2 features")
    pairs = list(combinations(range(d), 2))
    pairwise = dict(zip(pairs, _interaction_scores(model, data, denominator, pairs).tolist()))
    overall = {j: float(sum(v for pair, v in pairwise.items() if j in pair)) for j in range(d)}
    return InteractionReport(model.feature_names, pairwise, overall)
