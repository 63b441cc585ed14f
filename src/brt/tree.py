"""Least-squares regression trees used as boosting weak learners.

Trees are grown best-first under a *total* node budget (internal nodes
plus leaves): the pending leaf whose best split removes the most squared
error is expanded next, so a small budget is spent where it pays. With a
budget of 6 a tree reaches at most 5 nodes (two splits, three leaves);
binary trees always have an odd node count.

Split search scans midpoints between consecutive distinct finite values of
each feature. Ties on improvement are broken toward the lowest feature
index, then the lowest threshold, then (for missing-value routing) the left
side, which makes fitting deterministic across runs and platforms.

Missing values: a row whose split feature is unobserved is tried on both
sides during the search and the more favourable side is frozen as the
split's ``default_direction``; the row is routed that way for the rest of
training and at prediction time. Rows count toward leaf-occupancy minima on
whichever side they are routed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# A candidate split is kept only when it removes more than this fraction of
# the node's raw second moment; guards against float dust turning a
# mathematically-zero improvement (constant targets) into a split.
MIN_IMPROVEMENT_FRACTION = 1e-12


@dataclass(frozen=True)
class TreeLimits:
    """Structural limits for a single tree.

    max_nodes counts internal nodes and leaves together; min_leaf_obs is
    the smallest number of learn records a leaf may be fit on.
    """

    max_nodes: int = 6
    min_leaf_obs: int = 3

    def __post_init__(self):
        if self.max_nodes < 3:
            raise ValueError("max_nodes must be at least 3")
        if self.min_leaf_obs < 1:
            raise ValueError("min_leaf_obs must be at least 1")


@dataclass(frozen=True)
class SplitCandidate:
    """One axis-aligned split: feature, threshold, SSE reduction, and the
    side that receives rows whose feature value is missing."""

    feature: int
    threshold: float
    improvement: float
    default_direction: str  # "left" or "right"


class RegressionTree:
    """Fitted tree in flat-array form.

    Arrays are node-indexed; children always have larger indices than their
    parent, so one forward pass routes a whole batch. ``feature[i]`` is -1
    at leaves, where ``threshold``/``left``/``right``/``missing_right`` are
    unused placeholders. ``value[i]`` is the mean target of the records
    that reached node i; predictions read it at leaves only.
    """

    __slots__ = (
        "feature",
        "threshold",
        "missing_right",
        "left",
        "right",
        "value",
        "improvement",
        "n_features",
    )

    def __init__(self, feature, threshold, missing_right, left, right, value, improvement, n_features):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.missing_right = np.asarray(missing_right, dtype=bool)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.improvement = np.asarray(improvement, dtype=np.float64)
        self.n_features = int(n_features)

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf value each row of X routes to."""
        return self.value[self.leaf_assignments(X)]

    def leaf_assignments(self, X: np.ndarray) -> np.ndarray:
        """Leaf index each row of X routes to; the one routing function,
        shared by fitting and ensemble prediction.

        Every comparison with NaN is false, so ``v > thr`` sends a missing
        value left and ``~(v <= thr)`` sends it right while agreeing with
        ``v > thr`` on every other value; ``missing_right`` picks which.
        """
        node = np.zeros(X.shape[0], dtype=np.intp)
        for i, f in enumerate(self.feature.tolist()):
            if f < 0:
                continue
            at = np.flatnonzero(node == i)
            v = X[at, f]
            go_right = ~(v <= self.threshold[i]) if self.missing_right[i] else v > self.threshold[i]
            node[at] = np.where(go_right, self.right[i], self.left[i])
        return node


def predict_tree(tree: RegressionTree, sample) -> float:
    """predict_batch on one feature row (cells may be NaN)."""
    x = np.asarray(sample, dtype=np.float64)
    if x.shape != (tree.n_features,):
        raise ValueError("feature count mismatch")
    return float(tree.predict_batch(x[None, :])[0])


def split_improvements(tree: RegressionTree) -> np.ndarray:
    """Per-feature totals of split improvement; zeros for unused features."""
    out = np.zeros(tree.n_features, dtype=np.float64)
    internal = tree.feature >= 0
    np.add.at(out, tree.feature[internal], tree.improvement[internal])
    return out


class TreeFitter:
    """Split-search machinery bound to one feature matrix.

    The boosting loop refits thousands of trees against the same X with
    changing targets and row subsets, so the per-feature sort order is
    computed once here. ``fit_tree`` wraps this for one-off use.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("samples must be a 2-D feature matrix")
        self.X = X
        self.XT = np.ascontiguousarray(X.T)
        n, d = X.shape
        # Row ids per feature in ascending value order, NaNs last; stable so
        # equal values keep row order.
        if d > 0 and n > 0:
            self.orders = np.ascontiguousarray(np.argsort(self.XT, axis=1, kind="stable"))
        else:
            self.orders = np.zeros((d, n), dtype=np.intp)
        self._cnt_left = np.arange(1, max(n, 1), dtype=np.float64)

    def fit(self, targets: np.ndarray, rows: np.ndarray, limits: TreeLimits) -> RegressionTree:
        y = targets
        n_features = self.X.shape[1]

        feature = [-1]
        threshold = [0.0]
        missing_right = [False]
        left = [-1]
        right = [-1]
        improvement = [0.0]
        value = [float(y[rows].sum()) / rows.size]

        heap: list[tuple[float, int, SplitCandidate, np.ndarray, np.ndarray]] = []
        found = self._best_split(y, rows, limits.min_leaf_obs)
        if found is not None:
            cand, lrows, rrows = found
            heapq.heappush(heap, (-cand.improvement, 0, cand, lrows, rrows))

        while heap and len(feature) + 2 <= limits.max_nodes:
            _, nid, cand, lrows, rrows = heapq.heappop(heap)
            # After this expansion the tree has len(feature)+2 nodes; only
            # search the new leaves if one more expansion could still fit.
            worth_searching = len(feature) + 4 <= limits.max_nodes
            feature[nid] = cand.feature
            threshold[nid] = cand.threshold
            missing_right[nid] = cand.default_direction == "right"
            improvement[nid] = cand.improvement
            for side, rows_side in (("left", lrows), ("right", rrows)):
                cid = len(feature)
                feature.append(-1)
                threshold.append(0.0)
                missing_right.append(False)
                left.append(-1)
                right.append(-1)
                improvement.append(0.0)
                value.append(float(y[rows_side].sum()) / rows_side.size)
                if side == "left":
                    left[nid] = cid
                else:
                    right[nid] = cid
                if worth_searching:
                    found = self._best_split(y, rows_side, limits.min_leaf_obs)
                    if found is not None:
                        c, lr2, rr2 = found
                        heapq.heappush(heap, (-c.improvement, cid, c, lr2, rr2))

        return RegressionTree(feature, threshold, missing_right, left, right, value, improvement, n_features)

    def _best_split(self, y, rows, min_leaf):
        """Best candidate over all features for one node, or None.

        Returns (SplitCandidate, left row ids, right row ids); both id
        arrays are sorted ascending so later sums are order-canonical.
        """
        d, n = self.XT.shape
        k = rows.size
        if d == 0 or k < 2 * min_leaf or k < 2:
            return None

        in_node = np.zeros(n, dtype=bool)
        in_node[rows] = True
        # Row-major boolean pick keeps each feature's value order; every
        # feature row holds the same k node rows, so the reshape is exact.
        sel = self.orders[in_node[self.orders]].reshape(d, k)
        vals = np.take_along_axis(self.XT, sel, axis=1)
        t = y[sel]

        miss = np.isnan(vals)
        n_miss = miss.sum(axis=1, dtype=np.float64)
        s_miss = np.where(miss, t, 0.0).sum(axis=1)
        total = float(y[rows].sum())
        q_total = float((y[rows] * y[rows]).sum())

        cs = np.cumsum(t, axis=1)[:, :-1]  # left sums at cut after position i
        cnt_left = self._cnt_left[: k - 1]
        n_fin = (k - n_miss)[:, None]
        valid = np.isfinite(vals[:, 1:]) & (vals[:, 1:] != vals[:, :-1])

        sum_right = (total - s_miss)[:, None] - cs
        cnt_right = n_fin - cnt_left

        with np.errstate(divide="ignore", invalid="ignore"):
            nl = cnt_left + n_miss[:, None]
            sl = cs + s_miss[:, None]
            score_l = sl * sl / nl + sum_right * sum_right / cnt_right
            ok_l = valid & (nl >= min_leaf) & (cnt_right >= min_leaf)

            nr = cnt_right + n_miss[:, None]
            sr = sum_right + s_miss[:, None]
            score_r = cs * cs / cnt_left + sr * sr / nr
            ok_r = valid & (cnt_left >= min_leaf) & (nr >= min_leaf)

        score_l = np.where(ok_l, score_l, -np.inf)
        score_r = np.where(ok_r, score_r, -np.inf)
        prefer_left = score_l >= score_r
        score = np.where(prefer_left, score_l, score_r)

        flat = int(np.argmax(score))  # first max in row-major order = tie rule
        best = float(score.flat[flat])
        if not np.isfinite(best):
            return None
        gain = float(best - total * total / k)
        if gain <= MIN_IMPROVEMENT_FRACTION * q_total:
            return None

        # Different cuts can induce the same row partition (e.g. two features
        # isolating the same record), which ties mathematically but not in
        # floating point: summation order injects dust. Any rival within the
        # rounding bound of the best score is re-scored exactly over the
        # original values so the documented tie rules apply deterministically.
        abs_sum = float(np.abs(t[0]).sum())
        slack = 512.0 * np.finfo(np.float64).eps * abs_sum * abs_sum
        close = score >= best - slack
        if int(close.sum()) > 1 or (n_miss[flat // (k - 1)] and abs(score_l.flat[flat] - score_r.flat[flat]) <= slack):
            f, p, goes_left = self._resolve_exact(y, sel, vals, n_miss, close, score_l, score_r, slack, best, k)
        else:
            f, p = divmod(flat, k - 1)
            goes_left = bool(prefer_left[f, p])

        thr = float((vals[f, p] + vals[f, p + 1]) / 2.0)
        chosen = float((score_l if goes_left else score_r)[f, p])
        gain = float(chosen - total * total / k)
        cand = SplitCandidate(int(f), thr, gain, "left" if goes_left else "right")

        fin_count = int(k - n_miss[f])
        left_ids = sel[f, : p + 1]
        right_ids = sel[f, p + 1 : fin_count]
        missing_ids = sel[f, fin_count:]
        if missing_ids.size:
            if goes_left:
                left_ids = np.concatenate([left_ids, missing_ids])
            else:
                right_ids = np.concatenate([right_ids, missing_ids])
        return cand, np.sort(left_ids), np.sort(right_ids)

    def _resolve_exact(self, y, sel, vals, n_miss, close, score_l, score_r, slack, best, k):
        """Order dust-level rival splits by exact rational score.

        Every float64 is a dyadic rational, so Fraction sums are exact; the
        candidate order is (score desc, feature asc, threshold asc, left
        routing first), independent of accumulation order.
        """
        candidates = []
        for f, p in np.argwhere(close):
            fin_count = int(k - n_miss[f])
            left = [Fraction(float(y[i])) for i in sel[f, : p + 1]]
            right = [Fraction(float(y[i])) for i in sel[f, p + 1 : fin_count]]
            missing = [Fraction(float(y[i])) for i in sel[f, fin_count:]]
            thr = float((vals[f, p] + vals[f, p + 1]) / 2.0)
            for goes_left, float_score in ((True, score_l[f, p]), (False, score_r[f, p])):
                if not float_score >= best - slack:
                    continue
                l = left + missing if goes_left else left
                r = right if goes_left else right + missing
                sl = sum(l, Fraction(0))
                sr = sum(r, Fraction(0))
                exact = sl * sl / len(l) + sr * sr / len(r)
                candidates.append((-exact, int(f), thr, not goes_left, int(p)))
        candidates.sort(key=lambda c: c[:4])
        _, f, _, not_left, p = candidates[0]
        return f, p, not not_left


def fit_tree(samples, targets, limits: TreeLimits | None = None) -> RegressionTree:
    """Fit one least-squares tree to (samples, targets)."""
    if limits is None:
        limits = TreeLimits()
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(targets, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("empty learn sample")
    if y.shape != (X.shape[0],):
        raise ValueError("targets must match samples in length")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    fitter = TreeFitter(X)
    return fitter.fit(y, np.arange(X.shape[0]), limits)
