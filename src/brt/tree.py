"""Least-squares regression trees used as boosting weak learners.

Trees are grown best-first under a *total* node budget (internal nodes
plus leaves): the pending leaf whose best split removes the most squared
error is expanded next, so a small budget is spent where it pays. With a
budget of 6 a tree reaches at most 5 nodes (two splits, three leaves);
binary trees always have an odd node count.

One rule, ``goes_right``, sends a value to a side of a split: a value above
the threshold goes right, a value at or below it goes left, and a missing
value goes to the side that ``missing_right`` names. ``route`` moves the rows
at a node with it, for the fitter, once per expanded node, and for
``leaf_assignments``; the fail masks of prediction and the analytics test splits with it too.

Split search scans the cuts between consecutive distinct finite values of
each feature; a cut's threshold is the midpoint of the two values, or the
lower value when the midpoint does not lie below the upper one (adjacent
floats, or a sum that overflows). Ties on improvement are broken toward the
lowest feature index, then the lowest threshold, then missing values on the
left, which makes fitting deterministic across runs and platforms.

Missing values: a row whose split feature is unobserved is tried on both
sides during the search and the more favourable side is frozen as the
split's ``missing_right``; the row is routed that way for the rest of
training and at prediction time. Rows count toward leaf-occupancy minima on
whichever side they are routed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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

    def widest(self, n_rows: int) -> int:
        """The most nodes a tree fit on n_rows rows can have, 1 at least: an odd count within
        the budget, with at most n_rows // min_leaf_obs leaves, as a leaf holds min_leaf_obs rows."""
        return max(1, min(self.max_nodes - 1 + self.max_nodes % 2, 2 * (n_rows // self.min_leaf_obs) - 1))


def goes_right(v: np.ndarray, threshold, missing_right) -> np.ndarray:
    """Which values v go to the right child of a split: those above the
    threshold, and NaN when missing_right. Thresholds are finite (the loader
    and the fitter make sure), and ``missing_right`` may be one flag or one per
    split, broadcast against v like the threshold."""
    return (v > threshold) | (missing_right & np.isnan(v))


def route(node: np.ndarray, i: int, x: np.ndarray, threshold: float, missing_right: bool, left: int, right: int) -> None:
    """Move the rows at node i (``node[r] == i``) to its left or right child
    by ``goes_right`` on their values in x, the split feature's column."""
    at = (node == i).nonzero()[0]
    node[at] = np.where(goes_right(x[at], threshold, missing_right), right, left)


# RegressionTree's node arrays in constructor order, each with its dtype and
# the placeholder a leaf holds there (a leaf's value aside).
NODE_FIELDS = {
    "feature": (np.int64, -1),
    "threshold": (np.float64, 0.0),
    "missing_right": (np.bool_, False),
    "left": (np.int64, -1),
    "right": (np.int64, -1),
    "value": (np.float64, 0.0),
    "improvement": (np.float64, 0.0),
}


class RegressionTree:
    """Fitted tree in flat-array form.

    Arrays are node-indexed; children always have larger indices than their
    parent, so one forward pass routes a whole batch. ``feature[i]`` is -1
    at leaves, where ``threshold``/``left``/``right``/``missing_right`` are
    unused placeholders. ``value[i]`` is the mean target of the records
    that reached node i; predictions read it at leaves only.
    """

    __slots__ = (*NODE_FIELDS, "n_features")

    def __init__(self, feature, threshold, missing_right, left, right, value, improvement, n_features):
        arrays = (feature, threshold, missing_right, left, right, value, improvement)
        for (name, (dtype, _)), array in zip(NODE_FIELDS.items(), arrays):
            setattr(self, name, np.asarray(array, dtype=dtype))
        self.n_features = int(n_features)

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf value each row of X routes to."""
        return self.value[self.leaf_assignments(X)]

    def leaf_assignments(self, X) -> np.ndarray:
        """Leaf index each row of X routes to, by ``goes_right`` at each split; a
        ValueError unless X is a matrix of n_features columns."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError("feature count mismatch")
        node = np.zeros(X.shape[0], dtype=np.intp)
        for i, f in enumerate(self.feature.tolist()):
            if f >= 0:
                route(node, i, X[:, f], self.threshold[i], self.missing_right[i], self.left[i], self.right[i])
        return node


def predict_tree(tree: RegressionTree, sample) -> float:
    """predict_batch on one feature row (cells may be NaN)."""
    return float(tree.predict_batch([sample])[0])


def split_improvements(feature: np.ndarray, improvement: np.ndarray, n_features: int) -> np.ndarray:
    """Per-feature split improvement totals of stages' (n_stages, nodes) feature and improvement
    columns: each stage's splits in node order, then a running sum in stage order."""
    stage, node = np.nonzero(feature >= 0)
    totals = np.zeros((len(feature) + 1, n_features))  # row 0 starts the running sum
    np.add.at(totals, (stage + 1, feature[stage, node]), improvement[stage, node])
    return np.add.accumulate(totals, out=totals)[-1]


# Bytes that the counts cache of one TreeFitter holds at most. A 1,200-stage
# flagship fit (25 rows, 7 features) at seed 1 has room for 14 entries there,
# and 89% of its searches hit.
SEARCH_CACHE_BYTES = 3 << 15
# Allowance per cache entry for its Python objects (lru_cache link and dict
# slot, key tuple, result tuple, bytes and array headers), from tracemalloc on
# the flagship and diverse fits: a counts entry, with five arrays, holds about
# 1,000 to 1,080 bytes beside its arrays and key, and is charged two.
_ENTRY_OVERHEAD = 512
_EPS = float(np.finfo(np.float64).eps)


class TreeFitter:
    """Split-search machinery bound to one feature matrix and one set of limits.

    The boosting loop refits thousands of trees against the same X under the
    same limits with changing targets and row subsets, so each feature's sort
    order (``orders``, row ids in ascending value order, NaNs last) and its
    values in that order (``sorted_vals``) are computed once here, as in the
    presorted columns of SLIQ and XGBoost. A search reads its node's rows from
    them with one mask. ``fit_tree`` wraps this for one-off use.

    The row counts a search scores with depend only on the node's row count
    and NaN counts, and stochastic boosting on a small table meets the same
    ones over and over (in a node without NaN they do not depend on the
    feature, so all nodes of one size share them). So they are cached in a
    ``functools.lru_cache`` wrapper of this fitter's own, ``_counts(k, NaN
    counts' bytes)``, which returns ``n_miss``, the NaN counts,
    ``num``/``den``, the row counts of the two routings of the missing rows
    as the scores use them (``num`` is [rows left with missing rows left, rows
    left] and ``den`` [rows right, rows right with missing rows right]),
    ``miss``, the NaN positions (the last ones of each feature), and
    ``window``, for each routing, the cuts that leave min_leaf rows on both
    sides and a finite value above them (NaNs sort last, so those are the
    cuts with at least one finite row to their right). A cut is valid where
    it lies in the window and its two sorted values differ, one ``!=`` per
    search. Outside the window ``den`` holds 1 at least, so no score divides
    by zero and a fit needs no ``np.errstate``.

    Its ``maxsize`` is ``SEARCH_CACHE_BYTES`` over the bytes of the largest
    entry this table can make, that of all its rows: its arrays and key plus
    twice ``_ENTRY_OVERHEAD``. So the bound holds whatever row sets come, and
    a budget too small for one entry caches nothing. The wrapped function
    closes over the fitter's arrays, not the fitter, so no reference cycle
    keeps a fitter alive, and no two fitters share an entry. A hit skips only
    integer counts and masks; every float operation on the targets runs on
    the same operands in the same order on a hit and a miss, so the trees are
    bit-identical with and without the cache.
    """

    def __init__(self, X: np.ndarray, limits: TreeLimits):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("samples must be a 2-D feature matrix")
        if np.isinf(X).any():
            raise ValueError("predictor values must be finite where present")
        self.limits = limits
        self.XT = XT = np.ascontiguousarray(X.T)
        n, d = X.shape
        # Row ids per feature in ascending value order, NaNs last; stable so
        # equal values keep row order.
        self.orders = np.argsort(XT, axis=1, kind="stable")
        self.sorted_vals = np.take_along_axis(XT, self.orders, axis=1)
        cnt_left = np.arange(1, max(n, 1), dtype=np.float64)
        min_leaf = limits.min_leaf_obs
        # Nodes with fewer rows than this are not searched; without features, none is.
        self._min_search = max(2, 2 * min_leaf) if d else n + 1

        def counts(k: int, miss_bytes: bytes) -> tuple:
            n_miss, cnt = np.frombuffer(miss_bytes)[:, None], cnt_left[: k - 1]
            n_fin = k - n_miss
            num = np.empty((2, d, k - 1))
            den = np.empty(num.shape)
            np.add(cnt, n_miss, out=num[0])
            num[1] = cnt
            np.subtract(n_fin, cnt, out=den[0])
            np.add(den[0], n_miss, out=den[1])
            # A cut needs min_leaf rows on each side and a finite value above it;
            # the rows right of a masked cut count 1 at least, for a division.
            window = (num >= min_leaf) & (den >= min_leaf) & (den[0] >= 1)
            np.maximum(den[0], 1.0, out=den[0])
            return n_miss, num, den, np.arange(k) >= n_fin, window

        # The largest entry, that of all n rows: its key bytes, num, den, miss and window.
        cuts = d * max(n - 1, 0)
        entry_bytes = 8 * d + 32 * cuts + d * n + 2 * cuts + 2 * _ENTRY_OVERHEAD
        self._counts = lru_cache(maxsize=SEARCH_CACHE_BYTES // entry_bytes)(counts)

    def fit(self, targets: np.ndarray, rows: np.ndarray, out: dict) -> tuple[int, np.ndarray]:
        """Fit a tree to targets on the ascending row ids ``rows`` (so each node's
        rows, and its targets' sums, are ascending too) and write node i's
        NODE_FIELDS into ``out[name][i]``, whose entries hold leaf placeholders.
        Return the node count and ``leaf``: ``leaf[r]`` is the leaf that row r
        of X reaches, in ``rows`` or not. An expansion routes the rows at its
        node once; a child's rows are those of its parent that reach it."""
        y, max_nodes = targets, self.limits.max_nodes
        rows = np.asarray(rows, dtype=np.intp)
        leaf = np.zeros(self.XT.shape[1], dtype=np.intp)

        def add_leaf(i, leaf_rows) -> float:
            """Write the value of leaf i, on leaf_rows; return the sum of their targets."""
            total = float(np.add.reduce(y[leaf_rows]))
            out["value"][i] = total / leaf_rows.size
            return total

        heap: list[tuple[float, int, dict, np.ndarray]] = []
        count = 1
        self._search(y, 0, rows, add_leaf(0, rows), heap)
        while heap and count + 2 <= max_nodes:
            _, i, split, node_rows = heapq.heappop(heap)
            left, right = count, count + 1
            for name, v in {**split, "left": left, "right": right}.items():
                out[name][i] = v
            route(leaf, i, self.XT[split["feature"]], split["threshold"], split["missing_right"], left, right)
            count += 2
            # Only search the new leaves if one more expansion could still fit.
            worth_searching = count + 2 <= max_nodes
            for child in (left, right):
                child_rows = node_rows[leaf[node_rows] == child]
                total = add_leaf(child, child_rows)
                if worth_searching:
                    self._search(y, child, child_rows, total, heap)
        return count, leaf

    def _search(self, y, nid, rows, total, heap) -> None:
        """Push the best split of node nid, whose rows sum to ``total``, onto heap.

        A heap entry is (-improvement, node id, the split's feature,
        threshold, missing_right and improvement as node fields, the node's
        row ids). Nodes with fewer than 2*min_leaf rows, or no split that
        removes error, push nothing.
        """
        k = rows.size
        if k < self._min_search:
            return
        in_node = np.zeros(self.XT.shape[1], dtype=bool)
        in_node[rows] = True
        # Row-major boolean picks keep each feature's value order; every feature
        # row holds the same node rows, so the reshapes are exact.
        at = in_node[self.orders]
        sel = self.orders[at].reshape(-1, k)
        vals = self.sorted_vals[at].reshape(-1, k)
        valid = vals[:, 1:] != vals[:, :-1]
        n_miss = np.add.reduce(np.isnan(vals), axis=1, dtype=np.float64)
        n_miss, num, den, miss, window = self._counts(k, n_miss.tobytes())
        t = y[sel]
        # Axis 0 stacks the two routings of the missing rows; per element
        # score_l = sl*sl/nl + sum_right*sum_right/cnt_right and
        # score_r = cs*cs/cnt_left + sr*sr/nr, with sl = cs + s_miss,
        # sum_right = (total - s_miss) - cs and sr = sum_right + s_miss.
        lsum = np.empty(num.shape)  # [sl, cs]
        rsum = np.empty(num.shape)  # [sum_right, sr]
        cs = lsum[1]
        np.add.accumulate(t[:, :-1], axis=1, out=cs)  # left sums at cut after position i
        s_miss = np.add.reduce(np.where(miss, t, 0.0), axis=1)[:, None]
        np.add(cs, s_miss, out=lsum[0])
        np.subtract(total - s_miss, cs, out=rsum[0])
        np.add(rsum[0], s_miss, out=rsum[1])
        ok = valid & window
        score_l, score_r = np.where(ok, lsum * lsum / num + rsum * rsum / den, -np.inf)
        score = np.maximum(score_l, score_r)

        flat = int(score.argmax())  # first max in row-major order = tie rule
        best = float(score.flat[flat])
        if not math.isfinite(best):
            return
        gain = float(best - total * total / k)
        # Different cuts can induce the same row partition (e.g. two features
        # isolating the same record), which ties mathematically but not in
        # floating point: summation order injects dust. Any rival within the
        # rounding bound of the best score is re-scored exactly over the
        # original values so the documented tie rules apply deterministically.
        abs_sum = float(np.add.reduce(np.abs(t[0])))
        # The sum of squares is at most abs_sum**2, so the gain test can only
        # fail, and needs the sum, when gain is below twice that bound.
        if gain <= 2.0 * MIN_IMPROVEMENT_FRACTION * abs_sum * abs_sum:
            yr = y[rows]
            if gain <= MIN_IMPROVEMENT_FRACTION * float(np.add.reduce(yr * yr)):
                return
        slack = 512.0 * _EPS * abs_sum * abs_sum
        close = score >= best - slack
        f, p = divmod(flat, k - 1)
        n_miss = n_miss[:, 0]
        if np.count_nonzero(close) > 1 or (n_miss[f] and abs(score_l[f, p] - score_r[f, p]) <= slack):
            f, p, missing_right = self._resolve_exact(y, sel, n_miss, close, score_l, score_r, slack, best)
        else:
            missing_right = not score_l[f, p] >= score_r[f, p]

        gain = float((score_r if missing_right else score_l)[f, p] - total * total / k)
        # The cut's threshold: the midpoint of the values on either side when it
        # lies in [lower, upper), else the lower value, so that goes_right splits
        # where the cut was scored. Python floats: an overflow gives inf without a warning.
        lo, hi = float(vals[f, p]), float(vals[f, p + 1])
        mid = (lo + hi) / 2.0
        threshold = mid if lo <= mid < hi else lo
        split = {"feature": f, "threshold": threshold, "missing_right": missing_right, "improvement": gain}
        heapq.heappush(heap, (-gain, nid, split, rows))

    def _resolve_exact(self, y, sel, n_miss, close, score_l, score_r, slack, best):
        """Order dust-level rival splits by exact score; return the first one's
        feature, cut position and missing_right.

        Every float64 is an integer over a power of two, so the node's targets
        scaled by their largest denominator are exact integers, and so are their
        sums: a side's score sum**2/count, and a split's, compares exactly by
        cross-multiplying. The candidate order is (score desc, feature asc,
        threshold asc, missing values left first), independent of accumulation
        order; candidates are visited in that order of their ties, as a
        feature's valid cuts ascend with their thresholds, so the first of
        equal scores is kept.
        """
        k = sel.shape[1]
        ratios = [v.as_integer_ratio() for v in y[sel[0]].tolist()]
        scale = max(d for _, d in ratios)
        exact = dict(zip(sel[0].tolist(), [n * (scale // d) for n, d in ratios]))
        prefix: dict[int, list[int]] = {}  # feature -> sums of its first 1..k targets in value order
        pick, num, den = None, 0, 1
        for f, p in np.argwhere(close).tolist():
            if f not in prefix:
                prefix[f] = list(accumulate(exact[i] for i in sel[f].tolist()))
            sums, fin_count = prefix[f], k - int(n_miss[f])
            s_miss = sums[-1] - sums[fin_count - 1]
            for missing_right, float_score in ((False, score_l[f, p]), (True, score_r[f, p])):
                if not float_score >= best - slack:
                    continue
                sl, nl = (sums[p], p + 1) if missing_right else (sums[p] + s_miss, p + 1 + k - fin_count)
                sr, nr = sums[-1] - sl, k - nl
                a, b = sl * sl * nr + sr * sr * nl, nl * nr  # the score is a / (b * scale**2)
                if pick is None or a * den > num * b:
                    pick, num, den = (f, p, missing_right), a, b
        return pick


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
    out = {k: np.full(limits.widest(X.shape[0]), pad, dtype) for k, (dtype, pad) in NODE_FIELDS.items()}
    count, _ = TreeFitter(X, limits).fit(y, np.arange(X.shape[0]), out)
    return RegressionTree(*(out[k][:count] for k in NODE_FIELDS), X.shape[1])
