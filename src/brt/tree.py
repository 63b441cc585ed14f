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

``TreeFitter`` serves the boosting loop, which fits thousands of trees to
one feature matrix. It caches what a search needs of a row set alone (the
rows in each feature's value order, which cuts are allowed, the NaN and row
counts of each cut), so that a row set met again costs only the work on
the new targets. The cache holds at most ``SEARCH_CACHE_BYTES``, least
recently used entries going first. Cached parts are integers and masks;
the float work on the targets is the same on a hit and a miss, so the
trees are bit-identical with and without the cache.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
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


class _LRU:
    """Cache entries held under a byte budget, least recently used dropped
    first; ``size(key, value)`` is what an entry is charged."""

    def __init__(self, budget: int, size):
        self.budget = budget
        self.size = size
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def get(self, key):
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        nbytes = self.size(key, value)
        if nbytes > self.budget:
            return
        self.entries[key] = value
        self.nbytes += nbytes
        while self.nbytes > self.budget:
            self.nbytes -= self.size(*self.entries.popitem(last=False))

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0


class _Group:
    """The target-free part of the split search for one row set: ``sel``,
    the rows in each feature's value order (NaNs last), ``valid``, the cuts
    after which the next value differs and is finite, and ``counts_key``,
    which names the shared _Counts of the row count and NaN counts."""

    __slots__ = ("sel", "valid", "counts_key")

    def __init__(self, sel, valid, counts_key):
        self.sel = sel
        self.valid = valid
        self.counts_key = counts_key


def _group_size(key, group: _Group) -> int:
    return len(key) + group.sel.nbytes + group.valid.nbytes + _ENTRY_OVERHEAD


class _Counts:
    """What the search needs of a row count ``k`` and the NaN count of each
    feature ``n_miss`` alone, shared through the cache keyed on ``key`` by
    every row set with the same ones (in a node without NaN they do not
    depend on the feature, so all row sets of one size share one).

    ``num``/``den`` stack the two routings of the missing rows as the scores
    use them: ``num`` is [rows left with missing rows left, rows left] and
    ``den`` [rows right, rows right with missing rows right]. ``miss`` marks
    the NaN positions (the last ones of each feature) and ``window`` the cuts
    that leave min_leaf rows on both sides, for each routing.
    """

    __slots__ = ("key", "k", "n_miss", "num", "den", "miss", "window")

    def __init__(self, key, n_miss, cnt_left, min_leaf):
        self.key = key  # (k, n_miss bytes); groups keep this one object
        k = self.k = key[0]
        self.n_miss = n_miss
        n_fin = k - n_miss
        self.num = num = np.empty((2, n_miss.shape[0], cnt_left.size))
        self.den = den = np.empty(num.shape)
        np.add(cnt_left, n_miss, out=num[0])
        num[1] = cnt_left
        np.subtract(n_fin, cnt_left, out=den[0])
        np.add(den[0], n_miss, out=den[1])
        self.miss = np.arange(k) >= n_fin
        self.window = (num >= min_leaf) & (den >= min_leaf)

    @property
    def nbytes(self) -> int:
        arrays = (self.n_miss, self.num, self.den, self.miss, self.window)
        return sum(a.nbytes for a in arrays) + 3 * _ENTRY_OVERHEAD


# Bytes that the search caches of one TreeFitter hold at most. Flagship
# fits (25 rows, 7 features) need about 600 KB to keep every row set they
# meet; at 384 KiB 64% of their searches hit (76% at 512 KiB, 49% at 256),
# and peak RSS stays within 1% of a fit without the cache.
SEARCH_CACHE_BYTES = 3 << 17
# Allowance per cache entry for its Python objects (dict slot, key, entry
# object, array headers), from tracemalloc on a flagship fit; a _Counts
# entry, with five arrays, is charged three.
_ENTRY_OVERHEAD = 512
_EPS = float(np.finfo(np.float64).eps)


class TreeFitter:
    """Split-search machinery bound to one feature matrix.

    The boosting loop refits thousands of trees against the same X with
    changing targets and row subsets, so the per-feature sort order is
    computed once here. ``fit_tree`` wraps this for one-off use.

    Most of a split search depends only on the node's row set, and
    stochastic boosting on a small table meets the same row sets over and
    over: in a 1,200-stage flagship fit at seed 1, the 2,639 searches of
    nodes large enough to split meet only 549 distinct row sets. So that
    part is cached, in two LRU caches that share ``SEARCH_CACHE_BYTES``:

    - a _Group per row set, keyed on the row ids' bytes: the rows in each
      feature's value order and the cuts between distinct finite values
      (three quarters of the budget);
    - a _Counts per row count and NaN counts, shared by all row sets with
      the same ones: the row counts on each side of every cut, the NaN
      positions and the cuts that leave min_leaf rows on each side.

    Entries are charged their array and key bytes plus a fixed allowance
    for the Python objects, and the counts are dropped when
    ``min_leaf_obs`` changes. A hit skips only work whose results are
    integers or masks; every float operation on the targets runs on the
    same operands in the same order on a hit and a miss, so the trees are
    bit-identical with and without the cache.
    """

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("samples must be a 2-D feature matrix")
        self.X = X
        self.XT = np.ascontiguousarray(X.T)
        n, d = X.shape
        # Row ids are held in the smallest unsigned dtype that holds them, so
        # that cached row sets stay small.
        self.row_dtype = np.min_scalar_type(max(n - 1, 0))
        # Row ids per feature in ascending value order, NaNs last; stable so
        # equal values keep row order.
        if d > 0 and n > 0:
            self.orders = np.argsort(self.XT, axis=1, kind="stable").astype(self.row_dtype)
        else:
            self.orders = np.zeros((d, n), dtype=self.row_dtype)
        self._offsets = (np.arange(d) * n)[:, None]  # start of each feature in XT.ravel()
        self._cnt_left = np.arange(1, max(n, 1), dtype=np.float64)
        # Three quarters of the budget for groups, one for the shared counts.
        budget = SEARCH_CACHE_BYTES
        self._groups = _LRU(budget - budget // 4, _group_size)
        self._counts = _LRU(budget // 4, lambda key, counts: counts.nbytes)
        self._min_leaf = None

    def fit(self, targets: np.ndarray, rows: np.ndarray, limits: TreeLimits) -> RegressionTree:
        y = targets
        rows = np.asarray(rows, dtype=np.intp)
        n_features = self.X.shape[1]
        if limits.min_leaf_obs != self._min_leaf:
            self._counts.clear()  # the min_leaf window; groups do not depend on it
            self._min_leaf = limits.min_leaf_obs

        feature = [-1]
        threshold = [0.0]
        missing_right = [False]
        left = [-1]
        right = [-1]
        improvement = [0.0]
        total = float(np.add.reduce(y[rows]))
        value = [total / rows.size]
        heap: list[tuple[float, int, SplitCandidate, np.ndarray, np.ndarray]] = []
        # Cuts past a node's last finite value divide by zero; they are masked.
        with np.errstate(divide="ignore", invalid="ignore"):
            self._search(y, 0, rows, total, heap)

            while heap and len(feature) + 2 <= limits.max_nodes:
                _, nid, cand, lrows, rrows = heapq.heappop(heap)
                feature[nid] = cand.feature
                threshold[nid] = cand.threshold
                missing_right[nid] = cand.default_direction == "right"
                improvement[nid] = cand.improvement
                # After this expansion the tree has len(feature)+2 nodes; only
                # search the new leaves if one more expansion could still fit.
                worth_searching = len(feature) + 4 <= limits.max_nodes
                for side, rows_side in (("left", lrows), ("right", rrows)):
                    cid = len(feature)
                    feature.append(-1)
                    threshold.append(0.0)
                    missing_right.append(False)
                    left.append(-1)
                    right.append(-1)
                    improvement.append(0.0)
                    total = float(np.add.reduce(y[rows_side]))
                    value.append(total / rows_side.size)
                    if side == "left":
                        left[nid] = cid
                    else:
                        right[nid] = cid
                    if worth_searching:
                        self._search(y, cid, rows_side, total, heap)

        return RegressionTree(feature, threshold, missing_right, left, right, value, improvement, n_features)

    def _group(self, rows: np.ndarray) -> tuple[_Group, _Counts]:
        """The cached _Group of this row set, built and stored on a miss,
        and its _Counts."""
        key = rows.astype(self.row_dtype).tobytes()
        group = self._groups.get(key)
        if group is not None:
            return group, self._counts_of(group.counts_key)

        d, n = self.XT.shape
        in_node = np.zeros(n, dtype=bool)
        in_node[rows] = True
        # Row-major boolean pick keeps each feature's value order; every
        # feature row holds the same node rows, so the reshape is exact.
        sel = self.orders[in_node[self.orders]].reshape(d, rows.size)
        vals = self.XT.ravel()[sel + self._offsets]
        valid = np.isfinite(vals[:, 1:]) & (vals[:, 1:] != vals[:, :-1])
        n_miss = np.add.reduce(np.isnan(vals), axis=1, dtype=np.float64)[:, None]
        counts = self._counts_of((rows.size, n_miss.tobytes()), n_miss)
        group = _Group(sel, valid, counts.key)
        self._groups.put(key, group)
        return group, counts

    def _counts_of(self, key, n_miss=None) -> _Counts:
        """The cached _Counts of key = (row count, NaN counts' bytes)."""
        counts = self._counts.get(key)
        if counts is None:
            k, miss_bytes = key
            if n_miss is None:
                n_miss = np.frombuffer(miss_bytes).reshape(-1, 1)
            counts = _Counts(key, n_miss, self._cnt_left[: k - 1], self._min_leaf)
            self._counts.put(key, counts)
        return counts

    def _search(self, y, nid, rows, total, heap) -> None:
        """Push the best split of node nid, whose rows sum to ``total``, onto heap.

        A heap entry is (-improvement, node id, SplitCandidate, left row
        ids, right row ids); both id arrays are sorted ascending so later
        sums are order-canonical. Nodes with fewer than 2*min_leaf rows, or
        no split that removes error, push nothing.
        """
        k = rows.size
        if self.XT.shape[0] == 0 or k < max(2, 2 * self._min_leaf):
            return
        g, counts = self._group(rows)
        sel = g.sel
        t = y[sel]
        # Axis 0 stacks the two routings of the missing rows; per element
        # score_l = sl*sl/nl + sum_right*sum_right/cnt_right and
        # score_r = cs*cs/cnt_left + sr*sr/nr, with sl = cs + s_miss,
        # sum_right = (total - s_miss) - cs and sr = sum_right + s_miss.
        lsum = np.empty(counts.num.shape)  # [sl, cs]
        rsum = np.empty(counts.num.shape)  # [sum_right, sr]
        cs = lsum[1]
        np.add.accumulate(t[:, :-1], axis=1, out=cs)  # left sums at cut after position i
        s_miss = np.add.reduce(np.where(counts.miss, t, 0.0), axis=1)[:, None]
        np.add(cs, s_miss, out=lsum[0])
        np.subtract(total - s_miss, cs, out=rsum[0])
        np.add(rsum[0], s_miss, out=rsum[1])
        ok = g.valid & counts.window
        score_l, score_r = np.where(ok, lsum * lsum / counts.num + rsum * rsum / counts.den, -np.inf)
        prefer_left = score_l >= score_r
        score = np.where(prefer_left, score_l, score_r)

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
        n_miss = counts.n_miss[:, 0]
        if np.count_nonzero(close) > 1 or (n_miss[f] and abs(score_l[f, p] - score_r[f, p]) <= slack):
            f, p, goes_left = self._resolve_exact(y, sel, n_miss, close, score_l, score_r, slack, best)
        else:
            goes_left = bool(prefer_left[f, p])

        chosen = float((score_l if goes_left else score_r)[f, p])
        gain = float(chosen - total * total / k)
        cand = SplitCandidate(int(f), self._midpoint(sel, f, p), gain, "left" if goes_left else "right")

        fin_count = int(k - n_miss[f])
        ids = sel[f].astype(np.intp)
        left_ids = ids[: p + 1]
        right_ids = ids[p + 1 : fin_count]
        if fin_count < k:
            if goes_left:
                left_ids = np.concatenate([left_ids, ids[fin_count:]])
            else:
                right_ids = ids[p + 1 :]
        left_ids.sort()
        right_ids.sort()
        heapq.heappush(heap, (-cand.improvement, nid, cand, left_ids, right_ids))

    def _midpoint(self, sel, f, p) -> float:
        """Threshold of the cut after sorted position p of feature f."""
        xf = self.XT[f]
        return float((xf[sel[f, p]] + xf[sel[f, p + 1]]) / 2.0)

    def _resolve_exact(self, y, sel, n_miss, close, score_l, score_r, slack, best):
        """Order dust-level rival splits by exact rational score.

        Every float64 is a dyadic rational, so Fraction sums are exact; the
        candidate order is (score desc, feature asc, threshold asc, left
        routing first), independent of accumulation order.
        """
        k = sel.shape[1]
        candidates = []
        for f, p in np.argwhere(close):
            fin_count = int(k - n_miss[f])
            left = [Fraction(float(y[i])) for i in sel[f, : p + 1]]
            right = [Fraction(float(y[i])) for i in sel[f, p + 1 : fin_count]]
            missing = [Fraction(float(y[i])) for i in sel[f, fin_count:]]
            thr = self._midpoint(sel, f, p)
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
