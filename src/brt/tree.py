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
``leaf_assignments``; the analytics' pass tables test splits with it too.

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
from collections import OrderedDict
from dataclasses import dataclass
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


def goes_right(v: np.ndarray, threshold: float, missing_right: bool) -> np.ndarray:
    """Which values v go to the right child of a split: those above the
    threshold, and NaN when missing_right. Every comparison with NaN is false,
    so ``>`` sends NaN left, and the negation of ``<=`` sends it right while
    agreeing with ``>`` on every other value."""
    return ~(v <= threshold) if missing_right else v > threshold


def route(node: np.ndarray, i: int, x: np.ndarray, threshold: float, missing_right: bool, left: int, right: int) -> None:
    """Move the rows at node i (``node[r] == i``) to its left or right child
    by ``goes_right`` on their values in x, the split feature's column."""
    at = np.flatnonzero(node == i)
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

    def leaf_assignments(self, X: np.ndarray) -> np.ndarray:
        """Leaf index each row of X routes to, by ``goes_right`` at each split."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        for i, f in enumerate(self.feature.tolist()):
            if f >= 0:
                route(node, i, X[:, f], self.threshold[i], self.missing_right[i], self.left[i], self.right[i])
        return node


def predict_tree(tree: RegressionTree, sample) -> float:
    """predict_batch on one feature row (cells may be NaN)."""
    x = np.asarray(sample, dtype=np.float64)
    if x.shape != (tree.n_features,):
        raise ValueError("feature count mismatch")
    return float(tree.predict_batch(x[None, :])[0])


def split_improvements(tree: RegressionTree | np.ndarray, improvement=None, n_features=None) -> np.ndarray:
    """Per-feature split improvement totals of a RegressionTree, or of stages' feature and improvement
    columns over n_features: each stage's splits in node order, then a running sum in stage order."""
    if isinstance(tree, RegressionTree):
        tree, improvement, n_features = tree.feature, tree.improvement, tree.n_features
    feature, improvement = np.atleast_2d(tree, improvement)
    stage, node = np.nonzero(feature >= 0)
    totals = np.zeros((len(feature) + 1, n_features))  # row 0 starts the running sum
    np.add.at(totals, (stage + 1, feature[stage, node]), improvement[stage, node])
    return np.add.accumulate(totals, out=totals)[-1]


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

    __slots__ = ("key", "n_miss", "num", "den", "miss", "window")

    def __init__(self, key, n_miss, cnt_left, min_leaf):
        self.key = key  # (k, n_miss bytes); groups keep this one object
        k = key[0]
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
        self.orders = np.argsort(self.XT, axis=1, kind="stable").astype(self.row_dtype)
        self._offsets = (np.arange(d) * n)[:, None]  # start of each feature in XT.ravel()
        self._cnt_left = np.arange(1, max(n, 1), dtype=np.float64)
        # Three quarters of the budget for groups, one for the shared counts.
        budget = SEARCH_CACHE_BYTES
        self._groups = _LRU(budget - budget // 4, _group_size)
        self._counts = _LRU(budget // 4, lambda key, counts: counts.nbytes)
        self._min_leaf = None

    def fit(self, targets: np.ndarray, rows: np.ndarray, limits: TreeLimits, out: dict) -> tuple[int, np.ndarray]:
        """Fit a tree to targets on the ascending row ids ``rows`` (so each node's
        rows, and its targets' sums, are ascending too) and write node i's
        NODE_FIELDS into ``out[name][i]``, whose entries hold leaf placeholders.
        Return the node count and ``leaf``: ``leaf[r]`` is the leaf that row r
        of X reaches, in ``rows`` or not. An expansion routes the rows at its
        node once; a child's rows are those of its parent that reach it."""
        y = targets
        rows = np.asarray(rows, dtype=np.intp)
        if limits.min_leaf_obs != self._min_leaf:
            self._counts.clear()  # the min_leaf window; groups do not depend on it
            self._min_leaf = limits.min_leaf_obs
        leaf = np.zeros(self.X.shape[0], dtype=np.intp)

        def add_leaf(i, leaf_rows) -> float:
            """Write the value of leaf i, on leaf_rows; return the sum of their targets."""
            total = float(np.add.reduce(y[leaf_rows]))
            out["value"][i] = total / leaf_rows.size
            return total

        heap: list[tuple[float, int, dict, np.ndarray]] = []
        count = 1
        # Cuts past a node's last finite value divide by zero; they are masked.
        with np.errstate(divide="ignore", invalid="ignore"):
            self._search(y, 0, rows, add_leaf(0, rows), heap)
            while heap and count + 2 <= limits.max_nodes:
                _, i, split, node_rows = heapq.heappop(heap)
                left, right = count, count + 1
                for name, v in {**split, "left": left, "right": right}.items():
                    out[name][i] = v
                route(leaf, i, self.XT[split["feature"]], split["threshold"], split["missing_right"], left, right)
                count += 2
                # Only search the new leaves if one more expansion could still fit.
                worth_searching = count + 2 <= limits.max_nodes
                for child in (left, right):
                    child_rows = node_rows[leaf[node_rows] == child]
                    total = add_leaf(child, child_rows)
                    if worth_searching:
                        self._search(y, child, child_rows, total, heap)
        return count, leaf

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

        A heap entry is (-improvement, node id, the split's feature,
        threshold, missing_right and improvement as node fields, the node's
        row ids). Nodes with fewer than 2*min_leaf rows, or no split that
        removes error, push nothing.
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
            f, p, missing_right = self._resolve_exact(y, sel, n_miss, close, score_l, score_r, slack, best)
        else:
            missing_right = not prefer_left[f, p]

        gain = float((score_r if missing_right else score_l)[f, p] - total * total / k)
        threshold = self._threshold(sel, f, p)
        split = {"feature": f, "threshold": threshold, "missing_right": missing_right, "improvement": gain}
        heapq.heappush(heap, (-gain, nid, split, rows))

    def _threshold(self, sel, f, p) -> float:
        """Threshold of the cut after sorted position p of feature f: the
        midpoint of the values on either side when it lies in [lower, upper),
        else the lower value, so that goes_right splits where the cut was scored."""
        xf = self.XT[f]
        lo, hi = float(xf[sel[f, p]]), float(xf[sel[f, p + 1]])
        mid = (lo + hi) / 2.0  # Python floats: an overflow gives inf without a warning
        return mid if lo <= mid < hi else lo

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
    # n rows make at most 2n - 1 nodes, each leaf holding one row at least
    out = {k: np.full(min(limits.max_nodes, 2 * X.shape[0]), pad, dtype) for k, (dtype, pad) in NODE_FIELDS.items()}
    count, _ = TreeFitter(X).fit(y, np.arange(X.shape[0]), limits, out)
    return RegressionTree(*(out[k][:count] for k in NODE_FIELDS), X.shape[1])
