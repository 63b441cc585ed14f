"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive pure Python: exhaustive split
enumeration with explicit SSE sums, a direct boosting loop, and
double-loop partial dependence and interaction scores. These mirror the
documented contracts (midpoint thresholds, tie rules, best-first growth
under a total-node budget, the 1e-12 relative dust guard on improvements)
but share no code with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

DUST = 1e-12


def sse(values):
    if not values:
        return 0.0
    m = sum(values) / len(values)
    return sum((v - m) ** 2 for v in values)


def _exact_score(targets):
    """sum(t)^2 / n as an exact rational (floats are dyadic rationals)."""
    s = sum((Fraction(t) for t in targets), Fraction(0))
    return s * s / len(targets)


def enumerate_splits(X, y, rows, min_leaf):
    """All legal (feature, threshold, improvement, default_direction),
    ranked by exact-rational score with the documented tie rules
    (feature asc, threshold asc, left routing preferred)."""
    q = sum(y[i] * y[i] for i in rows)
    parent_score = _exact_score([y[i] for i in rows])
    n_features = len(X[0])
    out = []
    for f in range(n_features):
        finite = sorted((X[i][f], i) for i in rows if not math.isnan(X[i][f]))
        missing = [i for i in rows if math.isnan(X[i][f])]
        vals = [v for v, _ in finite]
        for a in range(len(finite) - 1):
            if vals[a] == vals[a + 1]:
                continue
            thr = (vals[a] + vals[a + 1]) / 2.0
            left = [i for v, i in finite[: a + 1]]
            right = [i for v, i in finite[a + 1 :]]
            options = []
            for direction in ("left", "right"):
                l = left + missing if direction == "left" else left
                r = right + missing if direction == "right" else right
                if len(l) < min_leaf or len(r) < min_leaf:
                    continue
                score = _exact_score([y[i] for i in l]) + _exact_score([y[i] for i in r])
                options.append((score, direction, l, r))
            if not options:
                continue
            # higher exact score wins; tie prefers left routing
            options.sort(key=lambda o: (-o[0], o[1] != "left"))
            score, direction, l, r = options[0]
            gain = float(score - parent_score)
            if gain > DUST * q:
                out.append((f, thr, gain, direction, sorted(l), sorted(r), score))
    # exact score desc, then lowest feature index, then lowest threshold
    out.sort(key=lambda s: (-s[6], s[0], s[1]))
    return [s[:6] for s in out]


class NaiveTree:
    """Dict-based tree grown best-first, mirroring the documented policy."""

    def __init__(self, X, y, max_nodes, min_leaf):
        rows = list(range(len(y)))
        self.root = self._leaf(y, rows)
        self.node_count = 1
        counter = [0]
        pending = []  # (improvement sort key, creation order, node, split)

        def consider(node, rows):
            splits = enumerate_splits(X, y, rows, min_leaf)
            if splits:
                counter[0] += 1
                pending.append((-splits[0][2], counter[0], node, splits[0]))

        consider(self.root, rows)
        while pending and self.node_count + 2 <= max_nodes:
            pending.sort(key=lambda p: (p[0], p[1]))
            _, _, node, (f, thr, gain, direction, l, r) = pending.pop(0)
            node["feature"] = f
            node["threshold"] = thr
            node["improvement"] = gain
            node["default"] = direction
            node["left"] = self._leaf(y, l)
            node["right"] = self._leaf(y, r)
            self.node_count += 2
            if self.node_count + 2 <= max_nodes:
                consider(node["left"], l)
                consider(node["right"], r)

    @staticmethod
    def _leaf(y, rows):
        return {"feature": None, "value": sum(y[i] for i in rows) / len(rows), "rows": rows}

    def predict(self, x):
        node = self.root
        while node["feature"] is not None:
            v = x[node["feature"]]
            if isinstance(v, float) and math.isnan(v):
                side = node["default"]
            else:
                side = "left" if v <= node["threshold"] else "right"
            node = node[side]
        return node["value"]


def naive_flat_leaf(feature, threshold, missing_right, left, right, x):
    """Leaf index of row x in a flat-array tree, walked one node at a time
    the way NaiveTree.predict walks its dicts."""
    node = 0
    while feature[node] >= 0:
        v = x[feature[node]]
        if math.isnan(v):
            go_right = missing_right[node]
        else:
            go_right = not v <= threshold[node]
        node = right[node] if go_right else left[node]
    return node


def naive_boost(X, y, n_trees, learn_rate, max_nodes, min_leaf):
    """Full-sample (subsample fraction 1.0) least-squares boosting loop."""
    n = len(y)
    f0 = sum(y) / n
    current = [f0] * n
    trees = []
    for _ in range(n_trees):
        residuals = [y[i] - current[i] for i in range(n)]
        tree = NaiveTree(X, residuals, max_nodes, min_leaf)
        h = [tree.predict(X[i]) for i in range(n)]
        hh = sum(v * v for v in h)
        gamma = 1.0 if hh == 0.0 else sum(residuals[i] * h[i] for i in range(n)) / hh
        scale = learn_rate * gamma
        for i in range(n):
            current[i] += scale * h[i]
        trees.append((tree, gamma))
    return f0, trees


def naive_boost_predict(f0, trees, learn_rate, x):
    acc = f0
    for tree, gamma in trees:
        acc += (learn_rate * gamma) * tree.predict(x)
    return acc


def naive_pd_1d(predict_fn, X_rows, feature, grid):
    """Explicit double loop: mean prediction with `feature` overridden."""
    raw = []
    for v in grid:
        total = 0.0
        for row in X_rows:
            modified = list(row)
            modified[feature] = v
            total += predict_fn(modified)
        raw.append(total / len(X_rows))
    mean = sum(raw) / len(raw)
    return [r - mean for r in raw]


def naive_pd_2d(predict_fn, X_rows, j, k, grid_j, grid_k):
    raw = []
    for vj in grid_j:
        row_vals = []
        for vk in grid_k:
            total = 0.0
            for row in X_rows:
                modified = list(row)
                modified[j] = vj
                modified[k] = vk
                total += predict_fn(modified)
            row_vals.append(total / len(X_rows))
        raw.append(row_vals)
    mean = sum(v for r in raw for v in r) / (len(grid_j) * len(grid_k))
    return [[v - mean for v in r] for r in raw]


def naive_interaction(predict_fn, X_rows, j, k, denominator_ref):
    """Pairwise interaction score by its definition, with explicit loops:
    d_i = PDjk - PDj - PDk at record i's own values (each PD averaged over
    all records with the feature(s) overridden, then centered over the
    records), scored as 100 * sum(d_i^2) over the centered sum of squares
    of `denominator_ref` (model outputs or responses at the records)."""
    n = len(X_rows)

    def pd_at_records(features):
        raw = []
        for source in X_rows:
            total = 0.0
            for row in X_rows:
                modified = list(row)
                for f in features:
                    modified[f] = source[f]
                total += predict_fn(modified)
            raw.append(total / n)
        mean = sum(raw) / n
        return [v - mean for v in raw]

    pj, pk, pjk = pd_at_records([j]), pd_at_records([k]), pd_at_records([j, k])
    d = [pjk[i] - pj[i] - pk[i] for i in range(n)]
    ref_mean = sum(denominator_ref) / len(denominator_ref)
    den = sum((v - ref_mean) ** 2 for v in denominator_ref)
    return 100.0 * sum(v * v for v in d) / den


def stage_influence(stages, n_features):
    """Split improvements per feature over `stages`, (feature, improvement)
    node lists: each stage's splits added in node order into its own totals,
    which are then added into the running totals in stage order."""
    totals = [0.0] * n_features
    for feature, improvement in stages:
        own = [0.0] * n_features
        for f, gain in zip(feature, improvement):
            if f >= 0:
                own[f] += gain
        totals = [t + o for t, o in zip(totals, own)]
    return totals


def average_ranks(values):
    """1-based ranks, ties sharing their average rank. A NaN equals nothing
    and ranks after every number, NaNs in the order given."""
    numbers = [v for v in values if not math.isnan(v)]
    ranks, nans = [], 0
    for v in values:
        if math.isnan(v):
            nans += 1
            ranks.append(float(len(numbers) + nans))
        else:
            below = sum(1 for u in numbers if u < v)
            tied = sum(1 for u in numbers if u == v)
            ranks.append(below + (tied + 1) / 2)
    return ranks
