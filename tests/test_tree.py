import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from brt.tree import (
    MIN_IMPROVEMENT_FRACTION,
    NODE_FIELDS,
    RegressionTree,
    TreeFitter,
    TreeLimits,
    fit_tree,
    goes_right,
    predict_tree,
    split_improvements,
)

from conftest import traced_peak
from oracles import NaiveTree, enumerate_splits, naive_flat_leaf


def two_leaf_tree():
    """Split at x <= 2.5 with leaves 0.0 / 10.0, fit from the 4-point toy."""
    return fit_tree(np.array([[1.0], [2.0], [3.0], [4.0]]), [0.0, 0.0, 10.0, 10.0], TreeLimits(3, 1))


def test_constant_targets_yield_single_leaf():
    tree = fit_tree(np.array([[1.0], [2.0], [3.0]]), [5.0, 5.0, 5.0], TreeLimits(6, 1))
    assert tree.node_count == 1
    assert tree.value[0] == 5.0
    assert predict_tree(tree, [99.0]) == 5.0


@st.composite
def split_cases(draw):
    """A finite threshold and values on it, next to it on either side, at +-inf,
    NaN or anywhere, with missing_right as one flag or one per value."""
    t = draw(st.floats(allow_nan=False, allow_infinity=False))
    near = st.sampled_from([t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf), math.inf, -math.inf, math.nan])
    v = draw(st.lists(near | st.floats(), min_size=1, max_size=12))
    flags = st.booleans() | st.lists(st.booleans(), min_size=len(v), max_size=len(v)).map(np.array)
    return np.array(v), t, draw(flags)


@given(split_cases())
def test_property_goes_right_is_the_split_rule_per_value(case):
    v, t, missing_right = case
    flags = np.broadcast_to(missing_right, v.shape).tolist()
    want = [x > t or (math.isnan(x) and m) for x, m in zip(v.tolist(), flags)]
    assert goes_right(v, t, missing_right).tolist() == want


def test_four_point_split():
    tree = two_leaf_tree()
    assert tree.node_count == 3
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.5
    assert tree.improvement[0] == 100.0  # SSE drops 100 -> 0
    assert sorted([tree.value[1], tree.value[2]]) == [0.0, 10.0]


def test_predict_tree_traversal_and_missing_default():
    tree = two_leaf_tree()
    assert predict_tree(tree, [1.0]) == 0.0
    assert predict_tree(tree, [4.0]) == 10.0
    # hand-built tree with default_direction = right
    manual = RegressionTree(
        feature=[0, -1, -1],
        threshold=[2.5, 0.0, 0.0],
        missing_right=[True, False, False],
        left=[1, -1, -1],
        right=[2, -1, -1],
        value=[5.0, 0.0, 10.0],
        improvement=[100.0, 0.0, 0.0],
        n_features=1,
    )
    assert predict_tree(manual, [float("nan")]) == 10.0


def test_predict_tree_arity_mismatch():
    tree = two_leaf_tree()
    for sample in ([1.0, 2.0], 1.0, [], [[1.0]], np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match="^feature count mismatch$"):
            predict_tree(tree, sample)


@pytest.mark.parametrize("X", [np.zeros((2, 1)), np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 1)), [[0.0, 1.0, 2.0]]])
def test_tree_takes_only_matrices_of_its_width(X):
    """A 3-column X was routed on its first two columns, and a 1-column one ended in an IndexError."""
    x1 = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]])  # the split is on feature 1
    split = fit_tree(x1, [0.0, 0.0, 10.0, 10.0], TreeLimits(3, 1))
    stump = fit_tree(np.zeros((2, 2)), [1.0, 1.0], TreeLimits(3, 1))
    assert split.feature[0] == 1 and stump.node_count == 1
    for call in (split.leaf_assignments, split.predict_batch, stump.leaf_assignments):
        with pytest.raises(ValueError, match="^feature count mismatch$"):
            call(X)
    assert split.leaf_assignments([[9.0, 2.0], [9.0, 3.0]]).tolist() == [1, 2]


def test_fit_tree_empty_sample():
    with pytest.raises(ValueError, match="empty learn sample"):
        fit_tree(np.empty((0, 2)), [], TreeLimits(3, 1))


@pytest.mark.parametrize("cell", [-np.inf, np.inf])
def test_fitter_refuses_infinite_predictors(cell):
    """An infinite cell would become an infinite threshold, which goes_right and brtm/1 rule out."""
    with pytest.raises(ValueError, match="^predictor values must be finite where present$"):
        fit_tree([[cell], [1.0], [2.0], [3.0]], [0.0, 10.0, 10.0, 10.0], TreeLimits(3, 1))
    with pytest.raises(ValueError, match="^predictor values must be finite where present$"):
        TreeFitter(np.array([[1.0, 2.0], [np.nan, cell]]), TreeLimits())


def test_fewer_rows_than_two_min_leaf_gives_stump():
    # 3 rows cannot satisfy two leaves of >= 2 records: stump, not an error
    tree = fit_tree(np.array([[1.0], [2.0], [3.0]]), [1.0, 2.0, 3.0], TreeLimits(6, 2))
    assert tree.node_count == 1
    assert tree.value[0] == pytest.approx(2.0)


def test_limits_validation():
    with pytest.raises(ValueError):
        TreeLimits(2, 1)
    with pytest.raises(ValueError):
        TreeLimits(3, 0)


@pytest.mark.parametrize(
    "max_nodes, min_leaf, n_rows, widest",
    [(6, 3, 25, 5), (7, 3, 25, 7), (100_001, 1, 4, 7), (100_001, 3, 23, 13), (6, 3, 5, 1), (6, 3, 2, 1), (3, 1, 0, 1)],
)
def test_widest_tree_is_odd_within_the_budget_and_the_rows(max_nodes, min_leaf, n_rows, widest):
    assert TreeLimits(max_nodes, min_leaf).widest(n_rows) == widest


def test_max_nodes_budget_counts_all_nodes():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(40, 3))
    y = rng.uniform(size=40)
    for budget, expected_max in [(3, 3), (6, 5), (7, 7), (9, 9)]:
        tree = fit_tree(X, y, TreeLimits(budget, 1))
        assert tree.node_count <= budget
        assert tree.node_count <= expected_max


def test_min_leaf_obs_enforced():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(25, 2))
    y = rng.uniform(size=25)
    tree = fit_tree(X, y, TreeLimits(6, 3))
    leaves = tree.leaf_assignments(X)
    for leaf in np.unique(leaves):
        assert (leaves == leaf).sum() >= 3


def test_bundled_table_single_tree_limits():
    # flagship limits on the 25-row bundled table: <= 6 nodes, leaves >= 3 records
    from brt.standin import load_bundled

    ds = load_bundled()
    tree = fit_tree(ds.X, ds.y, TreeLimits(6, 3))
    assert 1 < tree.node_count <= 6
    leaves = tree.leaf_assignments(ds.X)
    for leaf in np.unique(leaves):
        assert (leaves == leaf).sum() >= 3


def test_split_improvements_examples():
    def columns(*trees):  # (n_stages, widest) feature and improvement columns, leaves past a tree's nodes
        width = max(t.node_count for t in trees)
        pad = [
            np.pad(a, (0, width - t.node_count), constant_values=v)
            for t in trees
            for a, v in ((t.feature, -1), (t.improvement, 0.0))
        ]
        return np.array(pad[0::2]), np.array(pad[1::2])

    stump = fit_tree(np.array([[1.0], [2.0]]), [3.0, 3.0], TreeLimits(3, 1))
    assert split_improvements(*columns(stump), 1).tolist() == [0.0]

    tree = two_leaf_tree()
    assert split_improvements(*columns(tree), 1).tolist() == [100.0]
    assert split_improvements(*columns(stump, tree, tree), 1).tolist() == [200.0]

    manual = RegressionTree(
        feature=[0, 0, -1, -1, 1, -1, -1],
        threshold=[1.0, 0.5, 0.0, 0.0, 2.0, 0.0, 0.0],
        missing_right=[False] * 7,
        left=[1, 2, -1, -1, 5, -1, -1],
        right=[4, 3, -1, -1, 6, -1, -1],
        value=[0.0] * 7,
        improvement=[8.0, 2.0, 0.0, 0.0, 5.0, 0.0, 0.0],
        n_features=2,
    )
    assert split_improvements(*columns(manual), 2).tolist() == [10.0, 5.0]
    assert split_improvements(*columns(tree, manual), 2).tolist() == [110.0, 5.0]
    assert split_improvements(np.empty((0, 3), np.int64), np.empty((0, 3)), 2).tolist() == [0.0, 0.0]


def test_improvement_identity_against_recomputed_sse():
    rng = np.random.default_rng(7)
    X = rng.uniform(-3, 3, size=(30, 4))
    X[rng.uniform(size=X.shape) < 0.1] = np.nan
    y = rng.normal(size=30)
    tree = fit_tree(X, y, TreeLimits(9, 2))
    assert tree.node_count > 1

    def node_rows(node, rows):
        f = tree.feature[node]
        if f < 0:
            return {}
        v = X[rows, f]
        go_right = np.where(np.isnan(v), tree.missing_right[node], v > tree.threshold[node])
        l, r = rows[~go_right], rows[go_right]
        out = {node: (rows, l, r)}
        out.update(node_rows(int(tree.left[node]), l))
        out.update(node_rows(int(tree.right[node]), r))
        return out

    def sse(rows):
        if len(rows) == 0:
            return 0.0
        return float(np.sum((y[rows] - y[rows].mean()) ** 2))

    for node, (rows, l, r) in node_rows(0, np.arange(30)).items():
        expected = sse(rows) - sse(l) - sse(r)
        assert tree.improvement[node] == pytest.approx(expected, rel=1e-9)


def test_tree_sse_decomposes_over_leaves():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(20, 2))
    y = rng.normal(size=20)
    tree = fit_tree(X, y, TreeLimits(7, 2))
    preds = tree.predict_batch(X)
    total_sse = float(np.sum((y - preds) ** 2))
    leaves = tree.leaf_assignments(X)
    by_leaf = sum(float(np.sum((y[leaves == leaf] - y[leaves == leaf].mean()) ** 2)) for leaf in np.unique(leaves))
    assert total_sse == pytest.approx(by_leaf, rel=1e-9, abs=1e-12)
    # fitting never does worse than the constant-mean stump
    assert total_sse <= float(np.sum((y - y.mean()) ** 2)) + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_root_split_matches_exhaustive_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    X = rng.uniform(-2, 2, size=(n, 2))
    y = rng.normal(size=n)
    tree = fit_tree(X, y, TreeLimits(3, 1))
    splits = enumerate_splits([list(r) for r in X], list(y), list(range(n)), 1)
    if tree.node_count == 1:
        assert not splits
    else:
        f, thr, gain, direction, _, _ = splits[0]
        assert int(tree.feature[0]) == f
        assert float(tree.threshold[0]) == pytest.approx(thr, rel=1e-12)
        assert float(tree.improvement[0]) == pytest.approx(gain, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_full_tree_matches_naive_best_first(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(6, 13))
    X = rng.uniform(-2, 2, size=(n, 2))
    y = rng.normal(size=n)
    tree = fit_tree(X, y, TreeLimits(7, 1))
    naive = NaiveTree([list(r) for r in X], list(y), 7, 1)
    assert tree.node_count == naive.node_count
    for i in range(n):
        assert predict_tree(tree, X[i]) == pytest.approx(naive.predict(list(X[i])), abs=1e-12)


def test_row_permutation_leaves_tree_identical():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(18, 3))  # continuous draws: no duplicate values
    y = rng.normal(size=18)
    tree_a = fit_tree(X, y, TreeLimits(9, 2))
    perm = rng.permutation(18)
    tree_b = fit_tree(X[perm], y[perm], TreeLimits(9, 2))
    assert tree_a.feature.tolist() == tree_b.feature.tolist()
    assert tree_a.threshold.tolist() == tree_b.threshold.tolist()
    np.testing.assert_allclose(tree_a.value, tree_b.value, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tree_a.improvement, tree_b.improvement, rtol=1e-9, atol=1e-12)


def test_missing_rows_follow_chosen_side_in_training():
    # feature 0 separates targets perfectly; rows 4/5 have it missing and
    # pull their side's mean toward their targets
    X = np.array([[0.0], [1.0], [10.0], [11.0], [np.nan], [np.nan]])
    y = np.array([0.0, 0.0, 10.0, 10.0, 9.0, 11.0])
    tree = fit_tree(X, y, TreeLimits(3, 1))
    assert tree.node_count == 3
    assert tree.missing_right[0]  # missing targets look like the right leaf
    right_leaf = int(tree.right[0])
    assert tree.value[right_leaf] == pytest.approx(np.mean([10.0, 10.0, 9.0, 11.0]))
    assert predict_tree(tree, [float("nan")]) == pytest.approx(10.0)


def test_all_missing_rows_route_to_one_leaf():
    X = np.array([[np.nan, 1.0], [np.nan, 2.0], [np.nan, 3.0], [np.nan, 4.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(X, y, TreeLimits(3, 1))
    # feature 0 is fully missing: only feature 1 is usable
    assert tree.node_count == 3
    assert tree.feature[0] == 1
    sample = [float("nan"), float("nan")]
    assert predict_tree(tree, sample) in (0.0, 10.0)


@pytest.mark.parametrize(
    "x, y",
    [
        # the midpoint of the adjacent floats a and b rounds onto b
        ([0.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), 3.0], [0.0, 0.0, 10.0, 10.0]),
        # the midpoint of 1.5e308 and 1.7e308 overflows
        ([0.0, 1e308, 1.5e308, 1.7e308], [0.0, 0.0, 0.0, 10.0]),
    ],
)
def test_rows_are_predicted_from_the_leaf_they_were_fitted_in(x, y):
    X = np.array(x)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = fit_tree(X, y, TreeLimits(3, 1))
        assert tree.node_count == 3
        assert tree.predict_batch(X).tolist() == y  # each leaf is pure, so its value is its rows' target


def test_degenerate_features_are_skipped():
    X = np.array([[1.0, 7.0], [1.0, 8.0], [1.0, 9.0], [1.0, 10.0]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    tree = fit_tree(X, y, TreeLimits(3, 1))
    assert tree.feature[0] == 1  # constant feature 0 can never split


def test_tie_break_prefers_lowest_feature_and_threshold():
    # identical columns: both features give the same improvement everywhere
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(X, y, TreeLimits(3, 1))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 2.5


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=14),
    st.integers(0, 10_000),
)
def test_property_improvements_nonnegative_and_sse_never_worse(targets, seed):
    rng = np.random.default_rng(seed)
    n = len(targets)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.asarray(targets)
    tree = fit_tree(X, y, TreeLimits(7, 1))
    assert np.all(tree.improvement >= 0.0)
    preds = tree.predict_batch(X)
    sse_fit = float(np.sum((y - preds) ** 2))
    sse_stump = float(np.sum((y - y.mean()) ** 2))
    assert sse_fit <= sse_stump * (1 + 1e-12) + 1e-9


@st.composite
def trees_and_rows(draw, n_features=3):
    """A random flat tree (each split expands a random leaf, so children
    follow their parent) and rows mixing NaN, +-inf, finite values and
    values exactly equal to the tree's thresholds."""
    feature, threshold, missing_right, left, right = [-1], [0.0], [False], [-1], [-1]
    for _ in range(draw(st.integers(0, 7))):
        i = draw(st.sampled_from([j for j, f in enumerate(feature) if f < 0]))
        feature[i] = draw(st.integers(0, n_features - 1))
        threshold[i] = draw(st.floats(-4.0, 4.0))
        missing_right[i] = draw(st.booleans())
        left[i], right[i] = len(feature), len(feature) + 1
        for arr, blank in ((feature, -1), (threshold, 0.0), (missing_right, False), (left, -1), (right, -1)):
            arr.extend([blank, blank])
    cell = st.one_of(
        st.sampled_from(threshold), st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(-5.0, 5.0)
    )
    rows = draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features), min_size=1, max_size=12))
    n = len(feature)
    tree = RegressionTree(
        feature, threshold, missing_right, left, right, np.arange(n, dtype=float), [0.0] * n, n_features
    )
    return tree, (feature, threshold, missing_right, left, right), rows


@settings(max_examples=150, deadline=None)
@given(trees_and_rows())
def test_property_routing_matches_naive_walker(case):
    tree, arrays, rows = case
    X = np.array(rows, dtype=np.float64)
    expected = [naive_flat_leaf(*arrays, row) for row in rows]
    assert tree.leaf_assignments(X).tolist() == expected
    assert tree.predict_batch(X).tolist() == [float(i) for i in expected]


@st.composite
def tables_and_subsamples(draw):
    """A small table with NaN cells and repeated values, targets, an
    ascending subsample of its rows and tree limits."""
    n, d = draw(st.integers(2, 14)), draw(st.integers(1, 3))
    cell = st.one_of(st.just(math.nan), st.sampled_from([-1.0, 0.0, 2.5]), st.floats(-5.0, 5.0))
    X = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)), dtype=np.float64).reshape(n, d)
    y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return X, y, np.array(rows), TreeLimits(draw(st.integers(3, 11)), draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(tables_and_subsamples())
def test_property_fit_leaves_match_naive_walker(case):
    """The leaf fit returns for each row of X, in the subsample or not, is
    where the written tree routes it."""
    X, y, rows, limits = case
    out = {k: np.full(limits.max_nodes, pad, dtype) for k, (dtype, pad) in NODE_FIELDS.items()}
    count, leaf = TreeFitter(X, limits).fit(y, rows, out)
    arrays = [out[k][:count].tolist() for k in ("feature", "threshold", "missing_right", "left", "right")]
    assert leaf.tolist() == [naive_flat_leaf(*arrays, row) for row in X.tolist()]
    for k, (dtype, pad) in NODE_FIELDS.items():  # past the tree, the placeholders are untouched
        assert (out[k][count:] == pad).all(), k



@settings(max_examples=200, deadline=None)
@given(tables_and_subsamples())
def test_property_subsample_fits_as_the_table_of_its_rows(case):
    """Fitting a subsample of X writes the same node bytes as fitting the
    table of those rows alone: a node's rows are read from the presorted
    columns in the order they hold in the smaller table, NaN cells and
    repeated values included."""
    X, y, rows, limits = case
    outs = [{k: np.full(limits.max_nodes, pad, dtype) for k, (dtype, pad) in NODE_FIELDS.items()} for _ in "ab"]
    count, _ = TreeFitter(X, limits).fit(y, rows, outs[0])
    alone, _ = TreeFitter(X[rows], limits).fit(y[rows], np.arange(len(rows)), outs[1])
    assert count == alone
    for k in NODE_FIELDS:
        assert outs[0][k].tobytes() == outs[1][k].tobytes(), k

def test_fit_tree_buffers_fit_the_rows():
    """n rows make at most 2n - 1 nodes, so a huge node budget on 4 rows
    allocates no buffer of that size (100,001 bools would be 100 kB)."""
    X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), [0.0, 1.0, 5.0, 9.0]
    tree, peak = traced_peak(fit_tree, X, y, TreeLimits(100_001, 1))
    assert tree.node_count == 7
    assert peak < 50_000


@st.composite
def forced_ties(draw):
    """Rows whose best splits tie exactly: a column and its duplicate, with
    NaN cells in both, and two columns that each isolate the same record (as
    the largest value of one and the smallest of the other) in a value order
    unlike the others', so their float scores differ by summation dust alone."""
    n = draw(st.integers(4, 10))
    y = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    base = [float(v) for v in draw(st.permutations(range(n)))]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        base[i] = math.nan
    record = draw(st.integers(0, n - 1))
    high = [float(v) for v in draw(st.permutations(range(n)))]
    high[record] = float(n)
    low = [float(v) for v in draw(st.permutations(range(n)))]
    low[record] = -1.0
    columns = [base, base, high, low]
    order = draw(st.permutations(range(len(columns))))
    return np.array([columns[j] for j in order]).T, np.array(y)


@settings(max_examples=200, deadline=None)
@given(forced_ties())
def test_property_exact_ties_follow_the_rational_order(case):
    """The root split equals the best of an exhaustive enumeration ranked by
    Fraction scores: ties go to the lowest feature, then the lowest threshold,
    then missing values on the left."""
    X, y = case
    splits = enumerate_splits(X.tolist(), y.tolist(), list(range(len(y))), 1)
    q = float(np.sum(y * y))
    assume(splits and splits[0][2] > 1e-9 * q)  # clear of the dust guard, which rounds the gain
    f, thr, _, direction, _, _ = splits[0]
    tree = fit_tree(X, y, TreeLimits(3, 1))
    assert (int(tree.feature[0]), float(tree.threshold[0]), bool(tree.missing_right[0])) == (
        f, thr, direction == "right"
    )
