import hashlib
import io
import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt import boosting
from brt.boosting import (
    BLOCK_CELLS,
    ROUTING,
    BoostConfig,
    BoostedModel,
    fit_ensemble,
    line_search_gamma,
    predict,
    predict_batch,
    staged_metric,
)
from brt.data import Dataset
from brt.model_io import load_model, save_model
from brt import tree as tree_module
from brt.tree import RegressionTree, TreeFitter, TreeLimits, fit_tree

from conftest import assert_peak_flat, column_bytes, model_of, random_dataset, stage_trees, traced_peak
from oracles import naive_boost, naive_boost_predict


def identity_toy():
    x = np.arange(1.0, 11.0)
    return Dataset.from_arrays(x[:, None], x)


class TestBoostConfig:
    def test_defaults_match_flagship_run(self):
        cfg = BoostConfig()
        assert cfg.n_trees == 50_000
        assert cfg.learn_rate == 0.0001
        assert cfg.max_nodes == 6
        assert cfg.min_leaf_obs == 3
        assert cfg.subsample_fraction == 0.95
        assert cfg.loss == "least_squares"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": -1},
            {"learn_rate": -0.1},
            {"learn_rate": 1.5},
            {"max_nodes": 2},
            {"min_leaf_obs": 0},
            {"subsample_fraction": 0.0},
            {"subsample_fraction": 1.2},
            {"loss": "huber"},
        ],
    )
    def test_bounds_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            BoostConfig(**kwargs)


class TestLineSearch:
    def test_perfect_fit(self):
        gamma, flat = line_search_gamma([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert gamma == 1.0 and not flat

    def test_exact_scaling(self):
        gamma, flat = line_search_gamma([2.0, 4.0], [1.0, 2.0])
        assert gamma == 2.0 and not flat

    def test_hand_minimised(self):
        gamma, flat = line_search_gamma([1.0, 2.0], [1.0, 1.0])
        assert gamma == 1.5 and not flat

    def test_zero_outputs_flagged(self):
        gamma, flat = line_search_gamma([1.0, 2.0], [0.0, 0.0])
        assert gamma == 1.0 and flat

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            line_search_gamma([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            line_search_gamma([], [])


class TestFitEnsemble:
    def test_zero_trees_predicts_mean(self):
        ds = identity_toy()
        model = fit_ensemble(ds, BoostConfig(n_trees=0))
        assert model.n_stages == 0
        assert model.f0 == pytest.approx(5.5)
        assert predict(model, [3.0]) == 5.5
        assert predict_batch(model, ds.X).tolist() == [5.5] * ds.n_rows
        assert predict_batch(model, ds.X[:0]).shape == (0,)
        assert staged_metric(model, ds).points == ()

    def test_monotone_identity_toy_converges(self):
        ds = identity_toy()
        cfg = BoostConfig(
            n_trees=2000, learn_rate=0.1, max_nodes=3, min_leaf_obs=1, subsample_fraction=1.0, seed=2
        )
        model = fit_ensemble(ds, cfg)
        mse = float(np.mean((predict_batch(model, ds.X) - ds.y) ** 2))
        assert mse < 0.05
        curve = staged_metric(model, ds, metric="mse", stride=1)
        values = [v for _, v in curve.points]
        assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(values, values[1:]))

    def test_empty_and_degenerate_data(self):
        with pytest.raises(ValueError, match="empty learn sample"):
            fit_ensemble(Dataset.from_arrays(np.empty((0, 1)), []), BoostConfig(n_trees=1))
        one_row = Dataset.from_arrays([[1.0]], [2.0])
        with pytest.raises(ValueError, match="empty learn sample"):
            fit_ensemble(one_row, BoostConfig(n_trees=1))

    def test_all_missing_response_rejected(self):
        class Raw:
            X = np.array([[1.0], [2.0]])
            y = np.array([np.nan, np.nan])
            feature_names = ("x0",)

        with pytest.raises(ValueError, match="no usable response values"):
            fit_ensemble(Raw(), BoostConfig(n_trees=1))

    def test_infinite_predictor_rejected_before_any_stage(self):
        """Dataset rejects the cell; data that is not a Dataset gets the fitter's check,
        not a model whose -inf threshold save_model cannot write."""
        data = SimpleNamespace(X=np.array([[-np.inf], [1.0], [2.0], [3.0]]), y=np.array([0.0, 10.0, 10.0, 10.0]),
                               feature_names=("x0",))
        with pytest.raises(ValueError, match="^predictor values must be finite where present$"):
            fit_ensemble(data, BoostConfig(n_trees=3, min_leaf_obs=1, subsample_fraction=1.0))

    def test_rows_with_missing_response_are_dropped(self):
        class Raw:
            X = np.array([[1.0], [2.0], [3.0], [4.0]])
            y = np.array([1.0, np.nan, 3.0, 4.0])
            feature_names = ("x0",)

        model = fit_ensemble(Raw(), BoostConfig(n_trees=0))
        assert model.f0 == pytest.approx((1.0 + 3.0 + 4.0) / 3.0)

    def test_zero_learn_rate_keeps_f0(self):
        ds = identity_toy()
        model = fit_ensemble(ds, BoostConfig(n_trees=25, learn_rate=0.0, subsample_fraction=1.0, min_leaf_obs=1))
        np.testing.assert_array_equal(predict_batch(model, ds.X), np.full(10, model.f0))

    def test_fixed_seed_bitwise_reproducible(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 20, 3, missing=True)
        cfg = BoostConfig(n_trees=120, learn_rate=0.05, max_nodes=6, min_leaf_obs=2, subsample_fraction=0.8, seed=77)
        a = fit_ensemble(ds, cfg)
        b = fit_ensemble(ds, cfg)
        assert a.f0 == b.f0
        assert a.gamma.tolist() == b.gamma.tolist()
        assert a.node_count.tolist() == b.node_count.tolist()
        for k in ("feature", "threshold", "value"):
            assert a.nodes[k].tolist() == b.nodes[k].tolist(), k

    def test_subsample_count_floor_and_minimum(self):
        # n=25, fraction 0.95 -> 23 rows per stage; tiny fractions draw 2
        ds = random_dataset(np.random.default_rng(1), 25, 2)
        model = fit_ensemble(ds, BoostConfig(n_trees=3, subsample_fraction=0.95, min_leaf_obs=1, seed=5))
        assert model.n_stages == 3
        tiny = fit_ensemble(ds, BoostConfig(n_trees=3, subsample_fraction=0.01, min_leaf_obs=1, seed=5))
        assert tiny.n_stages == 3  # stages exist; stumps are fine

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            n = int(rng.integers(4, 13))
            X = rng.uniform(-2, 2, size=(n, 2))
            y = rng.normal(size=n)
            ds = Dataset.from_arrays(X, y)
            cfg = BoostConfig(
                n_trees=int(rng.integers(1, 6)),
                learn_rate=0.3,
                max_nodes=3,
                min_leaf_obs=1,
                subsample_fraction=1.0,
                seed=1,
            )
            model = fit_ensemble(ds, cfg)
            f0, trees = naive_boost([list(r) for r in X], list(y), cfg.n_trees, 0.3, 3, 1)
            for i in range(n):
                mine = predict(model, X[i])
                ref = naive_boost_predict(f0, trees, 0.3, list(X[i]))
                assert mine == pytest.approx(ref, abs=1e-12)


def _nan_table():
    """40 x 8 table of exact decimals with 18 NaN cells and interacting features."""
    i = np.arange(40)[:, None]
    j = np.arange(8)[None, :]
    X = ((i * 7919 + j * 104729 + i * i * (j + 3)) % 997) / 10.0 - 40.0
    X[((i * 5 + j * 3) % 17 == 0) & (i > 0)] = np.nan
    Xf = np.nan_to_num(X)
    y = 5.0 + 0.3 * Xf[:, 0] - 0.2 * Xf[:, 1] + 0.01 * Xf[:, 2] * Xf[:, 3] + ((i[:, 0] * 31) % 7) / 4.0
    return Dataset.from_arrays(X, y)


def _standin():
    from brt.standin import load_bundled

    return load_bundled()


# sha256 of the saved model, computed before the split-search cache was
# written; it must change no byte. The flagship configuration (stand-in
# table, 3 NaN cells) meets the same row sets again and again; the 40-row
# table draws 32 rows per stage, so its searches are almost all misses.
GOLDEN_MODELS = [
    (_standin, BoostConfig(n_trees=300, seed=1), "35af5debca07665ac1e0642c55b0c34b80c4a1b2a40939717cbbda1f0dee7025"),
    (_standin, BoostConfig(n_trees=300, seed=2), "5f050997e8a935d103ad74b71619f348e74b9545192708372448a652c5960971"),
    (
        _nan_table,
        BoostConfig(n_trees=60, learn_rate=0.05, max_nodes=13, min_leaf_obs=2, subsample_fraction=0.8, seed=7),
        "adf50ad95ecfd841926f96dcb5e726f403e07ce5951a7cf1b4a6dfc5382328e3",
    ),
]


@pytest.mark.parametrize("make_data, config, digest", GOLDEN_MODELS, ids=["flagship-seed1", "flagship-seed2", "nan-13-node"])
def test_saved_model_bytes_match_golden_digest(make_data, config, digest):
    buf = io.StringIO()
    save_model(fit_ensemble(make_data(), config), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "make_data, config", [m[:2] for m in GOLDEN_MODELS], ids=["flagship-seed1", "flagship-seed2", "nan-13-node"]
)
def test_loaded_columns_equal_fitted_columns(make_data, config):
    """fit_ensemble writes each stage into columns and load_model builds them
    from the text; both must give the same arrays, and saving again the same bytes."""
    fitted = fit_ensemble(make_data(), config)
    buf = io.StringIO()
    save_model(fitted, buf)
    loaded = load_model(io.StringIO(buf.getvalue()))
    pairs = [(fitted.gamma, loaded.gamma), (fitted.node_count, loaded.node_count)]
    pairs += [(fitted.nodes[k], loaded.nodes[k]) for k in tree_module.NODE_FIELDS]
    for want, got in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(loaded.structure, fitted.structure)
    again = io.StringIO()
    save_model(loaded, again)
    assert again.getvalue() == buf.getvalue()


def test_fit_holds_one_copy_of_the_model(standin_fits):
    """Each stage goes into the columns as it is fitted: no tree object per
    stage is kept until the end, so doubling the stages doubles only the columns."""
    (small, peak_small), (large, peak_large) = standin_fits[2000], standin_fits[4000]
    assert_peak_flat(small, large, peak_small - column_bytes(small), peak_large - column_bytes(large))


@pytest.mark.parametrize("max_nodes, min_leaf, width", [(100_001, 3, 13), (100_001, 30, 1), (6, 1, 5)])
def test_columns_are_as_wide_as_the_data_allows(max_nodes, min_leaf, width):
    """A leaf holds at least min_leaf of the 23 subsample rows, so a large node
    budget allocates no more than those leaves need."""
    config = BoostConfig(n_trees=50, max_nodes=max_nodes, min_leaf_obs=min_leaf)
    model, peak = traced_peak(fit_ensemble, _standin(), config)
    assert model.nodes["feature"].shape == (50, width)
    assert peak < 2 << 20


@st.composite
def tables_and_configs(draw):
    """A small table with NaN cells and repeated values, and a config whose
    limits range over max_nodes 3-20 and min_leaf_obs 1-5."""
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 3))
    cell = st.one_of(st.just(math.nan), st.sampled_from([-1.0, 0.0, 2.5]), st.floats(-5.0, 5.0))
    X = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)), dtype=np.float64).reshape(n, d)
    y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    config = BoostConfig(
        n_trees=3,
        learn_rate=0.5,
        max_nodes=draw(st.integers(3, 20)),
        min_leaf_obs=draw(st.integers(1, 5)),
        subsample_fraction=draw(st.sampled_from([0.5, 0.8, 1.0])),
        seed=draw(st.integers(0, 3)),
    )
    return Dataset.from_arrays(X, y), config


@settings(max_examples=100, deadline=None)
@given(tables_and_configs())
def test_property_both_fits_stay_within_the_widest_tree(case):
    """fit_tree on n rows and fit_ensemble on subsamples of n_sub rows make no
    tree wider than TreeLimits.widest says."""
    ds, config = case
    limits, n = TreeLimits(config.max_nodes, config.min_leaf_obs), ds.n_rows
    assert fit_tree(ds.X, ds.y, limits).node_count <= limits.widest(n)
    model = fit_ensemble(ds, config)
    assert model.node_count.max() <= limits.widest(max(2, math.floor(config.subsample_fraction * n)))


def _fit(fitter, y, rows):
    """fitter.fit into fresh leaf-placeholder buffers: the node count, the
    buffers and each row's leaf."""
    width = fitter.limits.max_nodes
    out = {k: np.full(width, pad, dtype) for k, (dtype, pad) in tree_module.NODE_FIELDS.items()}
    count, leaf = fitter.fit(y, rows, out)
    return count, out, leaf


def _assert_same_fit(a, b):
    (count_a, out_a, leaf_a), (count_b, out_b, leaf_b) = a, b
    assert count_a == count_b
    for name, got, want in [*((k, out_a[k], out_b[k]) for k in tree_module.NODE_FIELDS), ("leaf", leaf_a, leaf_b)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def _row_sets(n, k, count, seed):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(count)]


def _info(fitter):
    return fitter._counts.cache_info()


def _largest_entry(fitter):
    """Bytes the fitter's counts cache charges for the entry of all its rows,
    from the arrays that the entry holds."""
    n = fitter.XT.shape[1]
    miss_bytes = np.add.reduce(np.isnan(fitter.XT), axis=1, dtype=np.float64).tobytes()
    _, num, den, miss, window = fitter._counts.__wrapped__(n, miss_bytes)
    return len(miss_bytes) + num.nbytes + den.nbytes + miss.nbytes + window.nbytes + 2 * tree_module._ENTRY_OVERHEAD


@pytest.mark.parametrize("make_data, k, limits", [(_standin, 23, TreeLimits(6, 3)), (_nan_table, 36, TreeLimits(13, 1))])
class TestSearchCache:
    def test_warm_fitter_gives_fresh_fitter_trees(self, make_data, k, limits, monkeypatch):
        data = make_data()
        rng = np.random.default_rng(4)
        jobs = [(rng.normal(size=data.n_rows), rows) for rows in _row_sets(data.n_rows, k, 40, 5)]
        monkeypatch.setattr(tree_module, "SEARCH_CACHE_BYTES", 1 << 25)  # room for every entry met
        warm = TreeFitter(data.X, limits)
        for y, rows in jobs:
            _fit(warm, y, rows)
        cold = _info(warm)
        for y, rows in jobs:
            _assert_same_fit(_fit(warm, y, rows), _fit(TreeFitter(data.X, limits), y, rows))
        # Every search of the second pass was a hit: nothing was built or dropped.
        after = _info(warm)
        assert after.hits > cold.hits and after.misses == cold.misses and after.currsize == cold.currsize

    def test_cache_past_its_bound_gives_fresh_fitter_trees(self, make_data, k, limits, monkeypatch):
        data = make_data()
        rng = np.random.default_rng(6)
        row_sets = _row_sets(data.n_rows, k, 12, 7)
        monkeypatch.setattr(tree_module, "SEARCH_CACHE_BYTES", 64_000)
        small = TreeFitter(data.X, limits)
        for _ in range(6):
            y = rng.normal(size=data.n_rows)
            for rows in row_sets:
                _assert_same_fit(_fit(small, y, rows), _fit(TreeFitter(data.X, limits), y, rows))
        info = _info(small)
        assert 0 < info.currsize <= info.maxsize < info.misses  # entries were dropped to stay in bound

    @pytest.mark.parametrize("budget", [1 << 14, 3 << 17, 1 << 20])
    def test_largest_entries_fit_each_share(self, make_data, k, limits, monkeypatch, budget):
        """The share of the counts cache is the whole budget."""
        monkeypatch.setattr(tree_module, "SEARCH_CACHE_BYTES", budget)
        fitter = TreeFitter(make_data().X, limits)
        info, entry = _info(fitter), _largest_entry(fitter)
        assert info.maxsize * entry <= budget < (info.maxsize + 1) * entry

    def test_budget_below_one_entry_caches_nothing(self, make_data, k, limits, monkeypatch):
        data = make_data()
        monkeypatch.setattr(tree_module, "SEARCH_CACHE_BYTES", _largest_entry(TreeFitter(data.X, limits)) - 1)
        bare = TreeFitter(data.X, limits)
        monkeypatch.undo()
        rng = np.random.default_rng(8)
        for rows in _row_sets(data.n_rows, k, 5, 9) * 2:
            y = rng.normal(size=data.n_rows)
            _assert_same_fit(_fit(bare, y, rows), _fit(TreeFitter(data.X, limits), y, rows))
        info = _info(bare)
        assert info.maxsize == info.currsize == info.hits == 0 < info.misses

    def test_fitter_is_freed_without_a_collection(self, make_data, k, limits):
        data = make_data()
        fitter = TreeFitter(data.X, limits)
        for rows in _row_sets(data.n_rows, k, 5, 10):
            _fit(fitter, data.y, rows)
        assert _info(fitter).currsize > 0
        ref = weakref.ref(fitter)
        del fitter
        assert ref() is None


def test_fitters_on_different_tables_share_no_entry():
    """Two fitters on tables of one shape meet the same counts keys; each keeps its own."""
    data = _standin()
    limits = TreeLimits(6, 3)
    X_a, X_b = data.X, data.X[::-1].copy()
    a, b = TreeFitter(X_a, limits), TreeFitter(X_b, limits)
    rng = np.random.default_rng(11)
    jobs = [(rng.normal(size=data.n_rows), rows) for rows in _row_sets(data.n_rows, 23, 10, 12)]
    for y, rows in jobs:
        _assert_same_fit(_fit(a, y, rows), _fit(TreeFitter(X_a, limits), y, rows))
    seen, alone = _info(a), TreeFitter(X_b, limits)
    for y, rows in jobs:
        _assert_same_fit(_fit(b, y, rows), _fit(TreeFitter(X_b, limits), y, rows))
        _fit(alone, y, rows)
    assert _info(a) == seen and _info(b) == _info(alone)


def test_fit_ensemble_builds_no_tree_and_routes_no_batch(monkeypatch):
    """The fitter writes each stage into the columns and hands back the rows'
    leaves: no RegressionTree is made and no batch routed again."""
    want = fit_ensemble(_nan_table(), BoostConfig(n_trees=30, max_nodes=13, min_leaf_obs=1, seed=5))

    def refuse(*args, **kwargs):
        raise AssertionError("fit_ensemble built or routed a RegressionTree")

    monkeypatch.setattr(RegressionTree, "__init__", refuse)
    monkeypatch.setattr(RegressionTree, "leaf_assignments", refuse)
    got = fit_ensemble(_nan_table(), BoostConfig(n_trees=30, max_nodes=13, min_leaf_obs=1, seed=5))
    for name in ("gamma", "node_count"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in tree_module.NODE_FIELDS:
        assert got.nodes[name].tobytes() == want.nodes[name].tobytes(), name


@pytest.fixture(scope="module")
def model():
    ds = identity_toy()
    fitted = fit_ensemble(
        ds,
        BoostConfig(n_trees=40, learn_rate=0.2, max_nodes=3, min_leaf_obs=1, subsample_fraction=1.0, seed=9),
    )
    return fitted, ds


class TestPredict:
    def test_zero_stages_is_f0(self, model):
        m, _ = model
        assert predict(m, [4.0], n_stages=0) == m.f0

    def test_single_stage_hand_example(self):
        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [4.0], [0.0], 1)
        model = model_of([(stump, 1.0)], BoostConfig(n_trees=1, learn_rate=0.5, min_leaf_obs=1), ("x0",), f0=1.0)
        assert predict(model, [0.0]) == 1.0 + 0.5 * 4.0

    def test_arity_mismatch(self, model):
        m, _ = model
        for sample in ([1.0, 2.0], 1.0, [], [[1.0]], np.ones((1, 1, 1))):
            with pytest.raises(ValueError, match="^feature count mismatch$"):
                predict(m, sample)
        with pytest.raises(ValueError, match="feature count mismatch"):
            predict_batch(m, np.zeros((3, 2)))

    def test_batch_matches_scalar_bitwise(self, model):
        m, ds = model
        batch = predict_batch(m, ds.X)
        for i in range(ds.n_rows):
            assert batch[i] == predict(m, ds.X[i])

    def test_n_stages_prefix(self, model):
        m, ds = model
        full = predict(m, [5.0])
        assert predict(m, [5.0], n_stages=m.n_stages) == full
        with pytest.raises(ValueError):
            predict(m, [5.0], n_stages=m.n_stages + 1)

    def test_n_stages_must_be_an_integer(self, model):
        m, ds = model
        assert predict_batch(m, ds.X, np.int64(2)).tobytes() == predict_batch(m, ds.X, 2).tobytes()
        assert predict(m, [5.0], n_stages=np.uint8(2)) == predict(m, [5.0], n_stages=2)
        for k in (2.5, 2.0, True, np.bool_(True), "2", np.float64(2.0)):
            with pytest.raises(ValueError, match="n_stages must be an integer"):
                predict_batch(m, ds.X, k)
            with pytest.raises(ValueError, match="n_stages must be an integer"):
                predict(m, [5.0], n_stages=k)


class TestStagedMetric:
    def test_constant_response_zero_mse(self):
        ds = Dataset.from_arrays(np.arange(6.0)[:, None], np.full(6, 3.0))
        model = fit_ensemble(ds, BoostConfig(n_trees=10, learn_rate=0.5, min_leaf_obs=1, subsample_fraction=1.0))
        curve = staged_metric(model, ds, metric="mse", stride=1)
        assert [v for _, v in curve.points] == [0.0] * 10

    def test_stride_and_final_point(self):
        ds = identity_toy()
        model = fit_ensemble(ds, BoostConfig(n_trees=25, learn_rate=0.1, min_leaf_obs=1, subsample_fraction=1.0))
        curve = staged_metric(model, ds, metric="mse", stride=10)
        assert [k for k, _ in curve.points] == [10, 20, 25]
        assert staged_metric(model, ds, stride=np.int64(10)) == staged_metric(model, ds, stride=10)

    @pytest.mark.parametrize("stride", [2.5, 3.0, "3", True, np.float64(3.0)])
    def test_stride_must_be_an_integer(self, stride):
        ds = identity_toy()
        model = fit_ensemble(ds, BoostConfig(n_trees=20, learn_rate=0.1, min_leaf_obs=1, subsample_fraction=1.0))
        with pytest.raises(ValueError, match=f"^stride must be an integer, got {re.escape(repr(stride))}$"):
            staged_metric(model, ds, stride=stride)

    def test_r2_curve_increases_to_one(self):
        ds = identity_toy()
        model = fit_ensemble(
            ds, BoostConfig(n_trees=500, learn_rate=0.2, max_nodes=3, min_leaf_obs=1, subsample_fraction=1.0)
        )
        curve = staged_metric(model, ds, metric="r2", stride=100)
        values = [v for _, v in curve.points]
        assert values[-1] > 0.99
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_mse_curve_equals_prefix_predictions_bitwise(self):
        ds = random_dataset(np.random.default_rng(5), 15, 3, missing=True)
        cfg = BoostConfig(n_trees=30, learn_rate=0.3, min_leaf_obs=2, subsample_fraction=0.8, seed=4)
        model = fit_ensemble(ds, cfg)
        curve = staged_metric(model, ds, metric="mse", stride=1)
        assert [k for k, _ in curve.points] == list(range(1, 31))
        for k, mse in curve.points:
            assert mse == ((ds.y - predict_batch(model, ds.X, n_stages=k)) ** 2).sum() / ds.n_rows

    def test_unknown_metric(self):
        ds = identity_toy()
        model = fit_ensemble(ds, BoostConfig(n_trees=1, min_leaf_obs=1))
        with pytest.raises(ValueError):
            staged_metric(model, ds, metric="mad")

    @pytest.mark.parametrize(
        "X, y, message",
        [
            (np.zeros((3, 2)), [1.0, 2.0, 3.0], "feature count mismatch"),
            (np.zeros(3), [1.0, 2.0, 3.0], "feature count mismatch"),
            (np.zeros((3, 1)), [np.nan, np.inf, -np.inf], "no usable response values"),
        ],
    )
    def test_unusable_data_rejected(self, X, y, message):
        model = fit_ensemble(identity_toy(), BoostConfig(n_trees=3, min_leaf_obs=1))
        with pytest.raises(ValueError, match=message):
            staged_metric(model, SimpleNamespace(X=X, y=y))


def _structure_key(tree):
    return b"".join(a.tobytes() for a in (tree.feature, tree.threshold, tree.missing_right, tree.left, tree.right))


def _stage_loop(model, X, k):
    """Reference sum, one whole tree at a time: f0 + sum (lr*gamma_m) * tree_m(X)."""
    acc = np.full(X.shape[0], model.f0)
    for tree, gamma in stage_trees(model)[:k]:
        acc += (model.config.learn_rate * gamma) * tree.predict_batch(X)
    return acc


def _assert_every_prefix_matches_stage_loop(model, X):
    for k in range(model.n_stages + 1):
        np.testing.assert_array_equal(predict_batch(model, X, n_stages=k), _stage_loop(model, X, k))


@pytest.fixture(scope="module")
def standin_model():
    from brt.standin import load_bundled

    data = load_bundled()
    return fit_ensemble(data, BoostConfig(n_trees=150, learn_rate=0.01, seed=3)), data


def _tree(feature, threshold, missing_right, value):
    """Tree whose split nodes take children in creation order (1, 2), (3, 4), ..."""
    n = len(feature)
    left, right, nxt = [-1] * n, [-1] * n, 1
    for i, f in enumerate(feature):
        if f >= 0:
            left[i], right[i], nxt = nxt, nxt + 1, nxt + 2
    return RegressionTree(feature, threshold, missing_right, left, right, value, [0.0] * n, 2)


class TestPackedPrediction:
    def test_standin_model_reuses_structures_and_matches_stage_loop(self, standin_model):
        model, data = standin_model
        assert len({_structure_key(t) for t, _ in stage_trees(model)}) < model.n_stages / 2
        X = np.vstack([data.X, np.where(np.eye(data.X.shape[1], dtype=bool), np.nan, data.X[0])])
        _assert_every_prefix_matches_stage_loop(model, X)

    def test_mixed_node_counts_and_missing_both_ways_match_stage_loop(self):
        a = ([0, -1, -1], [0.5, 0.0, 0.0], [True, False, False])  # missing goes right
        b = ([1, 0, -1, -1, -1], [-1.0, 2.0, 0.0, 0.0, 0.0], [False, False, False, False, False])  # left
        leaf = ([-1], [0.0], [False])
        trees = [
            _tree(*a, [0.0, -1.5, 2.25]),
            _tree(*b, [0.0, 0.0, 3.0, -0.75, 1.0 / 3.0]),
            _tree(*leaf, [0.7]),
            _tree(*a, [0.0, 4.5, -0.1]),
            _tree(*b, [0.0, 0.0, 1e-3, 2.0, -5.0]),
            _tree(*a, [0.0, 0.3, 0.9]),
            _tree(*leaf, [-0.2]),
        ]
        gammas = (1.0, 0.9, 1.1, 1.0 + 2**-40, 0.3, 2.0, 1.0)
        config = BoostConfig(n_trees=len(trees), learn_rate=0.37)
        model = model_of(list(zip(trees, gammas)), config, ("x0", "x1"), f0=0.25)
        nan, inf = np.nan, np.inf
        X = np.array([
            [nan, nan], [0.5, -1.0], [2.0, 2.0], [nan, -3.0], [4.0, nan],
            [-inf, inf], [inf, -inf], [0.0, nan], [nan, 0.0], [2.5, -1.0],
        ])
        _assert_every_prefix_matches_stage_loop(model, X)
        _assert_every_prefix_matches_stage_loop(model, X[:0])
        # the rows above send a missing value right at tree a's root and left at tree b's
        assert trees[0].leaf_assignments(np.array([[nan, 5.0]])).tolist() == [2]
        assert trees[1].leaf_assignments(np.array([[5.0, nan]])).tolist() == [4]

    def test_routes_each_distinct_structure_once_per_call(self, standin_model, monkeypatch):
        model, data = standin_model
        calls = []  # per block routed: the ROUTING row of each structure in it, and the rows routed
        build = boosting._fail_mask

        def counted(columns, V, cols):
            rows = zip(*(columns[k] for k in ROUTING))
            calls.append(([b"".join(a.tobytes() for a in row) for row in rows], len(V)))
            return build(columns, V, cols)

        monkeypatch.setattr(boosting, "_fail_mask", counted)
        for k in (model.n_stages, model.n_stages, 40, 1, 0):
            calls.clear()
            predict_batch(model, data.X, n_stages=k)
            routed = [key for block, _ in calls for key in block]
            assert len(routed) == len(set(routed)) == len({_structure_key(t) for t, _ in stage_trees(model)[:k]})
            assert all(rows == data.n_rows for _, rows in calls)
        calls.clear()
        staged_metric(model, data, stride=1)
        routed = [key for block, _ in calls for key in block]
        assert len(routed) == len(set(routed)) == len({_structure_key(t) for t, _ in stage_trees(model)})

    def test_prediction_builds_no_tree(self, standin_model, monkeypatch):
        model, data = standin_model
        want = predict_batch(model, data.X).tobytes(), staged_metric(model, data).points

        def refuse(*args, **kwargs):
            raise AssertionError("prediction built a RegressionTree")

        monkeypatch.setattr(RegressionTree, "__init__", refuse)
        assert (predict_batch(model, data.X).tobytes(), staged_metric(model, data).points) == want
        assert predict(model, data.X[0]) == predict_batch(model, data.X)[0]

    def test_stages_view_is_row_m_of_the_columns(self, standin_model, monkeypatch):
        model, _ = standin_model
        built = []

        class Counted(RegressionTree):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(boosting, "RegressionTree", Counted)
        stages = model.stages
        assert iter(stages) is stages and model.stages is not stages and not built  # a new, lazy generator
        for m, stage in enumerate(stages):
            assert len(built) == m + 1  # one Stage made per step
            assert stage._fields == ("tree", "gamma") and stage == (stage.tree, stage.gamma)
            assert stage.gamma == model.gamma[m] and stage.tree.n_features == model.n_features
            for k in tree_module.NODE_FIELDS:
                got, want = getattr(stage.tree, k), model.nodes[k][m, : model.node_count[m]]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, k)
        assert m == model.n_stages - 1
        assert [s.gamma for s in model.stages] == model.gamma.tolist()


def _tiled(model, n_stages):
    """The model whose stage m is `model`'s stage m mod its stage count, built from its columns."""
    m = np.arange(n_stages) % model.n_stages
    nodes = {k: c[m] for k, c in model.nodes.items()}
    return BoostedModel(model.f0, model.config, model.feature_names, model.gamma[m], model.node_count[m], nodes)


class TestStructureIds:
    def test_ids_match_a_dict_reference_without_a_transient_that_grows(self, standin_model):
        model, _ = standin_model
        large = _tiled(model, 40_000)
        ids: dict = {}
        want = [
            ids.setdefault((int(large.node_count[m]), *(large.nodes[k][m].tobytes() for k in ROUTING)), len(ids))
            for m in range(large.n_stages)
        ]
        extra = {}  # peak bytes beyond the ids returned
        for tiled in (_tiled(model, 20_000), large):
            structure, peak = traced_peak(lambda: tiled.structure)
            assert structure.tolist() == want[: tiled.n_stages]
            extra[tiled.n_stages] = peak - structure.nbytes
        # a key row and its bytes per stage, held for all stages at once, would add about 9 MB here
        assert extra[40_000] - extra[20_000] < BLOCK_CELLS, extra

    def test_structure_tables_rows_are_first_use_stages(self, standin_model):
        model, _ = standin_model
        for m in (model, _tiled(model, 0)):
            first: dict = {}
            for stage, sid in enumerate(m.structure.tolist()):
                first.setdefault(sid, stage)
            rows = list(first.values())
            tables = m.structure_tables
            assert len(rows) == len(tables["feature"]) == m.structure.max(initial=-1) + 1
            for k in ("feature", "threshold", "missing_right"):
                np.testing.assert_array_equal(tables[k], m.nodes[k][rows])
            filled = np.arange(m.nodes["feature"].shape[1]) < m.node_count[rows][:, None]
            np.testing.assert_array_equal(tables["leaf"], (m.nodes["feature"][rows] < 0) & filled)
