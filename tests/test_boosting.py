import numpy as np
import pytest

from brt.boosting import (
    BoostConfig,
    fit_ensemble,
    line_search_gamma,
    predict,
    predict_batch,
    staged_metric,
)
from brt.data import Dataset
from brt.tree import RegressionTree

from conftest import random_dataset
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
        with pytest.raises(ValueError):
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
        for sa, sb in zip(a.stages, b.stages):
            assert sa.gamma == sb.gamma
            assert sa.tree.feature.tolist() == sb.tree.feature.tolist()
            assert sa.tree.threshold.tolist() == sb.tree.threshold.tolist()
            assert sa.tree.value.tolist() == sb.tree.value.tolist()

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
        from brt.boosting import BoostedModel, Stage

        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [4.0], [0.0], 1)
        model = BoostedModel(
            f0=1.0,
            stages=(Stage(stump, 1.0),),
            config=BoostConfig(n_trees=1, learn_rate=0.5, min_leaf_obs=1),
            feature_names=("x0",),
        )
        assert predict(model, [0.0]) == 1.0 + 0.5 * 4.0

    def test_arity_mismatch(self, model):
        m, _ = model
        with pytest.raises(ValueError, match="feature count mismatch"):
            predict(m, [1.0, 2.0])
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
