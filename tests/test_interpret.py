import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt import boosting, interpret
from brt.boosting import BoostConfig, BoostedModel, fit_ensemble, predict, predict_batch, staged_metric
from brt.data import Dataset
from brt.interpret import (
    interaction_report,
    overall_interaction,
    pairwise_interaction,
    partial_dependence_1d,
    partial_dependence_2d,
    relative_influence,
)
from brt.model_io import load_model, save_model
from brt.tree import RegressionTree

from conftest import lattice_dataset, model_of, random_dataset, stage_trees
from oracles import naive_flat_leaf, naive_interaction, naive_pd_1d, naive_pd_2d, stage_influence
from test_boosting import GOLDEN_MODELS


def make_manual_model(trees_gammas, n_features, lr=1.0, f0=0.0):
    names = tuple(f"x{i}" for i in range(n_features))
    cfg = BoostConfig(n_trees=len(trees_gammas), learn_rate=lr, min_leaf_obs=1)
    return model_of(trees_gammas, cfg, names, f0=f0)


def split_tree(feature, threshold, left_val, right_val, n_features, improvement=1.0):
    return RegressionTree(
        feature=[feature, -1, -1],
        threshold=[threshold, 0.0, 0.0],
        missing_right=[False, False, False],
        left=[1, -1, -1],
        right=[2, -1, -1],
        value=[0.0, left_val, right_val],
        improvement=[improvement, 0.0, 0.0],
        n_features=n_features,
    )


# Values for default grids: repeats, both signed zeros, subnormals, and cells the grid drops.
GRID_CELLS = (0.0, -0.0, 1.5, -2.25, 1e-310, -1e-310, 7.0, float("nan"), float("inf"), float("-inf"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(GRID_CELLS), st.floats(width=16)), min_size=1, max_size=40))
def test_default_grid_is_bit_equal_to_np_unique(cells):
    col = np.array(cells)
    finite = col[np.isfinite(col)]
    if finite.size == 0:
        with pytest.raises(ValueError, match="fully missing"):
            interpret._resolve_grid(col[:, None], 0, None, "x")
        return
    got, want = interpret._resolve_grid(col[:, None], 0, None, "x"), np.unique(finite)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_default_grid_keeps_the_signed_zero_np_unique_keeps():
    for cells in ([0.0, -0.0], [-0.0, 0.0], [0.0, 1.0, -0.0, 0.0, -0.0]):
        col = np.array(cells)
        assert interpret._resolve_grid(col[:, None], 0, None, "x").tobytes() == np.unique(col).tobytes()


class TestRelativeInfluence:
    def test_single_feature_gets_everything(self):
        model = make_manual_model([(split_tree(0, 0.5, -1.0, 1.0, 2), 1.0)] * 3, 2)
        rep = relative_influence(model)
        assert rep.percent == (100.0, 0.0)

    def test_normalisation_arithmetic(self):
        trees = [
            (split_tree(0, 0.5, -1, 1, 2, improvement=30.0), 1.0),
            (split_tree(1, 0.5, -1, 1, 2, improvement=10.0), 1.0),
        ]
        rep = relative_influence(make_manual_model(trees, 2))
        assert rep.percent[0] == pytest.approx(75.0)
        assert rep.percent[1] == pytest.approx(25.0)
        assert sum(rep.percent) == pytest.approx(100.0, abs=1e-9)

    def test_no_splits_anywhere_rejected(self):
        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [2.0], [0.0], 2)
        with pytest.raises(ValueError, match="no splits to attribute"):
            relative_influence(make_manual_model([(stump, 1.0)], 2))

    def test_sums_to_100_on_fitted_models(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            ds = random_dataset(rng, 20, 4, missing=True)
            model = fit_ensemble(
                ds, BoostConfig(n_trees=50, learn_rate=0.2, min_leaf_obs=2, subsample_fraction=0.85, seed=6)
            )
            rep = relative_influence(model)
            assert sum(rep.percent) == pytest.approx(100.0, abs=1e-9)
            assert all(p >= 0 for p in rep.percent)

    def test_ranked_ordering(self):
        trees = [
            (split_tree(1, 0.5, -1, 1, 3, improvement=5.0), 1.0),
            (split_tree(2, 0.5, -1, 1, 3, improvement=15.0), 1.0),
        ]
        rep = relative_influence(make_manual_model(trees, 3))
        assert [name for name, _ in rep.ranked()] == ["x2", "x1", "x0"]


    def test_builds_no_tree_and_sums_the_columns_once(self, monkeypatch):
        model = fit_ensemble(random_dataset(np.random.default_rng(8), 30, 3), BoostConfig(n_trees=40, seed=2))
        want = relative_influence(model)
        calls = []
        real = interpret.split_improvements

        def counted(*args):
            calls.append(args)
            return real(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("relative_influence built a RegressionTree")

        monkeypatch.setattr(interpret, "split_improvements", counted)
        monkeypatch.setattr(RegressionTree, "__init__", refuse)
        assert relative_influence(model) == want
        assert len(calls) == 1


def _one_feature_data():
    rng = np.random.default_rng(21)
    return Dataset.from_arrays(rng.uniform(-1.0, 1.0, size=(30, 1)), rng.normal(size=30))


# The golden fits (the 13-node one splits twice on one feature in 59 of its 60
# trees) and a one-feature fit, whose totals are a single column: numpy sums a
# column of 100 or more stages pairwise unless asked for a running sum.
INFLUENCE_FITS = [m[:2] for m in GOLDEN_MODELS] + [
    (_one_feature_data, BoostConfig(n_trees=400, learn_rate=0.1, max_nodes=13, min_leaf_obs=1, seed=4))
]


@pytest.mark.parametrize("make_data, config", INFLUENCE_FITS, ids=["flagship-seed1", "flagship-seed2", "nan-13-node", "one-feature"])
def test_influence_totals_bit_equal_the_per_stage_oracle(make_data, config):
    model = fit_ensemble(make_data(), config)
    stages = [
        (model.nodes["feature"][m, :count].tolist(), model.nodes["improvement"][m, :count].tolist())
        for m, count in enumerate(model.node_count.tolist())
    ]
    want = np.array(stage_influence(stages, model.n_features))
    got = interpret.split_improvements(model.nodes["feature"], model.nodes["improvement"], model.n_features)
    assert got.tobytes() == want.tobytes()
    assert relative_influence(model).percent == tuple((100.0 * want / float(want.sum())).tolist())
    if config.max_nodes == 13 and model.n_features > 1:
        assert any(np.bincount(row[row >= 0]).max() > 1 for row in model.nodes["feature"])


class TestPartialDependence:
    def test_constant_model_flat_profile(self):
        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [0.0], [0.0], 2)
        model = make_manual_model([(stump, 1.0)], 2, f0=4.0)
        ds = Dataset.from_arrays(np.random.default_rng(0).uniform(size=(10, 2)), np.zeros(10))
        profile = partial_dependence_1d(model, 0, ds)
        np.testing.assert_allclose(profile.values, 0.0, atol=1e-15)

    def test_identity_model_returns_centered_grid(self):
        # model output = x0 exactly, via two stumps? simplest: deep manual tree set
        ds = lattice_dataset(lambda a, b: a, lo=0.0, hi=2.0, side=5)
        model = fit_ensemble(
            ds, BoostConfig(n_trees=2500, learn_rate=0.1, max_nodes=3, min_leaf_obs=1, subsample_fraction=1.0, seed=3)
        )
        profile = partial_dependence_1d(model, 0, ds)
        centered_grid = profile.grid - profile.grid.mean()
        np.testing.assert_allclose(profile.values, centered_grid, atol=5e-3)

    def test_additive_structure_separates_in_profiles(self):
        # y = x1 + x2^2 with no noise: the x1 profile comes back essentially
        # linear with unit slope while the x2 profile does not
        rng = np.random.default_rng(14)
        X = rng.uniform(-1.5, 1.5, size=(25, 2))
        y = X[:, 0] + X[:, 1] ** 2
        ds = Dataset.from_arrays(X, y)
        model = fit_ensemble(
            ds, BoostConfig(n_trees=3000, learn_rate=0.1, max_nodes=3, min_leaf_obs=1, subsample_fraction=1.0, seed=2)
        )

        def line_fit(profile):
            A = np.vstack([profile.grid, np.ones_like(profile.grid)]).T
            coef, *_ = np.linalg.lstsq(A, profile.values, rcond=None)
            resid = profile.values - A @ coef
            sst = float(np.sum((profile.values - profile.values.mean()) ** 2))
            return coef[0], 1.0 - float(np.sum(resid**2)) / sst

        slope_0, linearity_0 = line_fit(partial_dependence_1d(model, 0, ds))
        _, linearity_1 = line_fit(partial_dependence_1d(model, 1, ds))
        assert slope_0 == pytest.approx(1.0, abs=0.1)
        assert linearity_0 > 0.8
        assert linearity_1 < 0.5  # the squared column is anything but a line

    def test_profile_centres_to_zero_and_grid_in_range(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 15, 3, missing=True)
        model = fit_ensemble(ds, BoostConfig(n_trees=40, learn_rate=0.3, min_leaf_obs=2, subsample_fraction=1.0))
        for j in range(3):
            p = partial_dependence_1d(model, j, ds)
            assert abs(float(p.values.mean())) < 1e-9
            col = ds.X[:, j]
            finite = col[np.isfinite(col)]
            assert p.grid.min() >= finite.min() and p.grid.max() <= finite.max()
            assert np.all(np.diff(p.grid) > 0)

    def test_linear_grid_spec(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 12, 2)
        model = fit_ensemble(ds, BoostConfig(n_trees=10, learn_rate=0.3, min_leaf_obs=2, subsample_fraction=1.0))
        p = partial_dependence_1d(model, 0, ds, grid_spec=7)
        assert len(p.grid) == 7
        with pytest.raises(ValueError):
            partial_dependence_1d(model, 0, ds, grid_spec=1)

    def test_fully_missing_feature_rejected(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0], [np.nan, 3.0], [np.nan, 4.0]])
        ds = Dataset.from_arrays(X, [1.0, 2.0, 3.0, 4.0])
        model = fit_ensemble(ds, BoostConfig(n_trees=5, learn_rate=0.5, min_leaf_obs=1, subsample_fraction=1.0))
        with pytest.raises(ValueError, match="fully missing"):
            partial_dependence_1d(model, 0, ds)

    def test_surface_of_additive_model_equals_profile_sum(self, additive_lattice_model):
        model, ds = additive_lattice_model
        surf = partial_dependence_2d(model, 0, 1, ds)
        p0 = partial_dependence_1d(model, 0, ds)
        p1 = partial_dependence_1d(model, 1, ds)
        recon = p0.values[:, None] + p1.values[None, :]
        recon = recon - recon.mean()
        np.testing.assert_allclose(surf.values, recon, atol=1e-9)
        assert abs(float(surf.values.mean())) < 1e-9
        assert np.all(np.isfinite(surf.values))

    def test_surface_same_feature_rejected(self, additive_lattice_model):
        model, ds = additive_lattice_model
        with pytest.raises(ValueError, match="features must differ"):
            partial_dependence_2d(model, 1, 1, ds)

    def test_multiplicative_surface_not_additive(self, multiplicative_lattice_model):
        model, ds = multiplicative_lattice_model
        surf = partial_dependence_2d(model, 0, 1, ds)
        p0 = partial_dependence_1d(model, 0, ds)
        p1 = partial_dependence_1d(model, 1, ds)
        recon = p0.values[:, None] + p1.values[None, :]
        recon = recon - recon.mean()
        assert float(np.max(np.abs(surf.values - recon))) > 0.1

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            ds = random_dataset(rng, 8, 3, missing=True)
            model = fit_ensemble(
                ds, BoostConfig(n_trees=12, learn_rate=0.4, min_leaf_obs=1, subsample_fraction=1.0, seed=2)
            )
            keep = np.isfinite(ds.y)
            rows = [list(r) for r in ds.X[keep]]

            def predict_fn(row):
                return predict(model, row)

            p = partial_dependence_1d(model, 1, ds)
            ref = naive_pd_1d(predict_fn, rows, 1, list(p.grid))
            np.testing.assert_allclose(p.values, ref, atol=1e-12)

            s = partial_dependence_2d(model, 0, 2, ds)
            ref2 = naive_pd_2d(predict_fn, rows, 0, 2, list(s.grid_j), list(s.grid_k))
            np.testing.assert_allclose(s.values, np.asarray(ref2), atol=1e-12)


class TestInteractions:
    def test_additive_fit_scores_zero(self, additive_lattice_model):
        model, ds = additive_lattice_model
        score = pairwise_interaction(model, 0, 1, ds)
        assert score == pytest.approx(0.0, abs=1e-9)
        assert score < 2.0

    def test_multiplicative_fit_scores_high(self, multiplicative_lattice_model):
        model, ds = multiplicative_lattice_model
        assert pairwise_interaction(model, 0, 1, ds) > 10.0

    def test_symmetry_is_exact(self, multiplicative_lattice_model):
        model, ds = multiplicative_lattice_model
        assert pairwise_interaction(model, 0, 1, ds) == pairwise_interaction(model, 1, 0, ds)

    def test_same_feature_rejected(self, additive_lattice_model):
        model, ds = additive_lattice_model
        with pytest.raises(ValueError, match="features must differ"):
            pairwise_interaction(model, 1, 1, ds)

    @pytest.mark.parametrize("j, k", [(0, 2), (-1, 0)])
    def test_feature_out_of_range_rejected(self, additive_lattice_model, j, k):
        model, ds = additive_lattice_model
        with pytest.raises(ValueError, match="out of range"):
            pairwise_interaction(model, j, k, ds)

    def test_tree_additive_model_scores_exact_zero(self):
        # no single tree splits on both features: decomposition is exact
        trees = [
            (split_tree(0, 0.4, -2.0, 2.0, 2), 1.0),
            (split_tree(1, 0.6, -1.0, 1.0, 2), 0.5),
            (split_tree(0, 0.7, -0.5, 0.5, 2), 1.0),
        ]
        model = make_manual_model(trees, 2, lr=1.0, f0=0.5)
        rng = np.random.default_rng(1)
        ds = Dataset.from_arrays(rng.uniform(size=(12, 2)), rng.uniform(size=12))
        assert pairwise_interaction(model, 0, 1, ds) == pytest.approx(0.0, abs=1e-9)

    def test_constant_model_degenerate(self):
        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [0.0], [0.0], 2)
        model = make_manual_model([(stump, 1.0)], 2, f0=3.0)
        ds = Dataset.from_arrays(np.random.default_rng(0).uniform(size=(6, 2)), np.ones(6))
        with pytest.raises(ValueError, match="degenerate model: no output variation"):
            pairwise_interaction(model, 0, 1, ds)

    def test_two_feature_overall_equals_single_pairwise(self, multiplicative_lattice_model):
        model, ds = multiplicative_lattice_model
        pair = pairwise_interaction(model, 0, 1, ds)
        overall = overall_interaction(model, ds)
        assert overall[0] == pytest.approx(pair, rel=1e-12)
        assert overall[1] == pytest.approx(pair, rel=1e-12)

    def test_additive_overall_small(self, additive_lattice_model):
        model, ds = additive_lattice_model
        overall = overall_interaction(model, ds)
        assert all(v < 4.0 for v in overall.values())

    def test_report_consistency_and_ranking(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 2, size=(20, 3))
        y = X[:, 0] * X[:, 1] + 0.3 * X[:, 2]
        ds = Dataset.from_arrays(X, y)
        model = fit_ensemble(
            ds, BoostConfig(n_trees=800, learn_rate=0.1, max_nodes=6, min_leaf_obs=1, subsample_fraction=1.0, seed=9)
        )
        rep = interaction_report(model, ds)
        assert set(rep.pairwise) == {(0, 1), (0, 2), (1, 2)}
        for (a, b), score in rep.pairwise.items():
            assert score == pytest.approx(pairwise_interaction(model, a, b, ds), rel=1e-12)
        assert rep.overall[0] == pytest.approx(rep.pairwise[(0, 1)] + rep.pairwise[(0, 2)], rel=1e-12)
        top_pair, _ = rep.pairwise_ranked()[0]
        assert top_pair == (0, 1)

    def test_response_denominator_option(self, multiplicative_lattice_model):
        model, ds = multiplicative_lattice_model
        a = pairwise_interaction(model, 0, 1, ds, denominator="model")
        b = pairwise_interaction(model, 0, 1, ds, denominator="response")
        assert a > 10 and b > 10
        assert a != b  # different normalisations
        with pytest.raises(ValueError):
            pairwise_interaction(model, 0, 1, ds, denominator="other")


def two_split_tree(f_root, f_child, n_features):
    """Root splits on f_root; its left child splits on f_child (NaN sent right)."""
    return RegressionTree(
        feature=[f_root, f_child, -1, -1, -1],
        threshold=[0.5, 0.3, 0.0, 0.0, 0.0],
        missing_right=[False, True, False, False, False],
        left=[1, 3, -1, -1, -1],
        right=[2, 4, -1, -1, -1],
        value=[0.0, 0.0, 1.5, -1.0, 2.0],
        improvement=[1.0, 1.0, 0.0, 0.0, 0.0],
        n_features=n_features,
    )


def split_features(feature) -> tuple[int, ...]:
    """The features a tree or structure splits on, from its feature array."""
    return tuple(sorted(set(feature[feature >= 0].tolist())))


class TestInteractionsPerStructure:
    """Scores come from the trees that split on both features only; they
    must still equal the brute-force definition."""

    def test_report_and_pairwise_match_naive_loops(self):
        split_counts, unshared = set(), 0
        for seed in (1, 2):
            ds = random_dataset(np.random.default_rng(seed), 12, 5, missing=True)
            rows = [list(r) for r in ds.X]
            for max_nodes in (6, 13):
                cfg = dict(n_trees=15, learn_rate=0.3, min_leaf_obs=1, subsample_fraction=0.8, seed=seed + 1)
                model = fit_ensemble(ds, BoostConfig(max_nodes=max_nodes, **cfg))
                trees = stage_trees(model)
                split_counts |= {len(split_features(t.feature)) for t, _ in trees}
                shared = {p for t, _ in trees for p in itertools.combinations(split_features(t.feature), 2)}
                lr = model.config.learn_rate
                walk = []  # per stage: the flat tree as lists, and its scaled leaf values
                for t, gamma in trees:
                    arrays = [a.tolist() for a in (t.feature, t.threshold, t.missing_right, t.left, t.right)]
                    walk.append((arrays, (lr * gamma) * t.value))

                def predict_fn(row):
                    acc = model.f0
                    for arrays, values in walk:
                        acc += values[naive_flat_leaf(*arrays, row)]
                    return acc

                refs = {"model": [predict_fn(r) for r in rows], "response": list(ds.y)}
                for denominator, ref in refs.items():
                    rep = interaction_report(model, ds, denominator)
                    for (j, k), score in rep.pairwise.items():
                        want = naive_interaction(predict_fn, rows, j, k, ref)
                        assert abs(score - want) <= 1e-12 * max(1.0, abs(want)), (seed, max_nodes, j, k)
                        assert pairwise_interaction(model, k, j, ds, denominator) == score
                        if (j, k) not in shared:
                            assert score == 0.0
                unshared += len(rep.pairwise) - len(shared)
        assert split_counts == {1, 2, 3, 4, 5}
        assert unshared > 0

    @pytest.fixture()
    def routed(self, monkeypatch):
        """(split features of each structure in the block, rows) of every block
        that prediction routes."""
        calls = []
        original = boosting._fail_mask

        def counting(columns, V, cols):
            calls.append(([split_features(row) for row in columns["feature"]], V.shape[0]))
            return original(columns, V, cols)

        monkeypatch.setattr(boosting, "_fail_mask", counting)
        return calls

    @pytest.fixture()
    def pass_tables(self, monkeypatch):
        """(split features of each structure in the block, columns, mask shape) of
        every fail mask the analytics build; a structure's passes are read from it."""
        calls = []
        original = interpret._fail_mask

        def counting(columns, V, cols):
            mask = original(columns, V, cols)
            calls.append(([split_features(row) for row in columns["feature"]], tuple(cols), mask.shape))
            return mask

        monkeypatch.setattr(interpret, "_fail_mask", counting)
        return calls

    def test_report_makes_no_n_squared_routing(self, routed, pass_tables):
        n = 12
        ds = random_dataset(np.random.default_rng(7), n, 4, missing=True)
        model = fit_ensemble(
            ds, BoostConfig(n_trees=30, learn_rate=0.3, max_nodes=9, min_leaf_obs=1, subsample_fraction=0.8, seed=4)
        )
        interaction_report(model, ds, denominator="model")
        # the denominator's predict_batch only: each structure once, on the n records
        structures = [f for block, _ in routed for f in block]
        assert structures == [split_features(row) for row in model.structure_tables["feature"]]
        assert all(rows == n for _, rows in routed)
        # one mask over every feature per block, on the n records, which are also the points
        assert pass_tables and all(cols == (0, 1, 2, 3) and shape[2] == n for _, cols, shape in pass_tables)
        routed.clear()
        interaction_report(model, ds, denominator="response")
        assert routed == []

    def test_only_structures_splitting_on_two_features_build_pass_tables(self, pass_tables, monkeypatch):
        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [0.3], [0.0], 3)
        trees = [
            (stump, 1.0),
            (split_tree(0, 0.4, -1.0, 1.0, 3), 1.0),
            (two_split_tree(1, 2, 3), 1.0),
            (split_tree(1, 0.6, -0.5, 0.5, 3), 0.5),
            (two_split_tree(0, 0, 3), 1.0),
            (two_split_tree(1, 2, 3), 0.7),  # same structure as stage 2
        ]
        model = make_manual_model(trees, 3)
        n = 6
        X = np.random.default_rng(5).uniform(size=(n, 3))
        X[2, 1] = np.nan
        ds = Dataset.from_arrays(X, np.arange(n, dtype=float))
        for denominator in ("response", "model"):
            pass_tables.clear()
            rep = interaction_report(model, ds, denominator=denominator)
            # the one structure that splits on two features, 3 leaf rows (the most leaves) by
            # n records, every feature one bit: U1, U2 and B of (1, 2) all come from this mask
            assert pass_tables == [([(1, 2)], (0, 1, 2), (1, 3, n))]
            assert rep.pairwise[(0, 1)] == rep.pairwise[(0, 2)] == 0.0
            assert rep.pairwise[(1, 2)] > 0.0
        # a fitted model, with structures splitting on one feature and on more than two
        ds = random_dataset(np.random.default_rng(8), 14, 5, missing=True)
        cfg = BoostConfig(n_trees=40, learn_rate=0.3, max_nodes=9, min_leaf_obs=1, subsample_fraction=0.8, seed=3)
        model = fit_ensemble(ds, cfg)
        everything = [split_features(row) for row in model.structure_tables["feature"]]
        assert any(len(f) < 2 for f in everything) and any(len(f) > 2 for f in everything)
        sharing = [f for f in everything if len(f) >= 2]  # every pair is asked for
        pass_tables.clear()
        want = interaction_report(model, ds, denominator="response").pairwise
        assert len(pass_tables) == 1 and pass_tables[0][0] == sharing  # one block, each structure once, in order
        # a block per structure, or a few: the same scores, from one mask per block
        for budget in (1, boosting.BLOCK_CELLS // 64):
            pass_tables.clear()
            monkeypatch.setattr(boosting, "BLOCK_CELLS", budget)
            assert interaction_report(model, ds, denominator="response").pairwise == want
            assert [f for block, _, _ in pass_tables for f in block] == sharing
            assert all(cols == (0, 1, 2, 3, 4) and shape[2] == 14 for _, cols, shape in pass_tables)
            assert len(pass_tables) == len(sharing) if budget == 1 else 1 < len(pass_tables) < len(sharing)

    def test_no_shared_pair_builds_no_pass_table(self, routed, pass_tables):
        trees = [(split_tree(f, 0.5, -1.0, 1.0 + f, 3), 1.0) for f in range(3)] + [(two_split_tree(2, 2, 3), 1.0)]
        model = make_manual_model(trees, 3)
        n = 5
        ds = Dataset.from_arrays(np.random.default_rng(2).uniform(size=(n, 3)), np.arange(n, dtype=float))
        rep = interaction_report(model, ds, denominator="model")
        assert all(score == 0.0 for score in rep.pairwise.values())
        assert pass_tables == []
        assert routed == [([(0,), (1,), (2,), (2,)], n)]  # predict_batch: one block of every structure

    def test_pd_builds_pass_tables_per_block_not_per_structure(self, pass_tables, monkeypatch):
        ds = random_dataset(np.random.default_rng(3), 30, 4, missing=True)
        cfg = BoostConfig(n_trees=60, learn_rate=0.3, max_nodes=9, min_leaf_obs=1, subsample_fraction=0.8, seed=2)
        model = fit_ensemble(ds, cfg)
        everything = [split_features(row) for row in model.structure_tables["feature"]]
        assert len(everything) >= 40
        want = partial_dependence_1d(model, 1, ds)
        # one block: the records' mask over every feature, then the grid's over the swept one
        most = model.structure_tables["leaves"].shape[1]
        shapes = [(len(everything), most, 30), (len(everything), most, len(want.grid))]
        assert pass_tables == [(everything, (0, 1, 2, 3), shapes[0]), (everything, (1,), shapes[1])]
        for budget in (1, boosting.BLOCK_CELLS // 12):
            pass_tables.clear()
            monkeypatch.setattr(boosting, "BLOCK_CELLS", budget)
            got = partial_dependence_1d(model, 1, ds)
            assert got.values.tobytes() == want.values.tobytes()
            sides = [[f for block, _, _ in pass_tables[side::2] for f in block] for side in (0, 1)]
            assert sides == [everything, everything]  # each side covers every structure once, in order
            assert [shape[2] for _, _, shape in pass_tables] == [30, len(want.grid)] * (len(pass_tables) // 2)
            if budget == 1:  # a block per structure
                assert len(pass_tables) == 2 * len(everything)
            else:
                assert 2 < len(pass_tables) < len(everything)


# Thresholds and cell values share one pool, so grid points and records fall
# exactly on thresholds; records also hold NaN and +-inf.
POOL = (-1.0, 0.0, 0.5, 1.0, 2.5)
CELLS = POOL + (0.25, 3.0, float("nan"), float("inf"), float("-inf"))


def random_tree(draw, n_features: int, splits: int | None = None) -> RegressionTree:
    """A hand-made tree structure of `splits` (by default up to 4) splits, children
    numbered after their parent; internal nodes carry a value prediction must never read."""
    feature, threshold, missing_right, left, right, value = [-1], [0.0], [False], [-1], [-1], [0.0]
    for _ in range(draw(st.integers(0, 4)) if splits is None else splits):
        i = draw(st.sampled_from([i for i, f in enumerate(feature) if f < 0]))
        feature[i] = draw(st.integers(0, n_features - 1))
        threshold[i] = draw(st.sampled_from(POOL))
        missing_right[i] = draw(st.booleans())
        left[i], right[i] = len(feature), len(feature) + 1
        value[i] = 99.0
        columns = (feature, threshold, missing_right, left, right, value)
        for column, blank in zip(columns, (-1, 0.0, False, -1, -1, 0.0)):
            column += [blank, blank]  # the two new leaves
    return RegressionTree(feature, threshold, missing_right, left, right, value, [0.0] * len(feature), n_features)


def random_model(draw, shapes, d: int, first=()) -> BoostedModel:
    """Stages of the structures `first`, then up to 6 drawn from `shapes`, each
    with new leaf values and gamma."""
    stages = []
    for t in [*first, *(draw(st.sampled_from(shapes)) for _ in range(draw(st.integers(1, 6))))]:
        # structures repeat with new leaf values
        values = [v if f >= 0 else draw(st.integers(-8, 8)) / 4.0 for v, f in zip(t.value, t.feature)]
        tree = RegressionTree(t.feature, t.threshold, t.missing_right, t.left, t.right, values, t.improvement, d)
        stages.append((tree, draw(st.sampled_from((1.0, 0.5, -1.5)))))
    return make_manual_model(stages, d, lr=draw(st.sampled_from((1.0, 0.5))), f0=0.25)


def random_records(draw, d: int, n: int) -> SimpleNamespace:
    """n records whose first row holds thresholds only and the rest also NaN and +-inf."""
    X = np.array([[draw(st.sampled_from(POOL if i == 0 else CELLS)) for _ in range(d)] for i in range(n)])
    return SimpleNamespace(X=X, y=np.arange(n, dtype=float) ** 2)  # Dataset rejects +-inf cells


class TestFactorisedKernelProperty:
    """The path-factorised kernel against the brute-force oracles, on random
    ensembles whose stages share structures."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        draw = data.draw
        d, n = draw(st.integers(2, 4)), draw(st.integers(3, 7))
        model = random_model(draw, [random_tree(draw, d) for _ in range(draw(st.integers(1, 3)))], d)
        records = random_records(draw, d, n)
        rows = [list(r) for r in records.X]
        walk = [([a.tolist() for a in (t.feature, t.threshold, t.missing_right, t.left, t.right)],
                 (model.config.learn_rate * gamma) * t.value) for t, gamma in stage_trees(model)]

        def predict_fn(row):
            acc = model.f0
            for arrays, values in walk:
                acc += values[naive_flat_leaf(*arrays, row)]
            return acc

        def close(got, want):
            return abs(got - want) <= 1e-12 * max(1.0, abs(want))

        grid_spec = draw(st.sampled_from((None, 3)))
        for f in range(d):
            p = partial_dependence_1d(model, f, records, grid_spec)
            want = naive_pd_1d(predict_fn, rows, f, list(p.grid))
            assert all(close(a, b) for a, b in zip(p.values, want))
        j, k = draw(st.sampled_from(list(itertools.combinations(range(d), 2))))
        s = partial_dependence_2d(model, k, j, records, grid_spec)
        want = naive_pd_2d(predict_fn, rows, k, j, list(s.grid_j), list(s.grid_k))
        assert all(close(a, b) for got_row, want_row in zip(s.values, want) for a, b in zip(got_row, want_row))

        shared = {p for t, _ in stage_trees(model) for p in itertools.combinations(split_features(t.feature), 2)}
        outputs = [predict_fn(r) for r in rows]
        refs = {"response": list(records.y)}
        if len(set(outputs)) > 1:
            refs["model"] = outputs
        else:  # dyadic leaf values: equal outputs have exactly zero variation
            with pytest.raises(ValueError, match="degenerate model"):
                interaction_report(model, records, "model")
        for denominator, ref in refs.items():
            rep = interaction_report(model, records, denominator)
            for (a, b), score in rep.pairwise.items():
                assert close(score, naive_interaction(predict_fn, rows, a, b, ref)), (a, b, denominator)
                assert pairwise_interaction(model, b, a, records, denominator) == score
                if (a, b) not in shared:
                    assert score == 0.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_block_size_changes_no_bit(self, data):
        """Each structure in a block of its own, or blocks of any size, give the
        default's bits, on ensembles that mix stumps with the widest trees."""
        draw = data.draw
        d, n = draw(st.integers(2, 4)), draw(st.integers(3, 7))
        stump = RegressionTree([-1], [0.0], [False], [-1], [-1], [0.0], [0.0], d)
        widest = random_tree(draw, d, splits=4)
        shapes = [stump, widest, *(random_tree(draw, d) for _ in range(draw(st.integers(0, 3))))]
        model = random_model(draw, shapes, d, first=draw(st.permutations([stump, widest])))
        records = random_records(draw, d, n)
        grid_spec = draw(st.sampled_from((None, 3)))
        j, k = draw(st.sampled_from(list(itertools.permutations(range(d), 2))))

        def everything():
            profiles = [partial_dependence_1d(model, f, records, grid_spec).values for f in range(d)]
            surface = partial_dependence_2d(model, j, k, records, grid_spec).values
            scores = interpret._interaction_scores(model, records, "response", list(itertools.combinations(range(d), 2)))
            prefixes = [predict_batch(model, records.X, m) for m in range(model.n_stages + 1)]
            return [a.tobytes() for a in (*profiles, surface, scores, *prefixes)]

        want = everything()
        stage_loop = [np.full(n, model.f0)]  # one tree at a time, by the tree's own walk
        for t, gamma in stage_trees(model):
            stage_loop.append(stage_loop[-1] + (model.config.learn_rate * gamma) * t.predict_batch(records.X))
        assert want[-len(stage_loop) :] == [a.tobytes() for a in stage_loop]
        for budget in (1, draw(st.integers(1, 2000))):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(boosting, "BLOCK_CELLS", budget)
                assert everything() == want, budget


class TestMasksPastOneWord:
    """A fail mask has one bit per column: a 9-column table needs 16-bit masks
    and a 70-column one Python ints. Profiles, surfaces, scores and prediction
    must not notice."""

    @pytest.mark.parametrize("d, dtype", [(9, np.uint16), (70, object)])
    def test_wide_tables_match_the_oracles_and_the_stage_loop(self, d, dtype):
        rng = np.random.default_rng(d)
        n, high = 12, [8, d - 2, d - 4]  # past bit 8 and, at 70 columns, past bit 64
        X = np.ones((n, d))  # a constant column offers no split
        X[:, [0, *high]] = rng.uniform(-5.0, 5.0, size=(n, 4))
        X[rng.integers(0, n, 4), rng.choice(high, 4)] = np.nan
        y = np.nan_to_num(X[:, high[0]] + X[:, high[1]] * X[:, high[2]])
        ds = Dataset.from_arrays(X, y)
        cfg = BoostConfig(n_trees=12, learn_rate=0.3, max_nodes=7, min_leaf_obs=1, subsample_fraction=0.8, seed=5)
        model = fit_ensemble(ds, cfg)
        trees = stage_trees(model)
        shared = {p for t, _ in trees for p in itertools.combinations(split_features(t.feature), 2)}
        assert max(max(p) for p in shared) >= (64 if d > 64 else 8)  # a pair past the first word
        assert boosting._fail_mask(model.structure_tables, X, range(d)).dtype == dtype

        rows = [list(r) for r in X]
        walk = [([a.tolist() for a in (t.feature, t.threshold, t.missing_right, t.left, t.right)],
                 (model.config.learn_rate * gamma) * t.value) for t, gamma in trees]

        def predict_fn(row):
            acc = model.f0
            for arrays, values in walk:
                acc += values[naive_flat_leaf(*arrays, row)]
            return acc

        def close(got, want):
            return abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for f in (0, *high):
            p = partial_dependence_1d(model, f, ds)
            assert all(close(a, b) for a, b in zip(p.values, naive_pd_1d(predict_fn, rows, f, list(p.grid))))
        s = partial_dependence_2d(model, high[1], high[0], ds, grid_spec=4)
        want = naive_pd_2d(predict_fn, rows, high[1], high[0], list(s.grid_j), list(s.grid_k))
        assert all(close(a, b) for got_row, want_row in zip(s.values, want) for a, b in zip(got_row, want_row))
        unshared = next(p for p in itertools.combinations(range(d), 2) if p not in shared)
        for denominator, ref in (("model", [predict_fn(r) for r in rows]), ("response", list(y))):
            scores = interpret._interaction_scores(model, ds, denominator, [*sorted(shared), unshared])
            for (j, k), score in zip(sorted(shared), scores.tolist()):
                assert close(score, naive_interaction(predict_fn, rows, j, k, ref)), (j, k, denominator)
            assert scores[-1] == 0.0
        for m in range(model.n_stages + 1):
            loop = np.full(n, model.f0)
            for t, gamma in trees[:m]:
                loop += (model.config.learn_rate * gamma) * t.predict_batch(X)
            assert predict_batch(model, X, m).tobytes() == loop.tobytes(), m


class TestLeafChildPlaceholders:
    """A leaf's child entries in a brtm/1 file are unused placeholders, so no
    value there may change partial dependence or interactions."""

    @pytest.mark.parametrize("leaf_children", [(3, 4), (1000, 1000), (0, 0)])
    def test_match_brute_force_whatever_a_leaf_names_as_children(self, tmp_path, leaf_children):
        trees = [(two_split_tree(0, 1, 3), 1.0), (split_tree(2, 0.4, -1.0, 1.0, 3), 0.5), (two_split_tree(1, 2, 3), 0.7)]
        path = tmp_path / "model.brtm"
        clean = make_manual_model(trees, 3, lr=0.5, f0=0.25)
        save_model(clean, path)
        lines = path.read_text().splitlines()
        for m in range(2, len(lines)):  # a leaf of two_split_tree (node 2) names nodes 3 and 4, as splits do
            stage = json.loads(lines[m])
            for side, child in zip(("left", "right"), leaf_children):
                stage[side] = [c if f >= 0 else child for c, f in zip(stage[side], stage["feature"])]
            lines[m] = json.dumps(stage)
        path.write_text("\n".join(lines) + "\n")
        model = load_model(path)
        assert (model.nodes["left"] == leaf_children[0]).any()

        X = np.array([[0.2, 0.1, 0.9], [0.7, np.nan, 0.3], [0.5, 0.3, 0.4], [0.1, 0.8, np.nan], [0.9, 0.2, 0.6]])
        records = Dataset.from_arrays(X, np.arange(5, dtype=float) ** 2)
        rows = [list(r) for r in X]
        walk = [([a.tolist() for a in (t.feature, t.threshold, t.missing_right, t.left, t.right)],
                 (model.config.learn_rate * gamma) * t.value) for t, gamma in stage_trees(model)]

        def predict_fn(row):  # walks splits only, so never reads a leaf's children
            acc = model.f0
            for arrays, values in walk:
                acc += values[naive_flat_leaf(*arrays, row)]
            return acc

        def close(got, want):
            return abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for f in range(3):
            p = partial_dependence_1d(model, f, records)
            assert all(close(a, b) for a, b in zip(p.values, naive_pd_1d(predict_fn, rows, f, list(p.grid))))
        s = partial_dependence_2d(model, 0, 1, records, grid_spec=3)
        want = naive_pd_2d(predict_fn, rows, 0, 1, list(s.grid_j), list(s.grid_k))
        assert all(close(a, b) for got_row, want_row in zip(s.values, want) for a, b in zip(got_row, want_row))
        rep = interaction_report(model, records, "response")
        for (a, b), score in rep.pairwise.items():
            assert close(score, naive_interaction(predict_fn, rows, a, b, list(records.y))), (a, b)
        for k in range(model.n_stages + 1):
            assert predict_batch(model, X, k).tobytes() == predict_batch(clean, X, k).tobytes()
        assert staged_metric(model, records, stride=1) == staged_metric(clean, records, stride=1)


class TestResponseShiftInvariance:
    def test_constant_shift_only_moves_f0(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 2, size=(18, 3))
        y = X[:, 0] * X[:, 1] + X[:, 2]
        cfg = BoostConfig(n_trees=300, learn_rate=0.1, max_nodes=6, min_leaf_obs=2, subsample_fraction=0.9, seed=17)
        base = fit_ensemble(Dataset.from_arrays(X, y), cfg)
        shifted = fit_ensemble(Dataset.from_arrays(X, y + 100.0), cfg)
        ds, ds_s = Dataset.from_arrays(X, y), Dataset.from_arrays(X, y + 100.0)

        inf_a = relative_influence(base).percent
        inf_b = relative_influence(shifted).percent
        np.testing.assert_allclose(inf_a, inf_b, atol=1e-9)

        pa = partial_dependence_1d(base, 0, ds)
        pb = partial_dependence_1d(shifted, 0, ds_s)
        np.testing.assert_allclose(pa.values, pb.values, atol=1e-9)

        sa = partial_dependence_2d(base, 0, 1, ds)
        sb = partial_dependence_2d(shifted, 0, 1, ds_s)
        np.testing.assert_allclose(sa.values, sb.values, atol=1e-9)

        ia = pairwise_interaction(base, 0, 1, ds)
        ib = pairwise_interaction(shifted, 0, 1, ds_s)
        assert ia == pytest.approx(ib, abs=1e-9)

        assert shifted.f0 == pytest.approx(base.f0 + 100.0, rel=1e-12)
