"""Unit tests for the numpy random-forest substrate."""
import numpy as np
import pytest

from repro.ml.forest import RandomForest, _bin_matrix, _quantile_edges


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 20))
    y = 3 * X[:, 0] - 2 * X[:, 1] + 1.0 * X[:, 2] + 0.2 * rng.normal(size=600)
    return X, y


@pytest.fixture(scope="module")
def cls_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 20))
    y = (X[:, 0] + X[:, 1] ** 2 > 1).astype(int)
    return X, y


class TestBinning:
    def test_edges_shape(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        e = _quantile_edges(X, 32, rng)
        assert e.shape == (31, 5)

    def test_edges_monotone(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        e = _quantile_edges(X, 16, rng)
        assert (np.diff(e, axis=0) >= 0).all()

    def test_bins_in_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        e = _quantile_edges(X, 32, rng)
        B = _bin_matrix(X, e)
        assert B.dtype == np.uint8
        assert B.min() >= 0 and B.max() <= 31

    def test_constant_column(self):
        X = np.ones((50, 2))
        X[:, 1] = np.arange(50)
        rng = np.random.default_rng(0)
        B = _bin_matrix(X, _quantile_edges(X, 8, rng))
        assert len(np.unique(B[:, 0])) == 1


class TestRegression:
    def test_beats_constant_predictor(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=30, seed=0).fit(X, y)
        pred = rf.predict(X)
        assert np.abs(pred - y).mean() < 0.5 * np.abs(y - y.mean()).mean()

    def test_importances_find_signal(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=30, seed=0).fit(X, y)
        top3 = set(np.argsort(rf.feature_importances_)[::-1][:3])
        assert top3 == {0, 1, 2}

    def test_importances_normalized(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=20, seed=0).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)
        assert (rf.feature_importances_ >= 0).all()

    def test_deterministic_in_seed(self, reg_data):
        X, y = reg_data
        p1 = RandomForest(task="reg", n_trees=10, seed=7).fit(X, y).predict(X[:20])
        p2 = RandomForest(task="reg", n_trees=10, seed=7).fit(X, y).predict(X[:20])
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, reg_data):
        X, y = reg_data
        p1 = RandomForest(task="reg", n_trees=5, seed=1).fit(X, y).predict(X[:50])
        p2 = RandomForest(task="reg", n_trees=5, seed=2).fit(X, y).predict(X[:50])
        assert not np.array_equal(p1, p2)

    def test_predict_shape(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=5, seed=0).fit(X, y)
        assert rf.predict(X[:17]).shape == (17,)

    def test_min_samples_leaf_respected(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=1, min_samples_leaf=50, seed=0).fit(X, y)
        # one tree with >=50-sample leaves over 600 rows has <= 12 leaves
        assert len(np.unique(rf.predict(X))) <= 12

    def test_max_depth_zero_is_constant(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=3, max_depth=0, seed=0).fit(X, y)
        assert len(np.unique(rf.predict(X))) == 1


class TestClassification:
    def test_accuracy(self, cls_data):
        X, y = cls_data
        rf = RandomForest(task="cls", n_trees=30, seed=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.85

    def test_classes_preserved(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        y = np.array(["a", "b"] * 50)
        rf = RandomForest(task="cls", n_trees=5, seed=0).fit(X, y)
        assert set(rf.predict(X)) <= {"a", "b"}

    def test_predict_proba_sums_to_one(self, cls_data):
        X, y = cls_data
        rf = RandomForest(task="cls", n_trees=10, seed=0).fit(X, y)
        P = rf.predict_proba(X[:30])
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_proba_raises_for_regression(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=3, seed=0).fit(X, y)
        with pytest.raises(ValueError):
            rf.predict_proba(X)

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(450, 6))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        rf = RandomForest(task="cls", n_trees=20, seed=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.8

    def test_importances_cls(self, cls_data):
        X, y = cls_data
        rf = RandomForest(task="cls", n_trees=30, seed=0).fit(X, y)
        top2 = set(np.argsort(rf.feature_importances_)[::-1][:2])
        assert top2 == {0, 1}


class TestEdgeCases:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((2, 2)))

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            RandomForest().fit(np.zeros((10, 2)), np.zeros(5))

    def test_single_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 1))
        y = (X[:, 0] > 0).astype(int)
        rf = RandomForest(task="cls", n_trees=10, seed=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.9

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        rf = RandomForest(task="reg", n_trees=3, seed=0).fit(X, np.ones(50))
        np.testing.assert_allclose(rf.predict(X), 1.0)

    def test_pure_node_stops_splitting(self):
        X = np.random.default_rng(0).normal(size=(80, 3))
        y = np.zeros(80, dtype=int)
        rf = RandomForest(task="cls", n_trees=3, seed=0).fit(X, y)
        assert (rf.predict(X) == 0).all()

    def test_max_features_variants(self, reg_data):
        X, y = reg_data
        for mf in ("sqrt", "all", 0.5, 3):
            rf = RandomForest(task="reg", n_trees=3, max_features=mf, seed=0).fit(X, y)
            assert rf.predict(X[:5]).shape == (5,)
