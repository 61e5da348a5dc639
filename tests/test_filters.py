"""Tests for filter-model scores: f-test, mutual information, Pearson —
numpy paths plus agreement of the distributed Spark paths."""
import numpy as np
import pytest

from repro.selectors.filters import f_scores, mutual_info_scores, pearson_scores


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 8))
    y = 2 * X[:, 0] - X[:, 1] + 0.2 * rng.normal(size=500)
    return X, y


@pytest.fixture(scope="module")
def cls_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 8))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestPearson:
    def test_signal_ranked_first(self, reg_data):
        X, y = reg_data
        s = pearson_scores(X, y)
        assert set(np.argsort(s)[::-1][:2]) == {0, 1}

    def test_range(self, reg_data):
        X, y = reg_data
        s = pearson_scores(X, y)
        assert (s >= 0).all() and (s <= 1).all()

    def test_constant_column_zero(self):
        X = np.ones((50, 2))
        X[:, 1] = np.arange(50)
        s = pearson_scores(X, np.arange(50, dtype=float))
        assert s[0] == 0.0 and s[1] == pytest.approx(1.0)

    def test_perfect_negative_correlation(self):
        x = np.arange(30, dtype=float)
        s = pearson_scores(x[:, None], -x)
        assert s[0] == pytest.approx(1.0)


class TestFTest:
    def test_reg_signal_first(self, reg_data):
        X, y = reg_data
        s = f_scores(X, y, "reg")
        assert set(np.argsort(s)[::-1][:2]) == {0, 1}

    def test_cls_signal_first(self, cls_data):
        X, y = cls_data
        s = f_scores(X, y, "cls")
        assert np.argmax(s) == 0

    def test_nonnegative(self, cls_data):
        X, y = cls_data
        assert (f_scores(X, y, "cls") >= 0).all()

    def test_single_class_returns_zeros(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        np.testing.assert_array_equal(f_scores(X, np.zeros(20), "cls"), 0.0)

    def test_multiclass_anova(self):
        rng = np.random.default_rng(2)
        y = np.repeat([0, 1, 2], 100)
        X = rng.normal(size=(300, 4))
        X[:, 2] += y * 2.0  # strong class separation on feature 2
        s = f_scores(X, y, "cls")
        assert np.argmax(s) == 2


class TestMutualInfo:
    def test_reg_signal_first(self, reg_data):
        X, y = reg_data
        s = mutual_info_scores(X, y, "reg")
        assert set(np.argsort(s)[::-1][:2]) == {0, 1}

    def test_cls_signal_first(self, cls_data):
        X, y = cls_data
        s = mutual_info_scores(X, y, "cls")
        assert np.argmax(s) == 0

    def test_nonlinear_dependence_detected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(800, 3))
        y = X[:, 1] ** 2  # zero linear correlation, strong dependence
        mi = mutual_info_scores(X, y, "reg")
        assert np.argmax(mi) == 1
        r = pearson_scores(X, y)
        assert r[1] < 0.2  # pearson misses it

    def test_independent_near_zero(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(1000, 2))
        y = rng.normal(size=1000)
        mi = mutual_info_scores(X, y, "reg")
        assert (mi < 0.1).all()
