"""Embedded-model rankers: random forest, lasso, logistic regression, SVC.

Scores are importances (forest) or coefficient magnitudes on standardized
features (linear models, column L2 norm across classes) — the quantities
the paper's exponential search cuts into a feature subset.
"""
from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForest
from repro.ml.linear import Lasso, LinearSVC, LogisticRegression
from repro.selectors.base import register_ranker

__all__ = ["random_forest_scores", "lasso_scores", "logistic_scores", "svc_scores"]


def random_forest_scores(X: np.ndarray, y: np.ndarray, task: str, seed: int = 0,
                         n_trees: int = 40, max_depth: int = 8) -> np.ndarray:
    rf = RandomForest(task=task, n_trees=n_trees, max_depth=max_depth,
                      min_samples_leaf=3, seed=seed)
    return rf.fit(X, y).feature_importances_


def lasso_scores(X: np.ndarray, y: np.ndarray, seed: int = 0,
                 alpha: float = 0.01) -> np.ndarray:
    return np.abs(Lasso(alpha=alpha).fit(X, y).coef_)


def logistic_scores(X: np.ndarray, y: np.ndarray, seed: int = 0) -> np.ndarray:
    m = LogisticRegression().fit(X, y)
    return np.linalg.norm(m.coef_, axis=0)


def svc_scores(X: np.ndarray, y: np.ndarray, seed: int = 0) -> np.ndarray:
    m = LinearSVC().fit(X, y)
    return np.linalg.norm(m.coef_, axis=0)


@register_ranker("random_forest")
def _rf_ranker(X, y, task, seed=0):
    return random_forest_scores(X, y, task, seed)


@register_ranker("lasso")
def _lasso_ranker(X, y, task, seed=0):
    return lasso_scores(X, y, seed)


@register_ranker("logistic_reg")
def _logreg_ranker(X, y, task, seed=0):
    return logistic_scores(X, y, seed)


@register_ranker("linear_svc")
def _svc_ranker(X, y, task, seed=0):
    return svc_scores(X, y, seed)
