"""Filter-model feature scores: F-test, mutual information, Pearson.

Each score is vectorized numpy over the coreset-sized batch matrices the
selection loops work on.

For regression targets the F statistic is the univariate regression
F = (n-2) r^2 / (1 - r^2); for classification it is the one-way ANOVA F.
MI discretizes numeric columns into quantile bins.
"""
from __future__ import annotations

import numpy as np

from repro.selectors.base import register_ranker

__all__ = ["f_scores", "mutual_info_scores", "pearson_scores"]

_MI_BINS = 12


def pearson_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    denom = np.sqrt((Xc**2).sum(axis=0) * (yc**2).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (Xc * yc[:, None]).sum(axis=0) / denom
    return np.abs(np.nan_to_num(r))


def f_scores(X: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if task == "reg":
        r = pearson_scores(X, y)
        r2 = np.minimum(r**2, 1 - 1e-12)
        return (n - 2) * r2 / (1 - r2)
    classes, y_enc = np.unique(y, return_inverse=True)
    k = len(classes)
    if k < 2 or n <= k:
        return np.zeros(X.shape[1])
    grand = X.mean(axis=0)
    ss_between = np.zeros(X.shape[1])
    ss_within = np.zeros(X.shape[1])
    for c in range(k):
        Xi = X[y_enc == c]
        mi = Xi.mean(axis=0)
        ss_between += len(Xi) * (mi - grand) ** 2
        ss_within += ((Xi - mi) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        F = (ss_between / (k - 1)) / (ss_within / (n - k))
    return np.nan_to_num(F, nan=0.0, posinf=np.finfo(float).max / 2)


def _quantile_bin(v: np.ndarray, bins: int) -> np.ndarray:
    edges = np.quantile(v, np.linspace(0, 1, bins + 1)[1:-1])
    return np.searchsorted(edges, v, side="left")


def _mi_from_joint(joint: np.ndarray) -> float:
    n = joint.sum()
    if n == 0:
        return 0.0
    p = joint / n
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = p * np.log(p / (px * py))
    return float(np.nansum(t))


def mutual_info_scores(X: np.ndarray, y: np.ndarray, task: str,
                       bins: int = _MI_BINS) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if task == "reg":
        yb = _quantile_bin(np.asarray(y, dtype=float), bins)
    else:
        _, yb = np.unique(y, return_inverse=True)
    ny = int(yb.max()) + 1
    out = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        xb = _quantile_bin(X[:, j], bins)
        nx = int(xb.max()) + 1
        joint = np.bincount(xb * ny + yb, minlength=nx * ny).reshape(nx, ny)
        out[j] = _mi_from_joint(joint)
    return out


# ----------------------------------------------------------------- registry
@register_ranker("f_test")
def _f_test_ranker(X, y, task, seed=0):
    return f_scores(X, y, task)


@register_ranker("mutual_info")
def _mi_ranker(X, y, task, seed=0):
    return mutual_info_scores(X, y, task)


@register_ranker("pearson")
def _pearson_ranker(X, y, task, seed=0):
    return pearson_scores(X, np.unique(y, return_inverse=True)[1] if task == "cls" else y)
