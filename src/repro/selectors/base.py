"""The ranker registry and the selection result type.

Paper §7 distinguishes *ranking* methods (random forest, sparse
regression, mutual info, logistic regression, lasso, relief, linear SVM,
f-test) — which produce per-feature scores that are then cut with the
exponential doubling + binary search of §6.3 — from *wrapper* methods
(forward/backward selection, RFE) that drive the model loop themselves,
and from RIFS. ``RANKERS`` holds the scoring functions of the rankers;
the selector table ``repro.core.arda.SELECTORS`` puts all three kinds
behind one interface and records which tasks each applies to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["SelectionResult", "RANKERS", "register_ranker",
           "rank_scores", "applicable"]

# name -> callable(X, y, task, seed) -> scores (len d, higher = better)
RANKERS: dict[str, Callable] = {}


def register_ranker(name: str):
    def deco(fn):
        RANKERS[name] = fn
        return fn
    return deco


def rank_scores(name: str, X: np.ndarray, y: np.ndarray, task: str, seed: int = 0) -> np.ndarray:
    if name not in RANKERS:
        raise KeyError(f"unknown ranker {name!r}; have {sorted(RANKERS)}")
    if not applicable(name, task):
        raise ValueError(f"ranker {name!r} is n/a for task {task!r}")
    s = np.asarray(RANKERS[name](X, y, task, seed), dtype=float)
    if s.shape != (X.shape[1],):
        raise ValueError(f"ranker {name} returned shape {s.shape} for d={X.shape[1]}")
    return np.nan_to_num(s, nan=-np.inf)


def applicable(name: str, task: str) -> bool:
    """Whether selector ``name`` applies to ``task``, per the selector table."""
    # The table lives with the pipeline, which imports this module.
    from repro.core.arda import SELECTORS
    return task in SELECTORS[name].tasks


@dataclass
class SelectionResult:
    """Outcome of a feature-selection run."""

    selected: np.ndarray  # sorted indices into the feature matrix
    score: float  # holdout score of the selected subset (acc or -MAE)
    elapsed_s: float
    n_model_fits: int = 0
    extra: dict = field(default_factory=dict)
