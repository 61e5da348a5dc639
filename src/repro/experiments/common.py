"""Shared machinery for the table-reproduction jobs (Tables 1–6).

Each ``repro.experiments.tableN`` module exposes ``run(spark, quick=False)
-> pandas.DataFrame`` returning the rows of the corresponding paper table.
``quick=True`` shrinks data sizes and iteration counts for smoke runs;
benchmarks and jobs default to the full container-scale settings.

Joins inside the experiment jobs run with broadcast enabled (the foreign
tables are small dimension tables; ARDA's contribution is selection, not
the join algorithm — the shuffle path is exercised by the test suite,
which keeps the session default of broadcast-off).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.arda import (ArdaConfig, Batch, _union_batch, final_estimate,
                             prepare_batches, run_selector)
from repro.core.rifs import RIFSConfig
from repro.ml.automl import automl_best_score
from repro.repository import datasets
from repro.repository.repo import Scenario
from repro.selectors.tuple_ratio import tr_filter

__all__ = ["broadcast_joins", "make_cfg", "scenario_sizes", "load",
           "REG_SELECTORS", "CLS_SELECTORS", "selector_list", "run_method",
           "save_table", "tr_standalone", "automl_rows"]

# Paper Table 1 / Table 6 method rows (ours; AutoML rows handled separately)
_COMMON = ["rifs", "backward_selection", "forward_selection", "rfe",
           "sparse_regression", "random_forest", "f_test", "mutual_info",
           "relief"]
REG_SELECTORS = _COMMON + ["lasso"]
CLS_SELECTORS = _COMMON + ["linear_svc", "logistic_reg"]


def selector_list(task: str) -> list[str]:
    return REG_SELECTORS if task == "reg" else CLS_SELECTORS


@contextmanager
def broadcast_joins(spark, threshold_bytes: int = 8 << 20):
    key = "spark.sql.autoBroadcastJoinThreshold"
    old = spark.conf.get(key)
    spark.conf.set(key, str(threshold_bytes))
    try:
        yield
    finally:
        spark.conf.set(key, old)


def scenario_sizes(name: str, quick: bool, profile: str | None = None) -> dict:
    """Generator kwargs per scenario.

    Profiles: ``bench`` (Table 1 flagship scale), ``medium`` (sensitivity
    tables 2–5: the entries are *relative* deltas, so a smaller base keeps
    the full sweep inside the container's wall-clock budget), ``quick``
    (smoke runs). ``quick=True`` overrides any profile.
    """
    bench = {"taxi": {"n_days": 375, "n_zones": 4},
             "pickup": {"n_hours": 2000},
             "poverty": {"n_counties": 3000},
             "school_s": {"n_schools": 2000},
             "school_l": {"n_schools": 2000},
             "kraken": {}, "digits": {}}
    medium = {"taxi": {"n_days": 250, "n_zones": 3},
              "pickup": {"n_hours": 1200},
              "poverty": {"n_counties": 1500},
              "school_s": {"n_schools": 1200},
              "school_l": {"n_schools": 1200},
              "kraken": {}, "digits": {}}
    quick_kw = {"taxi": {"n_days": 90, "n_zones": 2},
                "pickup": {"n_hours": 400},
                "poverty": {"n_counties": 500},
                "school_s": {"n_schools": 500},
                "school_l": {"n_schools": 400},
                "kraken": {}, "digits": {}}
    table = quick_kw if quick else {"medium": medium}.get(profile or "bench", bench)
    return table[name]


def load(spark, name: str, quick: bool, profile: str | None = None) -> Scenario:
    return datasets.load_scenario(spark, name,
                                  **scenario_sizes(name, quick, profile))


def make_cfg(quick: bool, **overrides) -> ArdaConfig:
    cfg = ArdaConfig(
        coreset_size=384 if quick else 768,
        budget=256 if quick else 512,
        rifs=RIFSConfig(k=4 if quick else 6),
        eval_trees=15 if quick else 25,
        final_trees=30 if quick else 60,
        wrapper_max_features=8 if quick else 12,
        wrapper_pool=24 if quick else 32,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


@dataclass
class MethodResult:
    dataset: str
    method: str
    metric: float  # accuracy in [0,1] or raw MAE
    time_s: float
    n_selected: int = 0
    n_tables: int = 0
    kept: list | None = None  # kept augmented feature names (not serialized)

    def row(self) -> dict:
        d = vars(self).copy()
        d.pop("kept")
        return d


def run_method(spark, scenario: Scenario, batches: list[Batch],
               selector: str, cfg: ArdaConfig) -> MethodResult:
    """One Table-1/6 row: selection + final estimate, timed together
    (the paper's time column is 'feature selection and evaluation time')."""
    t0 = time.perf_counter()
    if selector == "baseline":
        kept: list[str] = []
        score, n_tables = final_estimate(spark, scenario, kept, cfg)
    else:
        kept, _, _ = run_selector(batches, selector, scenario.task, cfg)
        score, n_tables = final_estimate(spark, scenario, kept, cfg)
    return MethodResult(scenario.name, selector, score,
                        time.perf_counter() - t0, len(kept), n_tables, kept)


def tr_standalone(spark, scenario: Scenario, cfg: ArdaConfig,
                  tau: float) -> MethodResult:
    """Paper's 'TR rule' row: keep tables passing the rule, join them all,
    no feature selection."""
    t0 = time.perf_counter()
    n_base = scenario.base.count()
    decisions = tr_filter(n_base, scenario.candidates, scenario.repo.tables, tau)
    keep_tables = {d.name for d in decisions if d.keep}
    kept = []
    for c in scenario.candidates:
        if c.table in keep_tables:
            ft = scenario.repo[c.table]
            kept += [f"{c.table}__{col}" for col in ft.columns
                     if col not in c.foreign_keys]
    score, n_tables = final_estimate(spark, scenario, kept, cfg)
    return MethodResult(scenario.name, "tr_rule", score,
                        time.perf_counter() - t0, len(kept), n_tables)


def automl_rows(spark, scenario: Scenario, batches: list[Batch],
                cfg: ArdaConfig, budget_s: float = 20.0) -> list[MethodResult]:
    """AutoML comparator rows (DESIGN.md §2 substitute for Azure AutoML /
    Alpine Meadow): budgeted random search on (a) base features only and
    (b) the fully augmented feature set."""
    out = []
    b0 = batches[0]
    all_aug = [b.names[j] for b in batches for j in b.aug_idx]
    for tag, X, y in [
        ("automl_base", b0.X[:, b0.base_idx], b0.y),
        ("automl_all", _union_batch(batches, all_aug).X, b0.y),
    ]:
        t0 = time.perf_counter()
        res = automl_best_score(X, y, scenario.task, budget_s=budget_s, seed=cfg.seed)
        metric = res.score if scenario.task == "cls" else -res.score
        out.append(MethodResult(scenario.name, tag, metric,
                                time.perf_counter() - t0, X.shape[1], 0))
    return out


def save_table(df: pd.DataFrame, name: str) -> str:
    """Persist job output under results/ and return the path."""
    import os
    os.makedirs("results", exist_ok=True)
    path = os.path.join("results", f"{name}.csv")
    df.to_csv(path, index=False)
    return path


def pct_change_score(task: str, metric: float, ref: float) -> float:
    """Paper-style %-change vs a reference: positive = better than ref.

    Classification: accuracy delta in points. Regression: % reduction in
    error relative to the reference MAE."""
    if task == "cls":
        return 100.0 * (metric - ref)
    if ref == 0:
        return 0.0
    return 100.0 * (ref - metric) / abs(ref)
