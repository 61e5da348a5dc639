"""End-to-end ARDA pipeline (paper §3 workflow).

Stages, matching Figure 1: coreset construction -> join plan -> join
execution (per batch) -> feature selection (per batch) -> final estimate.

The pipeline is factored into three reusable pieces so experiment jobs
can amortize the expensive parts across the many selectors they compare:

* ``prepare_batches``  — coreset the base table, build the join plan,
  execute every batch join on the coreset (soft keys, resampling,
  pre-aggregation, imputation), and encode each batch into a numpy
  matrix. Pure Spark until the final encode.
* ``run_selector``     — run one selection method, looked up by name in
  the ``SELECTORS`` table, over the encoded batches, always force-keeping
  the base-table features; returns the kept augmented feature names and
  the selection wall-clock.
* ``final_estimate``   — join the *full* base table with just the tables
  that contributed kept features, train the paper's lightly
  auto-optimized Random-Forest estimator, and report the holdout score.

``run_arda`` composes the three for single-shot use.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.rifs import RIFSConfig, rifs_select
from repro.core.search import exponential_search
from repro.coreset.sampling import build_coreset
from repro.coreset.sketch import sketch_dataset
from repro.joins.executor import left_join
from repro.joins.impute import impute
from repro.joins.plan import CandidateJoin, make_plan
from repro.joins.resample import align_time_tables
from repro.joins.soft import soft_left_join
from repro.ml.encode import assemble
from repro.ml.evaluate import Evaluator, accuracy, mae, make_estimator, train_test_split
from repro.selectors import rank_scores  # registers all rankers
from repro.selectors.base import SelectionResult
from repro.selectors.tuple_ratio import tr_filter
from repro.selectors.wrappers import backward_elimination, forward_selection, rfe
from repro.repository.repo import Scenario

__all__ = ["ArdaConfig", "ArdaResult", "prepare_batches", "run_selector",
           "final_estimate", "run_arda", "Batch", "SELECTORS"]

_CHECKPOINT_EVERY = 8  # truncate join lineage on long batch chains


@dataclass
class ArdaConfig:
    coreset_size: int = 768
    coreset_method: str = "uniform"  # uniform | stratified | sketch
    join_strategy: str = "budget"  # table | budget | full
    budget: int | None = None  # feature budget; default = coreset_size
    selector: str = "rifs"
    rifs: RIFSConfig = field(default_factory=RIFSConfig)
    tr_tau: float | None = None  # TR-rule prefilter threshold (None = off)
    seed: int = 0
    eval_trees: int = 25
    eval_depth: int = 8
    final_trees: int = 60
    wrapper_max_features: int = 20  # forward-selection add cap
    # Wrapper methods fit the eval model hundreds of times per batch; they
    # get a lighter forest (the paper's point is their cost ORDER, which a
    # cheaper inner model preserves).
    wrapper_trees: int = 10
    wrapper_depth: int = 6
    wrapper_pool: int = 32  # forward-selection candidate pool


@dataclass
class Batch:
    """One encoded join batch: base features + this batch's augmentations."""

    X: np.ndarray
    y: np.ndarray
    names: list[str]
    base_idx: np.ndarray  # columns encoding base-table features (force-keep)
    aug_idx: np.ndarray  # columns encoding augmented features (selectable)
    tables: list[str]


@dataclass
class ArdaResult:
    scenario: str
    selector: str
    score: float  # holdout accuracy (cls) or MAE (reg) of the final model
    n_selected: int
    selected: list[str]
    select_time_s: float
    total_time_s: float
    n_tables_used: int
    extra: dict = field(default_factory=dict)


def join_candidate(df: DataFrame, cand: CandidateJoin, foreign: DataFrame,
                   seed: int = 0) -> DataFrame:
    """Join one candidate table onto ``df`` honouring its key semantics."""
    if cand.soft:
        bkey, fkey = cand.base_keys[0], cand.foreign_keys[0]
        foreign = align_time_tables(df, foreign, bkey, fkey)
        if cand.soft_mode == "hard_resample":
            return left_join(df, foreign, [bkey], [fkey], cand.prefix)
        return soft_left_join(df, foreign, bkey, fkey, cand.prefix,
                              mode=cand.soft_mode, seed=seed)
    return left_join(df, foreign, cand.base_keys, cand.foreign_keys, cand.prefix)


def _apply_tr_prefilter(scenario: Scenario, candidates: list[CandidateJoin],
                        tau: float) -> tuple[list[CandidateJoin], int]:
    n_base = scenario.base.count()
    decisions = tr_filter(n_base, candidates, scenario.repo.tables, tau)
    keep = {d.name for d in decisions if d.keep}
    kept = [c for c in candidates if c.table in keep]
    return kept, len(candidates) - len(kept)


def _join_chain(df: DataFrame, cands: list[CandidateJoin], scenario: Scenario,
                seed: int) -> DataFrame:
    """Join each candidate onto ``df`` in order, truncating the lineage
    with a checkpoint after every ``_CHECKPOINT_EVERY`` joins."""
    for i, cand in enumerate(cands):
        df = join_candidate(df, cand, scenario.repo[cand.table], seed=seed)
        if (i + 1) % _CHECKPOINT_EVERY == 0:
            df = df.localCheckpoint(eager=True)
    return df


def _is_base(name: str, scenario: Scenario, tables) -> bool:
    """True when encoded column ``name`` is a base-table feature (force-kept)
    rather than an augmentation. Without a repository, the base features
    are those derived from ``scenario.base_feature_cols`` and every other
    column of the base table is augmentation; otherwise the augmentations
    are the columns prefixed by one of the joined ``tables``. An encoded
    column derives from raw column ``c`` as ``c`` itself, a one-hot
    ``c==v`` or a datetime ``c__part``."""
    if scenario.base_feature_cols is not None:
        return any(name == c or name.startswith(c + "==") or name.startswith(c + "__")
                   for c in scenario.base_feature_cols)
    return not any(name.startswith(t + "__") for t in tables)


def prepare_batches(spark: SparkSession, scenario: Scenario, cfg: ArdaConfig
                    ) -> tuple[list[Batch], dict]:
    """Coreset + join plan + batch joins + encoding. Returns (batches, info).

    An empty plan (a micro-benchmark scenario with no repository) yields
    one batch over the coreset itself, with no joins."""
    info: dict = {}
    size = cfg.coreset_size
    coreset = build_coreset(scenario.base, size, cfg.coreset_method,
                            label_col=scenario.target if scenario.task == "cls" else None,
                            seed=cfg.seed)
    # A stable row id lets every batch matrix share row order, so the
    # cross-batch pruning pass can hstack kept columns from different
    # batches. localCheckpoint materializes the ids so re-scans are stable.
    from pyspark.sql import functions as F
    coreset = (coreset.withColumn("__row_id", F.monotonically_increasing_id())
               .localCheckpoint(eager=True))

    candidates = list(scenario.candidates)
    if cfg.tr_tau is not None:
        candidates, removed = _apply_tr_prefilter(scenario, candidates, cfg.tr_tau)
        info["tr_removed"] = removed
    budget = cfg.budget or size
    plan = make_plan(candidates, cfg.join_strategy, budget=budget)
    info["n_batches"] = len(plan)

    drop_cols = list(scenario.key_cols)
    batches: list[Batch] = []
    for batch in plan or [[]]:
        df = _join_chain(coreset, batch, scenario, cfg.seed)
        if batch:
            # Truncate the N-join lineage before imputation/encoding: both
            # run several jobs over the result and would otherwise
            # re-execute the whole join chain each time.
            df = df.localCheckpoint(eager=True)
            aug_cols = [c for c in df.columns if "__" in c and c != "__row_id"]
            df = impute(df, cols=aug_cols, seed=cfg.seed)
        pdf = df.toPandas().sort_values("__row_id")
        pdf = pdf.drop(columns=[c for c in drop_cols + ["__row_id"] if c in pdf.columns])
        X, y, names, _ = assemble(pdf, scenario.target, scenario.task)
        if cfg.coreset_method == "sketch" and len(y) > 0:
            X, y = sketch_dataset(X, y, ell=min(size, len(y)), task=scenario.task,
                                  seed=cfg.seed)
        tables = [cand.table for cand in batch]
        is_base = np.array([_is_base(nm, scenario, tables) for nm in names], dtype=bool)
        batches.append(Batch(X, y, names, np.flatnonzero(is_base),
                             np.flatnonzero(~is_base), tables))
    return batches, info


@dataclass(frozen=True)
class Selector:
    """A selection method: its per-batch callable, whether it gets the
    lighter ``wrapper_*`` holdout forest, and the tasks it applies to."""

    select: Callable[[Batch, Evaluator, ArdaConfig], SelectionResult]
    tasks: frozenset[str] = frozenset({"reg", "cls"})
    wrapper: bool = False


def _ranked(name: str, tasks=("reg", "cls")) -> Selector:
    """Ranking by the ``name`` ranker, cut by the §6.3 exponential search."""
    def select(b: Batch, ev: Evaluator, cfg: ArdaConfig) -> SelectionResult:
        scores = rank_scores(name, b.X, b.y, ev.task, cfg.seed)
        return exponential_search(ev, scores, force_keep=b.base_idx)
    return Selector(select, frozenset(tasks))


def _keep_base(b: Batch, ev: Evaluator, cfg: ArdaConfig) -> SelectionResult:
    return SelectionResult(b.base_idx, float("nan"), 0.0)


def _keep_all(b: Batch, ev: Evaluator, cfg: ArdaConfig) -> SelectionResult:
    return SelectionResult(np.arange(b.X.shape[1]), float("nan"), 0.0)


# Every selection method by name (paper §5/§7: RIFS, wrappers, and rankers
# cut by exponential search). Paper Table 1 marks lasso n/a on
# classification and logistic regression / linear SVC n/a on regression.
# The callables look this module's globals up at call time.
SELECTORS: dict[str, Selector] = {
    "rifs": Selector(lambda b, ev, cfg: rifs_select(ev, cfg.rifs, force_keep=b.base_idx)),
    "forward_selection": Selector(lambda b, ev, cfg: forward_selection(
        ev, max_features=cfg.wrapper_max_features, candidate_pool=cfg.wrapper_pool,
        seed=cfg.seed), wrapper=True),
    "backward_selection": Selector(
        lambda b, ev, cfg: backward_elimination(ev, seed=cfg.seed), wrapper=True),
    "rfe": Selector(lambda b, ev, cfg: rfe(ev, seed=cfg.seed), wrapper=True),
    "baseline": Selector(_keep_base),
    "none": Selector(_keep_base),
    "all_features": Selector(_keep_all),
    **{name: _ranked(name) for name in ("random_forest", "sparse_regression", "f_test",
                                        "mutual_info", "pearson", "relief")},
    "lasso": _ranked("lasso", {"reg"}),
    "logistic_reg": _ranked("logistic_reg", {"cls"}),
    "linear_svc": _ranked("linear_svc", {"cls"}),
}


def _select_in_batch(batch: Batch, sel: Selector, task: str, cfg: ArdaConfig
                     ) -> tuple[list[str], int]:
    """Run one selector on one batch; returns (kept augmented names, fits)."""
    trees, depth = ((cfg.wrapper_trees, cfg.wrapper_depth) if sel.wrapper
                    else (cfg.eval_trees, cfg.eval_depth))
    ev = Evaluator(batch.X, batch.y, task, seed=cfg.seed,
                   n_trees=trees, max_depth=depth)
    res = sel.select(batch, ev, cfg)
    aug = set(batch.aug_idx.tolist())
    kept = [batch.names[j] for j in res.selected if j in aug]
    return kept, res.n_model_fits


def run_selector(batches: list[Batch], selector: str, task: str,
                 cfg: ArdaConfig) -> tuple[list[str], float, int]:
    """Selection across all batches; returns (kept names, seconds, fits)."""
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; known: {sorted(SELECTORS)}")
    sel = SELECTORS[selector]
    if task not in sel.tasks:
        raise ValueError(f"selector {selector!r} is n/a for task {task!r}")
    t0 = time.perf_counter()
    kept: list[str] = []
    fits = 0
    for b in batches:
        k, f = _select_in_batch(b, sel, task, cfg)
        kept.extend(k)
        fits += f
    if len(batches) > 1 and kept:
        # Cross-batch pruning pass: each batch's selection saw only its own
        # tables, so every all-noise batch can leak a few spurious features
        # (the join plan is "iteratively executed", §4 — this is the final
        # iteration). Re-select once over base + everything kept so far.
        union = _union_batch(batches, kept)
        kept, f = _select_in_batch(union, sel, task, cfg)
        fits += f
    return kept, time.perf_counter() - t0, fits


def _union_batch(batches: list[Batch], kept_names: list[str]) -> Batch:
    """Base features (from batch 0) + kept augmented columns of every batch,
    hstacked in shared row order (guaranteed by the coreset ``__row_id``)."""
    b0 = batches[0]
    keep = set(kept_names)
    parts = [b0.X[:, b0.base_idx]]
    names = [b0.names[j] for j in b0.base_idx]
    tables: list[str] = []
    for b in batches:
        idx = [j for j in b.aug_idx if b.names[j] in keep]
        if idx:
            parts.append(b.X[:, idx])
            names.extend(b.names[j] for j in idx)
            tables.extend(b.tables)
    X = np.hstack(parts)
    n_base = len(b0.base_idx)
    return Batch(X, b0.y, names, np.arange(n_base),
                 np.arange(n_base, X.shape[1]), tables)


def _tables_of(names: list[str], known_tables: set[str]) -> set[str]:
    out = set()
    for nm in names:
        head = nm.split("__", 1)[0]
        if head in known_tables:
            out.add(head)
    return out


_FAST_JOIN_MIN_TABLES = 24


def _impute_pandas(pdf, cols: list[str], seed: int):
    """Pandas mirror of ``repro.joins.impute``: median for numerics,
    uniformly random observed value for categoricals."""
    import pandas as pd

    rng = np.random.default_rng(seed)
    for c in cols:
        s = pdf[c]
        if not s.isna().any():
            continue
        if pd.api.types.is_numeric_dtype(s):
            # the lower median, as Spark's percentile_approx returns
            med = s.quantile(0.5, interpolation="lower")
            pdf[c] = s.fillna(0.0 if pd.isna(med) else med)
        else:
            dom = s.dropna().unique()
            if len(dom) == 0:
                pdf[c] = s.fillna("__missing__")
            else:
                fill = rng.choice(dom, size=int(s.isna().sum()))
                pdf.loc[s.isna(), c] = fill
    return pdf


def _merge_hard_pandas(pdf, cand: CandidateJoin, foreign_pdf):
    """Driver-side equivalent of ``left_join`` (pre-aggregate to
    many-to-one, prefix, LEFT merge) for the wide-fan fast path."""
    import pandas as pd

    f = foreign_pdf
    keys = cand.foreign_keys
    val_cols = [c for c in f.columns if c not in keys]
    aggs = {c: ("mean" if pd.api.types.is_numeric_dtype(f[c]) else "min")
            for c in val_cols}
    f = f.groupby(keys, as_index=False).agg(aggs) if val_cols else f.drop_duplicates(keys)
    f = f.rename(columns={c: f"{cand.prefix}__{c}" for c in val_cols})
    merged = pdf.merge(f, how="left", left_on=cand.base_keys, right_on=keys,
                       suffixes=("", "__dup"))
    extra_keys = [k for k in keys if k not in cand.base_keys and k in merged.columns]
    return merged.drop(columns=extra_keys)


def final_estimate(spark: SparkSession, scenario: Scenario,
                   kept_names: list[str], cfg: ArdaConfig) -> tuple[float, int]:
    """Train the final estimator on the full base joined with the tables
    that contributed kept features; returns (holdout metric, n_tables).

    The metric is raw: accuracy for classification, MAE for regression
    (jobs apply the paper's x10^k display scaling).

    Wide fans of hard joins (> _FAST_JOIN_MIN_TABLES tables, e.g. the
    all-features row of School (L) with 350 tables) take a driver-side
    pandas merge path: chaining hundreds of Catalyst joins has
    superlinear planning cost that dwarfs the actual work at container
    scale. Soft candidates always go through the Spark soft-join
    operators; the Spark hard-join path covers the common case and is
    what the oracle-backed tests verify.
    """
    known = set(scenario.repo.names())
    used_tables = _tables_of(kept_names, known)
    by_table = {c.table: c for c in scenario.candidates}
    hard = sorted(t for t in used_tables if not by_table[t].soft)
    soft = sorted(t for t in used_tables if by_table[t].soft)
    df = _join_chain(scenario.base, [by_table[t] for t in soft], scenario, cfg.seed)
    if len(hard) > _FAST_JOIN_MIN_TABLES:
        pdf = df.toPandas()
        for t in hard:
            pdf = _merge_hard_pandas(pdf, by_table[t], scenario.repo.to_pandas(t))
        aug_cols = [c for c in pdf.columns if "__" in c]
        pdf = _impute_pandas(pdf, aug_cols, cfg.seed)
        pdf = pdf.drop(columns=[c for c in scenario.key_cols if c in pdf.columns])
        X, y, names, _ = assemble(pdf, scenario.target, scenario.task)
        return _estimate_from_matrix(scenario, used_tables, kept_names,
                                     X, y, names, cfg)
    df = _join_chain(df, [by_table[t] for t in hard], scenario, cfg.seed)
    aug_cols = [c for c in df.columns if "__" in c]
    if aug_cols:
        df = df.localCheckpoint(eager=True)
        df = impute(df, cols=aug_cols, seed=cfg.seed)
    df = df.drop(*[c for c in scenario.key_cols if c in df.columns])
    X, y, names, _ = assemble(df, scenario.target, scenario.task)
    return _estimate_from_matrix(scenario, used_tables, kept_names,
                                 X, y, names, cfg)


def _estimate_from_matrix(scenario: Scenario, used_tables: set[str],
                          kept_names: list[str], X: np.ndarray, y: np.ndarray,
                          names: list[str], cfg: ArdaConfig) -> tuple[float, int]:
    keep_set = set(kept_names)
    cols = [j for j, nm in enumerate(names)
            if nm in keep_set or _is_base(nm, scenario, used_tables)]
    Xs = X[:, cols]
    strat = y if scenario.task == "cls" else None
    # Average over two holdout splits to damp split noise; within each,
    # "lightly auto-optimized": two capacities, keep the better (paper §7).
    split_scores = []
    for split_seed in (cfg.seed, cfg.seed + 1000):
        tr, te = train_test_split(len(y), 0.25, split_seed, strat)
        best = None
        for depth in (8, 12):
            m = make_estimator(scenario.task, seed=cfg.seed,
                               n_trees=cfg.final_trees, max_depth=depth)
            m.fit(Xs[tr], y[tr])
            pred = m.predict(Xs[te])
            s = accuracy(y[te], pred) if scenario.task == "cls" else -mae(y[te], pred)
            if best is None or s > best:
                best = s
        split_scores.append(best)
    avg = float(np.mean(split_scores))
    metric = avg if scenario.task == "cls" else -avg
    return float(metric), len(used_tables)


def run_arda(spark: SparkSession, scenario: Scenario,
             cfg: ArdaConfig | None = None) -> ArdaResult:
    """Single-shot pipeline: prepare, select with ``cfg.selector``, estimate."""
    cfg = cfg or ArdaConfig()
    t0 = time.perf_counter()
    if cfg.selector in ("baseline", "none"):
        score, _ = final_estimate(spark, scenario, [], cfg)
        dt = time.perf_counter() - t0
        return ArdaResult(scenario.name, cfg.selector, score, 0, [], 0.0, dt, 0)
    batches, info = prepare_batches(spark, scenario, cfg)
    kept, sel_s, fits = run_selector(batches, cfg.selector, scenario.task, cfg)
    score, n_tables = final_estimate(spark, scenario, kept, cfg)
    dt = time.perf_counter() - t0
    return ArdaResult(scenario.name, cfg.selector, score, len(kept), kept,
                      sel_s, dt, n_tables,
                      extra={"model_fits": fits, **info})
