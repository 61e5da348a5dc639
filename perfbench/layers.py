"""Layer boundaries of the ARDA pipeline and the per-layer metrics.

``install`` wraps each layer call in the namespace where the pipeline
looks it up:

* the pipeline calls ``join_candidate``, ``impute``, ``build_coreset``,
  ``assemble``, ``make_plan``, ``rifs_select`` and ``forward_selection``
  through ``repro.core.arda``'s globals, so those are wrapped there and
  not in their home modules;
* ``rifs_fractions`` binds ``rank_fn=ensemble_scores`` at definition
  time, so the ranking models are wrapped in ``repro.core.ranking``,
  whose globals ``ensemble_scores`` reads;
* in pyspark 4, ``localCheckpoint`` and ``toPandas`` of a classic session's
  DataFrame live on ``pyspark.sql.classic.dataframe.DataFrame``.

Stages are the three pipeline calls: ``prepare`` (``prepare_batches``),
``select`` (``run_selector``) and ``final`` (``final_estimate``). Metrics
without a stage prefix come from ``prepare`` and ``select``; metrics named
``final.*`` come from ``final_estimate`` calls of every row.
"""
from __future__ import annotations

import statistics

from spans import Recorder

# (name, unit, better) of every per-layer metric the traced run reports.
# Metrics that are zero on a workload, or on some seeds, because the layer
# is not called are in the trace file but not here: wrappers on taxi_soft,
# soft joins and the pandas wide-fan path on school_hard, final-stage joins
# and checkpoints when RIFS keeps nothing. Failed Spark jobs are not a
# metric; they fail the pass.
PER_LAYER = [
    ("repository.load_s", "s", "lower"),
    ("repository.tables", "count", "higher"),
    ("coreset.build_s", "s", "lower"),
    ("coreset.rows", "count", "higher"),
    ("joins.batches", "count", "lower"),
    ("joins.calls", "count", "lower"),
    ("joins.build_s", "s", "lower"),
    ("joins.impute_s", "s", "lower"),
    ("joins.impute_calls", "count", "lower"),
    ("spark.checkpoint_s", "s", "lower"),
    ("spark.checkpoints", "count", "lower"),
    ("spark.collect_s", "s", "lower"),
    ("spark.collects", "count", "lower"),
    ("spark.jobs", "count", "lower"),
    ("encode.assemble_s", "s", "lower"),
    ("encode.features", "count", "higher"),
    ("rifs.fractions_s", "s", "lower"),
    ("rifs.rounds", "count", "lower"),
    ("rank.forest_s", "s", "lower"),
    ("rank.forest_calls", "count", "lower"),
    ("rank.l21_s", "s", "lower"),
    ("rank.l21_calls", "count", "lower"),
    ("evaluator.score_s", "s", "lower"),
    ("evaluator.fits", "count", "lower"),
    ("forest.fit_s", "s", "lower"),
    ("forest.fits", "count", "lower"),
    ("forest.predict_s", "s", "lower"),
    ("final.joins.calls", "count", "lower"),
    ("final.spark.collect_s", "s", "lower"),
    ("final.spark.jobs", "count", "lower"),
    ("final.forest.fit_s", "s", "lower"),
    ("final.forest.fits", "count", "lower"),
    ("arda.prepare_s", "s", "lower"),
    ("arda.select_s", "s", "lower"),
    ("arda.final_s", "s", "lower"),
    ("arda.traced_s", "s", "lower"),
    ("compare.traced_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

PIPELINE = {"prepare", "select"}
FINAL = {"final"}


def _count_join(rec: Recorder, args, kwargs) -> None:
    cand = args[1] if len(args) > 1 else kwargs["cand"]
    rec.count("joins.calls")
    if cand.soft:
        rec.count("joins.soft_calls")


def install(rec: Recorder) -> None:
    from pyspark.sql.classic.dataframe import DataFrame

    import repro.core.arda as arda
    import repro.core.ranking as ranking
    import repro.core.rifs as rifs
    from repro.ml.evaluate import Evaluator
    from repro.ml.forest import RandomForest
    from repro.repository.repo import DataRepository

    rec.wrap(arda, "build_coreset", "coreset.build")
    rec.wrap(arda, "sketch_dataset", "coreset.sketch")
    rec.wrap(arda, "make_plan", "joins.plan")
    rec.wrap(arda, "join_candidate", "joins.build", on_call=_count_join)
    rec.wrap(arda, "impute", "joins.impute")
    rec.wrap(DataFrame, "localCheckpoint", "spark.checkpoint")
    rec.wrap(DataFrame, "toPandas", "spark.collect")
    rec.wrap(DataRepository, "to_pandas", "repository.to_pandas")
    rec.wrap(arda, "assemble", "encode.assemble")
    rec.wrap(arda, "rifs_select", "rifs.select")
    rec.wrap(rifs, "rifs_fractions", "rifs.fractions")
    rec.wrap(rifs, "inject_random_features", "rifs.inject")  # once per round
    rec.wrap(ranking, "random_forest_scores", "rank.forest")
    rec.wrap(ranking, "sparse_regression_scores", "rank.l21")
    rec.wrap(Evaluator, "score", "evaluator.score")
    rec.wrap(arda, "forward_selection", "wrappers.select")
    rec.wrap(RandomForest, "fit", "forest.fit")
    rec.wrap(RandomForest, "predict", "forest.predict")


def _fits_under(rec: Recorder, parent_name: str, stages: set[str]) -> int:
    return sum(1 for s in rec.spans
               if s.name == "forest.fit" and s.stage in stages
               and s.parent is not None
               and rec.spans[s.parent].name == parent_name)


def layer_metrics(rec: Recorder, p, n_tables: int) -> dict[str, float]:
    """Span totals and counts of the traced pass ``p``, keyed by metric name.

    ``arda.traced_s`` is ``p.arda_s``, one clock reading around the three
    stage calls, not a sum of spans. The stage spans should sum to it
    within ``trace.overhead_s``, the tracing's own time in that reading.
    """
    pipe, fin = rec.totals(PIPELINE), rec.totals(FINAL)

    def secs(t, name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def calls(t, name):
        return t.get(name, (0, 0.0, 0.0))[0]

    counted = rec.counted

    loads = [s.duration for s in rec.spans if s.name == "repository.load"]
    arda = rec.totals()
    return {
        "repository.load_s": statistics.median(loads),
        "repository.tables": n_tables,
        "coreset.build_s": secs(pipe, "coreset.build"),
        "coreset.rows": p.coreset_rows,
        "joins.batches": counted("joins.batches", PIPELINE),
        "joins.calls": counted("joins.calls", PIPELINE),
        "joins.soft_calls": counted("joins.soft_calls", PIPELINE),
        "joins.build_s": secs(pipe, "joins.build"),
        "joins.impute_s": secs(pipe, "joins.impute"),
        "joins.impute_calls": calls(pipe, "joins.impute"),
        "spark.checkpoint_s": secs(pipe, "spark.checkpoint"),
        "spark.checkpoints": calls(pipe, "spark.checkpoint"),
        "spark.collect_s": secs(pipe, "spark.collect"),
        "spark.collects": calls(pipe, "spark.collect"),
        "spark.jobs": counted("spark.jobs", PIPELINE),
        "encode.assemble_s": secs(pipe, "encode.assemble"),
        "encode.features": p.n_features,
        "rifs.fractions_s": secs(pipe, "rifs.fractions"),
        "rifs.rounds": calls(pipe, "rifs.inject"),
        "rank.forest_s": secs(pipe, "rank.forest"),
        "rank.forest_calls": calls(pipe, "rank.forest"),
        "rank.l21_s": secs(pipe, "rank.l21"),
        "rank.l21_calls": calls(pipe, "rank.l21"),
        "evaluator.score_s": secs(pipe, "evaluator.score"),
        "evaluator.fits": _fits_under(rec, "evaluator.score", PIPELINE),
        "wrappers.select_s": secs(pipe, "wrappers.select"),
        "wrappers.calls": calls(pipe, "wrappers.select"),
        "forest.fit_s": secs(pipe, "forest.fit"),
        "forest.fits": calls(pipe, "forest.fit"),
        "forest.predict_s": secs(pipe, "forest.predict"),
        "final.joins.calls": counted("joins.calls", FINAL),
        "final.joins.build_s": secs(fin, "joins.build"),
        "final.repository.to_pandas_calls": calls(fin, "repository.to_pandas"),
        "final.spark.checkpoint_s": secs(fin, "spark.checkpoint"),
        "final.spark.collect_s": secs(fin, "spark.collect"),
        "final.spark.jobs": counted("spark.jobs", FINAL),
        "final.forest.fit_s": secs(fin, "forest.fit"),
        "final.forest.fits": calls(fin, "forest.fit"),
        "arda.prepare_s": secs(arda, "arda.prepare"),
        "arda.select_s": secs(arda, "arda.select"),
        "arda.final_s": secs(arda, "arda.final"),
        "arda.traced_s": p.arda_s,
        "compare.traced_s": p.compare_s,
        "trace.overhead_s": p.trace_overhead_s,
        "trace.spans": sum(1 for s in rec.spans if s.stage != "setup"),
    }
