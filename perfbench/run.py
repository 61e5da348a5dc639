"""ARDA pipeline benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload taxi_soft --seed 1 --seconds 30 --trace 0

The process starts a local Spark master with one core per CPU and makes
``SETUP_ROUNDS`` set-up rounds: start a Spark session (the last round's
session is stopped first, untimed), generate the workload's scenario from
``--seed`` and register every table. ``setup_s`` is the median round. The last round's scenario is used from then on.
The first pass is a warm-up: the first pipeline run after the JVM starts
pays class loading and JIT compilation, which made it 1.3-1.7x slower and
uneven. Timed passes follow, closed loop with one caller, until
``--seconds`` have passed since the warm-up began; there is always at
least one. A pass is what the Table 1 and Table 6 jobs do for one
dataset: ``prepare_batches`` once, the ARDA row (``run_selector("rifs")``
+ ``final_estimate``, timed by one clock reading from before the first
call to after the last, as ``run_arda`` times it) and the comparator rows
(select + final estimate each) on the shared batches. Every pass, the
warm-up too, is checked; the reported times are medians over the timed
passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of the first timed
pass, traced, and the span list goes to
``.perfbench/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

from checks import check_batches, check_row, noise_kept_frac, table_of_names
from workloads import WORKLOADS

SETUP_ROUNDS = 9
SHUFFLE_PARTITIONS = 8
BROADCAST_BYTES = 8 << 20  # experiments.common.broadcast_joins default
DRIVER_MEMORY = "2g"
OUT_DIR = ".perfbench"


@dataclass
class Pass:
    arda_s: float = 0.0
    compare_s: float = 0.0
    trace_overhead_s: float = 0.0  # tracing's own time within arda_s
    parts_s: dict[str, float] = field(default_factory=dict)  # stage and row times
    problems: list[str] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)
    kept: list[str] = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    n_features: int = 0
    coreset_rows: int = 0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def configure_spark_env(root: Path) -> None:
    """Keep Spark's scratch files and the JVM's temp dir in the checkout.
    Must run before pyspark starts the JVM."""
    tmp = root / OUT_DIR / "tmp"
    local = root / OUT_DIR / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    # No hsperfdata: every JVM, spark-submit's launcher too, would write it
    # under /tmp whatever java.io.tmpdir says.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{nproc()}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp}')} "
        f"--conf spark.local.dir={shlex.quote(str(local))} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell")


def start_session():
    from pyspark.sql import SparkSession

    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm(spark) -> None:
    """Stop the session, then close the gateway's stdin so the JVM exits,
    and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Bench:
    def __init__(self, workload, seed: int, rec=None):
        self.w = workload
        self.seed = seed
        self.rec = rec
        self.active = None  # the recorder while the traced pass runs
        self.spark = None
        self.scenario = None
        self._groups = count()

    # ------------------------------------------------------------ set-up
    def setup(self) -> list[float]:
        from repro.experiments.common import scenario_sizes
        from repro.repository.datasets import load_scenario

        sizes = scenario_sizes(self.w.scenario, quick=True)
        times = []
        for _ in range(SETUP_ROUNDS):
            if self.spark is not None:
                # Tearing down the last round's session is not set-up; its
                # time varied 0.04-0.5 s from round to round.
                self.spark.stop()
            t0 = time.perf_counter()
            self.spark = start_session()
            with self.rec.span("repository.load") if self.rec else nullcontext():
                self.scenario = load_scenario(self.spark, self.w.scenario,
                                              seed=self.seed, **sizes)
            times.append(time.perf_counter() - t0)
        return times

    # ------------------------------------------------------------- passes
    def _call(self, stage: str, span: str, fn, *args):
        """Time one stage call; traced runs add a span and a job group, and
        add the job-group bookkeeping to the recorder's overhead."""
        rec = self.active
        if rec is None:
            t0 = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - t0
        t_in = rec.clock()
        sc = self.spark.sparkContext
        group = f"perfbench-{next(self._groups)}"
        rec.stage = stage
        sc.setJobGroup(group, stage)
        try:
            with rec.span(span) as s:
                out = fn(*args)
            return out, s.duration
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            tracker = sc.statusTracker()
            jobs = tracker.getJobIdsForGroup(group)
            rec.count("spark.jobs", len(jobs))
            rec.count("spark.jobs_failed", sum(
                1 for j in jobs
                if (info := tracker.getJobInfo(j)) is not None
                and info.status == "FAILED"))
            rec.overhead_s += rec.clock() - t_in - s.duration

    def run_pass(self, cfg, n_rows: int) -> Pass:
        from repro.core.arda import final_estimate, prepare_batches, run_selector

        sc, spark, p, rec = self.scenario, self.spark, Pass(), self.active
        overhead0 = rec.overhead_s if rec is not None else 0.0
        t0 = time.perf_counter()
        (batches, _), t_prep = self._call("prepare", "arda.prepare",
                                          prepare_batches, spark, sc, cfg)
        (kept, _, _), t_sel = self._call("select", "arda.select", run_selector,
                                         batches, "rifs", sc.task, cfg)
        (score, n_tables), t_fin = self._call("final", "arda.final",
                                              final_estimate, spark, sc, kept, cfg)
        p.arda_s = time.perf_counter() - t0
        if rec is not None:
            p.trace_overhead_s = rec.overhead_s - overhead0
            rec.stage = "prepare"
            rec.count("joins.batches", len(batches))
        p.problems += check_batches(batches, n_rows)
        p.tables = table_of_names(batches)
        p.n_features = sum(b.X.shape[1] for b in batches)
        p.coreset_rows = batches[0].X.shape[0]
        p.problems += check_row("rifs", kept, n_tables, score, p.tables)
        p.parts_s.update(prepare=t_prep, select=t_sel, final=t_fin)
        p.kept, p.scores["rifs"] = kept, score
        for method in self.w.methods:
            t_sel = 0.0
            kept_m: list[str] = []
            if method != "baseline":  # as experiments.common.run_method
                (kept_m, _, _), t_sel = self._call(
                    "select", "compare.select", run_selector,
                    batches, method, sc.task, cfg)
            (score_m, n_tables_m), t_fin = self._call(
                "final", "compare.final", final_estimate, spark, sc, kept_m, cfg)
            p.problems += check_row(method, kept_m, n_tables_m, score_m, p.tables)
            p.compare_s += t_sel + t_fin
            p.parts_s[method] = t_sel + t_fin
            p.scores[method] = score_m
        # Untraced, a failed Spark job surfaces as an exception of the pass.
        if rec is not None and (n := rec.counted("spark.jobs_failed",
                                                 {"prepare", "select", "final"})):
            p.problems.append(f"{n} Spark jobs failed")
        return p

    def measure(self, seconds: float) -> tuple[list[Pass], int]:
        """A warm-up pass, then timed passes until ``seconds`` have passed
        since the warm-up began (at least one). Returns (passes, failed);
        ``passes[0]`` is the warm-up. A traced run traces ``passes[1]``."""
        from repro.experiments.common import broadcast_joins, make_cfg

        cfg = make_cfg(True, seed=self.seed, **self.w.cfg)
        n_rows = min(cfg.coreset_size, self.scenario.base.count())
        passes, failed = [], 0
        start = time.perf_counter()
        with broadcast_joins(self.spark, BROADCAST_BYTES):
            while len(passes) < 2 or time.perf_counter() - start < seconds:
                if self.rec is not None and len(passes) == 1:
                    from layers import install

                    install(self.rec)
                    self.active = self.rec
                t0 = time.perf_counter()
                try:
                    p = self.run_pass(cfg, n_rows)
                except Exception:  # a failed pass is counted, not fatal
                    traceback.print_exc()
                    p = Pass(arda_s=time.perf_counter() - t0,
                             problems=["pass raised an exception"])
                finally:
                    if self.active is not None:
                        self.active.unwrap_all()
                        self.active = None
                if p.problems:
                    failed += 1
                    for msg in p.problems:
                        print(f"check failed: {msg}", file=sys.stderr)
                passes.append(p)
        return passes, failed

    def context(self) -> dict:
        conf = self.spark.conf
        return {
            "git_sha": git_sha(Path.cwd()),
            "nproc": nproc(),
            "spark_version": self.spark.version,
            "master": self.spark.sparkContext.master,
            "shuffle_partitions": int(conf.get("spark.sql.shuffle.partitions")),
            "broadcast_threshold_bytes": BROADCAST_BYTES,
            "driver_memory": DRIVER_MEMORY,
            "workload": self.w.name,
            "seed": self.seed,
        }


def score_lift(task: str, scores: dict[str, float]) -> float:
    from repro.experiments.common import pct_change_score

    return pct_change_score(task, scores["rifs"], scores["baseline"])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "core" / "arda.py").is_file():
        print(f"error: {src / 'repro'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    configure_spark_env(root)
    sys.path.insert(0, str(src))

    rec = None
    if args.trace:
        from spans import Recorder

        rec = Recorder()
    bench = Bench(WORKLOADS[args.workload], args.seed, rec)
    try:
        setup_times = bench.setup()
        passes, failed = bench.measure(args.seconds)
        ctx = bench.context()
        n_tables = len(bench.scenario.repo.tables)
    finally:
        if bench.spark is not None:
            stop_jvm(bench.spark)
        if rec is not None:
            rec.unwrap_all()

    timed, task = passes[1:], bench.scenario.task
    first = timed[0]
    sc = bench.scenario
    extra = {
        "score_lift": (score_lift(task, first.scores)
                       if {"rifs", "baseline"} <= first.scores.keys() else math.nan),
        # accuracy points for classification, % MAE reduction for regression
        "score_lift_unit": "acc_pts" if task == "cls" else "pct",
        "noise_kept_frac": noise_kept_frac(first.kept, first.tables, sc.signal_tables),
        "failed_frac": failed / len(passes),
        "n_kept": len(first.kept),
        "setup_rounds_s": setup_times,
        "pass_times_s": [[p.arda_s, p.compare_s] for p in passes],
        "warmup_s": passes[0].arda_s + passes[0].compare_s,
        "timed_pass_parts_s": first.parts_s,
    }
    print("context " + json.dumps(ctx))
    print("extra " + json.dumps(extra))
    if rec is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "arda_s": metric(statistics.median(p.arda_s for p in timed), "s"),
            "compare_s": metric(statistics.median(p.compare_s for p in timed), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from layers import PER_LAYER, layer_metrics

        values = layer_metrics(rec, first, n_tables)
        write_trace(root, args, rec, values, ctx, extra)
        metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def write_trace(root: Path, args, rec, values: dict, ctx: dict, extra: dict) -> None:
    from spans import self_times

    out = root / OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    totals = {name: {"calls": c, "total_s": t, "self_s": s}
              for name, (c, t, s) in sorted(rec.totals().items())}
    spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
              "stage": s.stage, "self_s": own}
             for s, own in zip(rec.spans, self_times(rec.spans))]
    out.write_text(json.dumps({"context": ctx, "extra": extra, "metrics": values,
                               "totals": totals, "spans": spans}, indent=1))
    print(f"{'span':<24}{'calls':>8}{'total_s':>10}{'self_s':>10}")
    for name, t in totals.items():
        print(f"{name:<24}{t['calls']:>8}{t['total_s']:>10.3f}{t['self_s']:>10.3f}")
    print(f"trace written to {out.relative_to(root)}")


if __name__ == "__main__":
    sys.exit(main())
