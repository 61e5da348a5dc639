"""Self-test of the benchmark: span nesting, self time, totals, counts,
wrapping, and agreement between BENCHMARK.json and the code. Needs no
Spark. Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py -q
or
    python3 perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import PER_LAYER, layer_metrics  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5  # [1,5] + [7,8]
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2  # clipped to [0,10]
    assert covered([(2, 4), (2, 4)], 0, 10) == 2  # duplicates count once


def test_self_time_subtracts_children_not_grandchildren():
    spans = [Span("root", 0, 10, None, "s"),
             Span("a", 1, 4, 0, "s"),
             Span("a1", 2, 3, 1, "s"),
             Span("b", 5, 9, 0, "s")]
    assert self_times(spans) == [10 - 3 - 4, 3 - 1, 1, 4]
    # every instant of the root is someone's self time exactly once
    assert math.isclose(sum(self_times(spans)), spans[0].duration)


def test_recorder_nesting_totals_and_stages():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.stage = "prepare"
    with rec.span("outer"):
        clock.tick(1)
        with rec.span("inner"):
            clock.tick(2)
        rec.count("jobs", 3)
        clock.tick(0.5)
    rec.stage = "final"
    with rec.span("inner"):
        clock.tick(4)
    rec.count("jobs")

    outer, inner1, inner2 = rec.spans
    assert (outer.parent, inner1.parent, inner2.parent) == (None, 0, None)
    assert (inner1.stage, inner2.stage) == ("prepare", "final")
    assert rec.totals() == {"outer": (1, 3.5, 1.5), "inner": (2, 6.0, 6.0)}
    assert rec.totals({"prepare"})["inner"] == (1, 2.0, 2.0)
    assert rec.counted("jobs", {"prepare"}) == 3
    assert rec.counted("jobs", {"prepare", "final"}) == 4


def test_span_closes_on_exception():
    clock = FakeClock()
    rec = Recorder(clock)
    try:
        with rec.span("boom"):
            clock.tick(1)
            raise ValueError
    except ValueError:
        pass
    with rec.span("after"):
        pass
    assert rec.spans[0].end == 1
    assert rec.spans[1].parent is None


def test_wrap_records_calls_and_unwrap_restores():
    clock = FakeClock()
    rec = Recorder(clock)
    mod = types.SimpleNamespace(work=lambda x: clock.tick(x) or x * 2)

    class Model:
        def fit(self, x):
            return mod.work(x)

    original_work = mod.work
    rec.wrap(mod, "work", "layer.work",
             on_call=lambda r, args, kwargs: r.count("layer.items", args[0]))
    rec.wrap(Model, "fit", "layer.fit")
    assert Model().fit(3) == 6
    assert [s.name for s in rec.spans] == ["layer.fit", "layer.work"]
    assert rec.spans[1].parent == 0
    assert rec.totals()["layer.fit"] == (1, 3.0, 0.0)
    assert rec.counted("layer.items", {"setup"}) == 3

    rec.unwrap_all()
    assert mod.work is original_work
    assert "fit" in vars(Model) and not hasattr(Model.fit, "__wrapped__")


def test_overhead_counts_wrapper_time_outside_spans():
    clock = FakeClock()
    rec = Recorder(clock)
    mod = types.SimpleNamespace(work=lambda: clock.tick(5))
    rec.wrap(mod, "work", "layer.work",
             on_call=lambda r, args, kwargs: clock.tick(0.25))
    mod.work()
    mod.work()
    assert rec.totals()["layer.work"] == (2, 10.0, 10.0)
    assert rec.overhead_s == 0.5


def test_layer_metrics_reports_every_per_layer_metric():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("repository.load"):
        clock.tick(1)
    for stage in ("prepare", "select", "final"):
        rec.stage = stage
        with rec.span(f"arda.{stage}"):
            clock.tick(2)
    p = types.SimpleNamespace(arda_s=6.0, compare_s=1.0, trace_overhead_s=0.0,
                              coreset_rows=384, n_features=120)
    values = layer_metrics(rec, p, n_tables=16)
    assert {name for name, _, _ in PER_LAYER} <= values.keys()
    assert values["arda.prepare_s"] + values["arda.select_s"] + values["arda.final_s"] == 6
    assert values["repository.load_s"] == 1 and values["trace.spans"] == 3


def test_unwrap_of_inherited_method_removes_override():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    rec = Recorder(FakeClock())
    rec.wrap(Child, "f", "f")
    assert Child().f() == 1 and "f" in vars(Child)
    rec.unwrap_all()
    assert "f" not in vars(Child) and Child().f() == 1


def test_benchmark_json_matches_code():
    spec = json.loads(SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "arda_s", "compare_s", "peak_rss_mb"}
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
    print(f"{len(tests)} tests passed")
