"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, stage). ``Recorder.wrap`` replaces a
function or method in the namespace where the pipeline looks it up with a
wrapper that records a span around every call, so the program itself is
not edited. Counts are recorded at the same boundaries. The time the
wrappers spend outside the calls they wrap adds up in
``Recorder.overhead_s``: the tracing's own cost. Nothing here imports
Spark, so the arithmetic can be tested on its own.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index into Recorder.spans
    stage: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (stage, name) -> n
        self.stage = "setup"
        self.overhead_s = 0.0  # time spent in wrappers outside their spans
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), None, parent, self.stage)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.stage, name)] += n

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Record span ``name`` around every call of ``owner.attr``.

        ``on_call(recorder, args, kwargs)`` may add counts from the
        arguments before the call runs.
        """
        original = getattr(owner, attr)
        rec = self

        def traced(*args, **kwargs):
            t_in = rec.clock()
            if on_call is not None:
                on_call(rec, args, kwargs)
            try:
                with rec.span(name) as span:
                    return original(*args, **kwargs)
            finally:
                rec.overhead_s += rec.clock() - t_in - span.duration

        traced.__wrapped__ = original
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, before in reversed(self._patches):
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)
        self._patches.clear()

    def totals(self, stages: set[str] | None = None
               ) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        out: dict[str, list] = {}
        for s, own in zip(self.spans, self_times(self.spans)):
            if stages is not None and s.stage not in stages:
                continue
            acc = out.setdefault(s.name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += s.duration
            acc[2] += own
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def counted(self, name: str, stages: set[str]) -> int:
        return sum(n for (st, nm), n in self.counts.items()
                   if nm == name and st in stages)
