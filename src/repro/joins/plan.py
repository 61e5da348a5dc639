"""Join plans: candidate ordering, table grouping, budgets (paper §4).

A ``CandidateJoin`` is what the discovery system emits: which base
column(s) join which foreign column(s) of which table, whether the key is
soft, and a relevance score. ``make_plan`` turns a scored candidate list
into batches:

* ``table``  — one table per batch, in priority order;
* ``budget`` — as many tables per batch as fit a feature budget
  (default = coreset size), with the paper's exception that a single
  table wider than the budget still ships whole to feature selection;
* ``full``   — every table in one batch (full materialization).
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CandidateJoin", "make_plan", "order_candidates"]


@dataclass
class CandidateJoin:
    """One discovered join opportunity (one batch element)."""

    table: str
    base_keys: list[str]
    foreign_keys: list[str]
    score: float = 0.0  # discovery relevance (intersection score)
    soft: bool = False  # soft key: join on closest value, not equality
    soft_mode: str = "nearest"  # "nearest" | "two_way" | "hard_resample"
    n_features: int = 0  # feature columns the join would add

    @property
    def prefix(self) -> str:
        return self.table


def order_candidates(candidates: list[CandidateJoin]) -> list[CandidateJoin]:
    """Priority order: discovery score desc, then name for determinism."""
    return sorted(candidates, key=lambda c: (-c.score, c.table))


def make_plan(candidates: list[CandidateJoin], strategy: str = "budget",
              budget: int | None = None) -> list[list[CandidateJoin]]:
    cands = order_candidates(candidates)
    if strategy == "table":
        return [[c] for c in cands]
    if strategy == "full":
        return [list(cands)] if cands else []
    if strategy != "budget":
        raise ValueError(f"unknown join strategy {strategy!r}")
    if budget is None or budget <= 0:
        raise ValueError("budget strategy needs a positive feature budget")
    batches: list[list[CandidateJoin]] = []
    cur: list[CandidateJoin] = []
    used = 0
    for c in cands:
        width = max(1, c.n_features)
        if width >= budget and not cur:
            # Wider-than-budget table: ships alone, whole (paper §4).
            batches.append([c])
            continue
        if used + width > budget and cur:
            batches.append(cur)
            cur, used = [], 0
        if width >= budget:
            batches.append([c])
        else:
            cur.append(c)
            used += width
    if cur:
        batches.append(cur)
    return batches
