"""Output checks on one pipeline pass. Each returns a list of problems;
an empty list means the outputs are correct."""
from __future__ import annotations

import math

import numpy as np


def table_of_names(batches) -> dict[str, str | None]:
    """Every augmented column of every batch -> the table it came from
    (None on the no-repository path, where augmentation is base columns)."""
    out: dict[str, str | None] = {}
    for b in batches:
        for j in b.aug_idx:
            nm = b.names[j]
            out[nm] = next((t for t in b.tables if nm.startswith(t + "__")), None)
    return out


def check_batches(batches, n_rows: int) -> list[str]:
    """LEFT-join row preservation (paper §4): every batch keeps all
    ``n_rows`` coreset rows and all batches share one label vector."""
    problems = []
    if not batches:
        return ["prepare_batches returned no batches"]
    y0 = batches[0].y
    for i, b in enumerate(batches):
        if b.X.shape[0] != n_rows or len(b.y) != n_rows:
            problems.append(f"batch {i} has {b.X.shape[0]} rows, expected {n_rows}")
        elif not np.array_equal(b.y, y0):
            problems.append(f"batch {i} label vector differs from batch 0")
    return problems


def check_row(method: str, kept: list[str], n_tables: int, score: float,
              tables: dict[str, str | None]) -> list[str]:
    """Kept names are augmented columns, ``n_tables`` matches the tables
    behind them, and the score is finite."""
    problems = []
    unknown = [nm for nm in kept if nm not in tables]
    if unknown:
        problems.append(f"{method}: {len(unknown)} kept names are not augmented "
                        f"columns, e.g. {unknown[0]!r}")
    behind = {tables[nm] for nm in kept if tables.get(nm) is not None}
    if n_tables != len(behind):
        problems.append(f"{method}: final_estimate used {n_tables} tables, "
                        f"kept names come from {len(behind)}")
    if not math.isfinite(score):
        problems.append(f"{method}: score {score} is not finite")
    return problems


def noise_kept_frac(kept: list[str], tables: dict[str, str | None],
                    signal_tables: set[str]) -> float:
    """Share of kept augmented features that come from planted noise:
    non-signal tables, or ``noise_*`` columns on the no-repository path."""
    if not kept:
        return 0.0
    noise = [nm for nm in kept
             if (tables.get(nm) not in signal_tables if tables.get(nm) is not None
                 else nm.startswith("noise_"))]
    return len(noise) / len(kept)
