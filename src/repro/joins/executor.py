"""LEFT-join execution with base-row preservation (paper §4).

Invariants enforced here:
* Only LEFT joins: every base-table row survives exactly once — training
  examples are never added or removed.
* One-to-many / many-to-many joins are reduced to many-to-one by
  pre-aggregating the foreign table on its join keys (mean for numerics,
  min for everything else — deterministic).
* Foreign columns are prefixed ``<table>__`` so repeated augmentation
  never collides.

Composite (multi-column) keys are plain lists; soft keys are handled in
``repro.joins.soft`` and dispatched from ``augment_join``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

__all__ = ["preaggregate", "left_join", "prefix_columns", "NUMERIC_TYPES"]

NUMERIC_TYPES = (T.IntegerType, T.LongType, T.FloatType, T.DoubleType,
                 T.ShortType, T.ByteType, T.DecimalType)


def preaggregate(foreign: DataFrame, keys: list[str]) -> DataFrame:
    """Collapse the foreign table to one row per key tuple."""
    aggs = []
    for f in foreign.schema.fields:
        if f.name in keys:
            continue
        if isinstance(f.dataType, NUMERIC_TYPES):
            aggs.append(F.avg(F.col(f.name)).alias(f.name))
        else:
            aggs.append(F.min(F.col(f.name)).alias(f.name))
    if not aggs:
        return foreign.select(*keys).distinct()
    return foreign.groupBy(*keys).agg(*aggs)


def prefix_columns(df: DataFrame, prefix: str, exclude: list[str]) -> DataFrame:
    """Rename every column not in ``exclude`` to ``<prefix>__<name>``."""
    sel = [F.col(c).alias(c if c in exclude else f"{prefix}__{c}")
           for c in df.columns]
    return df.select(*sel)


def left_join(base: DataFrame, foreign: DataFrame, base_keys: list[str],
              foreign_keys: list[str], prefix: str) -> DataFrame:
    """LEFT-join ``foreign`` onto ``base`` on (possibly composite) keys.

    The foreign side is pre-aggregated first, so the join is many-to-one
    and cannot duplicate base rows. Join keys on the foreign side are
    dropped after the join (the base copy stays).
    """
    if len(base_keys) != len(foreign_keys) or not base_keys:
        raise ValueError("base_keys and foreign_keys must be equal-length, non-empty")
    f = prefix_columns(preaggregate(foreign, foreign_keys), prefix, exclude=[])
    pf_keys = [f"{prefix}__{k}" for k in foreign_keys]
    cond = None
    for bk, fk in zip(base_keys, pf_keys):
        c = base[bk].eqNullSafe(f[fk])
        cond = c if cond is None else (cond & c)
    return base.join(f, cond, "left").drop(*pf_keys)
