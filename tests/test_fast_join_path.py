"""Tests for the driver-side wide-fan join path in final_estimate."""
import numpy as np
import pandas as pd
import pytest

import repro.core.arda as arda
from repro.core.arda import (ArdaConfig, _impute_pandas, _merge_hard_pandas,
                             final_estimate)
from repro.joins.impute import impute
from repro.joins.plan import CandidateJoin
from repro.repository import datasets


class TestMergeHardPandas:
    def test_matches_left_join_semantics(self):
        base = pd.DataFrame({"id": [1, 2, 3], "x": [1.0, 2.0, 3.0]})
        foreign = pd.DataFrame({"fid": [1, 1, 2], "v": [10.0, 30.0, 5.0],
                                "c": ["b", "a", "z"]})
        cand = CandidateJoin(table="T", base_keys=["id"], foreign_keys=["fid"])
        out = _merge_hard_pandas(base, cand, foreign)
        assert len(out) == 3  # base rows preserved
        assert out.loc[out["id"] == 1, "T__v"].iloc[0] == pytest.approx(20.0)
        assert out.loc[out["id"] == 1, "T__c"].iloc[0] == "a"  # min
        assert pd.isna(out.loc[out["id"] == 3, "T__v"]).all()

    def test_same_key_name(self):
        base = pd.DataFrame({"k": [1, 2], "x": [0.0, 1.0]})
        foreign = pd.DataFrame({"k": [1], "v": [9.0]})
        cand = CandidateJoin(table="T", base_keys=["k"], foreign_keys=["k"])
        out = _merge_hard_pandas(base, cand, foreign)
        assert list(out.columns) == ["k", "x", "T__v"]


class TestImputePandas:
    def test_numeric_median(self):
        # the lower median of an even count of observed values, as Spark's
        # percentile_approx gives
        pdf = pd.DataFrame({"a": [1.0, np.nan, 3.0]})
        out = _impute_pandas(pdf, ["a"], seed=0)
        assert out["a"].iloc[1] == pytest.approx(1.0)

    def test_numeric_fill_matches_spark_impute(self, spark):
        vals = [5.0, None, 1.0, 8.0, None, 2.0, 13.0, 3.0]  # 6 observed
        pdf = pd.DataFrame({"row": range(len(vals)), "a": vals})
        want = impute(spark.createDataFrame(pdf), cols=["a"]).toPandas()
        got = _impute_pandas(pdf.copy(), ["a"], seed=0)
        np.testing.assert_array_equal(got.sort_values("row")["a"].to_numpy(),
                                      want.sort_values("row")["a"].to_numpy())

    def test_categorical_from_domain(self):
        pdf = pd.DataFrame({"c": ["x", None, "y", None]})
        out = _impute_pandas(pdf, ["c"], seed=0)
        assert out["c"].isin(["x", "y"]).all()

    def test_all_null_fallback(self):
        pdf = pd.DataFrame({"c": pd.Series([None, None], dtype=object)})
        out = _impute_pandas(pdf, ["c"], seed=0)
        assert (out["c"] == "__missing__").all()


class TestFastPathEquivalence:
    def test_metric_close_to_spark_path(self, spark, monkeypatch):
        sc = datasets.school_s(spark, n_schools=400)
        cfg = ArdaConfig(final_trees=30)
        kept = []
        for c in sc.candidates[:4]:
            ft = sc.repo[c.table]
            kept += [f"{c.table}__{col}" for col in ft.columns
                     if col not in c.foreign_keys]
        spark_metric, nt1 = final_estimate(spark, sc, kept, cfg)
        monkeypatch.setattr(arda, "_FAST_JOIN_MIN_TABLES", 0)
        fast_metric, nt2 = final_estimate(spark, sc, kept, cfg)
        assert nt1 == nt2 == 4
        assert abs(fast_metric - spark_metric) < 0.06
