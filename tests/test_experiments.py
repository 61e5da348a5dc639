"""Tests for the experiments layer (the table-reproduction jobs).

Full-scale runs live in benchmarks/; here the helpers are unit-tested and
each run() path is exercised at quick scale with shrunken selector lists.
"""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import common, table4, table5, table6


class TestHelpers:
    def test_pct_change_cls_is_points(self):
        assert common.pct_change_score("cls", 0.85, 0.80) == pytest.approx(5.0)

    def test_pct_change_reg_is_error_reduction(self):
        assert common.pct_change_score("reg", 8.0, 10.0) == pytest.approx(20.0)
        assert common.pct_change_score("reg", 12.0, 10.0) == pytest.approx(-20.0)

    def test_pct_change_zero_ref(self):
        assert common.pct_change_score("reg", 1.0, 0.0) == 0.0

    def test_selector_lists_match_paper_applicability(self):
        assert "lasso" in common.REG_SELECTORS
        assert "lasso" not in common.CLS_SELECTORS
        assert {"linear_svc", "logistic_reg"} <= set(common.CLS_SELECTORS)
        assert not {"linear_svc", "logistic_reg"} & set(common.REG_SELECTORS)

    def test_scenario_sizes_quick_smaller(self):
        full = common.scenario_sizes("poverty", quick=False)["n_counties"]
        quick = common.scenario_sizes("poverty", quick=True)["n_counties"]
        assert quick < full

    def test_make_cfg_overrides(self):
        cfg = common.make_cfg(True, coreset_method="sketch", budget=99)
        assert cfg.coreset_method == "sketch" and cfg.budget == 99

    def test_broadcast_joins_restores(self, spark):
        key = "spark.sql.autoBroadcastJoinThreshold"
        before = spark.conf.get(key)
        with common.broadcast_joins(spark):
            assert spark.conf.get(key) != before
        assert spark.conf.get(key) == before

    def test_save_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = common.save_table(pd.DataFrame({"a": [1]}), "unit")
        assert pd.read_csv(p)["a"].tolist() == [1]

    def test_method_result_row_drops_kept(self):
        r = common.MethodResult("d", "m", 0.5, 1.0, kept=["x"])
        assert "kept" not in r.row()


class TestRunsQuick:
    """Each table path end-to-end at smoke scale (selector lists shrunk)."""

    def test_table6_kraken(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table6, "selector_list", lambda task: ["rifs", "f_test"])
        df = table6.run(spark, quick=True, only=["kraken"])
        by = df.set_index("method")
        assert by.loc["rifs", "metric"] > by.loc["baseline", "metric"]
        assert by.loc["rifs", "n_noise_kept"] <= by.loc["rifs", "n_selected"]
        assert {"baseline", "all_features", "automl_base", "automl_all"} <= set(df["method"])

    def test_table5_poverty_single_selector(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table5, "SELECTORS", ["random_forest"])
        df = table5.run(spark, quick=True, only=["poverty"])
        assert set(df.columns) >= {"table_delta_pct", "fullmat_delta_pct"}
        assert len(df) == 1

    def test_table4_school(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        df = table4.run(spark, quick=True, only=["school_s"])
        row = df.iloc[0]
        assert row["tables_removed"] > 0
        assert np.isfinite(row["speedup_x"]) and row["speedup_x"] > 0
