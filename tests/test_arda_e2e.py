"""End-to-end ARDA pipeline integration tests (paper §3 workflow).

These run the full coreset -> plan -> join -> select -> estimate loop on
shrunken scenarios and assert the paper's qualitative claims: augmentation
beats the baseline, RIFS prunes noise tables, every strategy runs, and the
TR prefilter removes tables.
"""
import numpy as np
import pytest

from repro.core.arda import (ArdaConfig, final_estimate, join_candidate,
                             prepare_batches, run_arda, run_selector)
from repro.core.rifs import RIFSConfig
from repro.repository import datasets


@pytest.fixture(scope="module")
def school(spark):
    return datasets.school_s(spark, n_schools=600)


@pytest.fixture(scope="module")
def school_cfg():
    return ArdaConfig(coreset_size=400, rifs=RIFSConfig(k=6), eval_trees=15,
                      final_trees=40)


@pytest.fixture(scope="module")
def school_batches(spark, school, school_cfg):
    return prepare_batches(spark, school, school_cfg)


class TestPrepare:
    def test_batches_encode_coreset(self, school_batches, school_cfg):
        batches, info = school_batches
        assert info["n_batches"] >= 1
        for b in batches:
            assert b.X.shape[0] == school_cfg.coreset_size
            assert len(b.names) == b.X.shape[1]
            assert set(b.base_idx) & set(b.aug_idx) == set()

    def test_key_columns_not_encoded(self, school_batches):
        batches, _ = school_batches
        assert all("school_id" not in nm for b in batches for nm in b.names)

    def test_no_nans_after_impute(self, school_batches):
        batches, _ = school_batches
        for b in batches:
            assert np.isfinite(b.X).all()

    def test_aug_columns_prefixed_with_table(self, school, school_batches):
        batches, _ = school_batches
        tables = set(school.repo.names())
        for b in batches:
            for j in b.aug_idx:
                assert b.names[j].split("__", 1)[0] in tables


class TestSelectors:
    def test_augmentation_beats_baseline(self, spark, school, school_cfg,
                                         school_batches):
        batches, _ = school_batches
        base_score, _ = final_estimate(spark, school, [], school_cfg)
        kept, _, _ = run_selector(batches, "rifs", "cls", school_cfg)
        rifs_score, _ = final_estimate(spark, school, kept, school_cfg)
        assert rifs_score > base_score + 0.05

    def test_rifs_prunes_most_noise_tables(self, spark, school, school_cfg,
                                           school_batches):
        batches, _ = school_batches
        kept, _, _ = run_selector(batches, "rifs", "cls", school_cfg)
        kept_tables = {nm.split("__", 1)[0] for nm in kept}
        noise_kept = kept_tables - school.signal_tables
        # at this shrunken scale a handful of spurious tables may survive;
        # the paper-shape claim is that MOST of the 12 noise tables go
        assert len(noise_kept) <= 6

    def test_all_features_keeps_everything(self, school, school_cfg,
                                           school_batches):
        batches, _ = school_batches
        kept, _, _ = run_selector(batches, "all_features", "cls", school_cfg)
        n_aug = sum(len(b.aug_idx) for b in batches)
        assert len(kept) == n_aug

    def test_baseline_selector_keeps_nothing(self, school, school_cfg,
                                             school_batches):
        batches, _ = school_batches
        kept, secs, fits = run_selector(batches, "baseline", "cls", school_cfg)
        assert kept == [] and fits == 0

    def test_ranking_selector_runs(self, school, school_cfg, school_batches):
        batches, _ = school_batches
        kept, _, fits = run_selector(batches, "f_test", "cls", school_cfg)
        assert fits > 0

    def test_inapplicable_selector_raises(self, school_cfg, school_batches):
        batches, _ = school_batches
        for selector in ("lasso", "nope"):  # n/a for the task; unknown
            with pytest.raises(ValueError):
                run_selector(batches, selector, "cls", school_cfg)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["table", "budget", "full"])
    def test_each_join_strategy_runs(self, spark, school, strategy):
        cfg = ArdaConfig(coreset_size=300, join_strategy=strategy, budget=40,
                         rifs=RIFSConfig(k=3), eval_trees=10, final_trees=20)
        batches, info = prepare_batches(spark, school, cfg)
        expect = {"table": len(school.candidates), "full": 1}
        if strategy in expect:
            assert info["n_batches"] == expect[strategy]
        else:
            assert 1 < info["n_batches"] < len(school.candidates)

    def test_tr_prefilter_removes_tables(self, spark, school):
        # noise tables cover 50-100% of the key domain, so TR = 1/coverage;
        # tau=1.2 removes those covering < ~83%
        cfg = ArdaConfig(coreset_size=300, tr_tau=1.2, rifs=RIFSConfig(k=3),
                         eval_trees=10)
        batches, info = prepare_batches(spark, school, cfg)
        assert info["tr_removed"] > 0


class TestRunArda:
    def test_single_shot_rifs(self, spark, school):
        cfg = ArdaConfig(coreset_size=300, rifs=RIFSConfig(k=3), eval_trees=12,
                         final_trees=30, selector="rifs")
        res = run_arda(spark, school, cfg)
        assert res.selector == "rifs" and 0.5 < res.score <= 1.0
        assert res.select_time_s > 0 and res.n_selected == len(res.selected)

    def test_single_shot_baseline(self, spark, school):
        cfg = ArdaConfig(selector="baseline")
        res = run_arda(spark, school, cfg)
        assert res.n_selected == 0 and res.n_tables_used == 0


class TestSoftJoinIntegration:
    def test_taxi_pipeline_with_soft_weather_join(self, spark):
        sc = datasets.taxi(spark, n_days=80, n_zones=2)
        cfg = ArdaConfig(coreset_size=150, rifs=RIFSConfig(k=3), eval_trees=10,
                         final_trees=25)
        batches, _ = prepare_batches(spark, sc, cfg)
        names = [nm for b in batches for nm in b.names]
        assert any(nm.startswith("weather__") for nm in names)
        base_mae, _ = final_estimate(spark, sc, [], cfg)
        kept, _, _ = run_selector(batches, "random_forest", "reg", cfg)
        aug_mae, _ = final_estimate(spark, sc, kept, cfg)
        assert aug_mae < base_mae  # MAE: lower is better

    def test_join_candidate_dispatch_hard_resample(self, spark):
        sc = datasets.taxi(spark, n_days=30, n_zones=2)
        cand = [c for c in sc.candidates if c.table == "weather"][0]
        cand.soft_mode = "hard_resample"
        out = join_candidate(sc.base, cand, sc.repo["weather"])
        assert out.count() == sc.base.count()
        assert any(c.startswith("weather__") for c in out.columns)


class TestMicroPipeline:
    def test_kraken_rifs_beats_all_features(self, spark):
        sc = datasets.kraken(spark)
        cfg = ArdaConfig(coreset_size=900, rifs=RIFSConfig(k=5), eval_trees=20,
                         final_trees=40)
        batches, _ = prepare_batches(spark, sc, cfg)
        assert len(batches) == 1
        all_kept, _, _ = run_selector(batches, "all_features", "cls", cfg)
        s_all, _ = final_estimate(spark, sc, all_kept, cfg)
        kept, _, _ = run_selector(batches, "rifs", "cls", cfg)
        s_rifs, _ = final_estimate(spark, sc, kept, cfg)
        assert s_rifs > s_all  # noise filtering pays off on kraken

    def test_micro_base_idx_matches_base_feature_cols(self, spark):
        sc = datasets.kraken(spark)
        cfg = ArdaConfig(coreset_size=500, rifs=RIFSConfig(k=3))
        batches, _ = prepare_batches(spark, sc, cfg)
        b = batches[0]
        assert {b.names[j] for j in b.base_idx} == set(sc.base_feature_cols)
