"""Benchmark workloads: one scenario, one ARDA configuration and the
comparator rows that share its prepared batches.

Every workload runs at the repository's ``quick`` scenario sizes with the
``quick`` ARDA configuration, the profile the experiment jobs use for
smoke runs. The workload seed seeds the scenario generator and
``ArdaConfig.seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    methods: tuple[str, ...]  # comparator rows; the ARDA row is always "rifs"
    why: str
    cfg: dict = field(default_factory=dict)  # overrides of make_cfg(quick=True)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="school_hard",
        scenario="school_s",
        methods=("baseline", "all_features", "forward_selection"),
        # Two adds fix forward selection's work at 1 + 24 + 23 holdout
        # fits; the quick cap of 8 adds stops after a seed-dependent
        # number of them.
        cfg={"wrapper_max_features": 2},
        why="16 hard-key tables with partial key coverage, classification: "
            "the Spark join chain leads the ARDA run; 48 narrow holdout fits"),
    Workload(
        name="taxi_soft",
        scenario="taxi",
        methods=("baseline", "all_features"),
        why="29 tables with a resampled two-way soft join, regression; "
            "all_features sends 28 hard tables down the pandas wide-fan path"),
]}
