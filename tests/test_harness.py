"""Unit tests for the experiment harness (workbench + runner)."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.harness import (
    Workbench,
    make_sampler,
    run_direct_experiment,
    run_pcor_experiment,
)

BENCH_ARGS = ("salary_reduced", 400, 7, "lof", {"k": 5, "threshold": 1.5})


@pytest.fixture(scope="module")
def bench() -> Workbench:
    return Workbench.get(*BENCH_ARGS)


class TestWorkbench:
    def test_memoised(self, bench):
        assert Workbench.get(*BENCH_ARGS) is bench

    def test_different_config_different_bench(self, bench):
        other = Workbench.get("salary_reduced", 400, 8, "lof", {"k": 5, "threshold": 1.5})
        assert other is not bench

    def test_unknown_dataset(self):
        with pytest.raises(ExperimentError, match="unknown dataset"):
            Workbench.get("census", 100, 0, "lof")

    def test_fresh_verifier_shares_masks(self, bench):
        v1 = bench.fresh_verifier()
        v2 = bench.fresh_verifier()
        assert v1 is not v2
        assert v1.masks is v2.masks
        assert len(v1.profile_store) == 0

    def test_pick_outliers_deterministic(self, bench):
        a = bench.pick_outliers(5, np.random.default_rng(1))
        b = bench.pick_outliers(5, np.random.default_rng(1))
        assert a == b

    def test_pick_outliers_have_matching_contexts(self, bench):
        for rid in bench.pick_outliers(5, 0, min_matching_contexts=10):
            assert len(bench.reference.matching_contexts(rid)) >= 10

    def test_pick_outliers_floor_fallback(self, bench):
        # An absurd floor must degrade, not error.
        picks = bench.pick_outliers(3, 0, min_matching_contexts=10**9)
        assert picks

    def test_clear_cache(self, bench):
        Workbench.clear_cache()
        try:
            fresh = Workbench.get(*BENCH_ARGS)
            assert fresh is not bench
        finally:
            Workbench.clear_cache()


class TestMakeSampler:
    @pytest.mark.parametrize("name", ["uniform", "random_walk", "dfs", "bfs"])
    def test_known_samplers(self, name):
        sampler = make_sampler(name, 7)
        assert sampler.name == name
        assert sampler.n_samples == 7

    def test_unknown_sampler(self):
        with pytest.raises(ExperimentError, match="unknown sampler"):
            make_sampler("quantum", 7)


class TestRunExperiment:
    def test_summary_structure(self, bench):
        summary = run_pcor_experiment(
            bench,
            sampler_name="bfs",
            epsilon=0.2,
            n_samples=8,
            repetitions=4,
            n_outlier_records=3,
            rng=0,
        )
        assert len(summary.repetitions) == 4
        assert summary.algorithm == "bfs"
        assert summary.detector == "lof"
        us = summary.utility_summary()
        assert 0.0 <= us.mean <= 1.0 + 1e-9
        rt = summary.runtime_summary()
        assert rt.t_min <= rt.t_avg <= rt.t_max

    def test_ratios_in_unit_interval(self, bench):
        summary = run_pcor_experiment(
            bench, "random_walk", repetitions=4, n_samples=8,
            n_outlier_records=3, rng=1,
        )
        for rep in summary.repetitions:
            assert 0.0 <= rep.utility_ratio <= 1.0 + 1e-9
            assert rep.utility_value <= rep.max_utility + 1e-9

    def test_deterministic_given_seed(self, bench):
        a = run_pcor_experiment(
            bench, "bfs", repetitions=3, n_samples=6, n_outlier_records=2, rng=5
        )
        b = run_pcor_experiment(
            bench, "bfs", repetitions=3, n_samples=6, n_outlier_records=2, rng=5
        )
        assert a.utility_ratios == b.utility_ratios

    def test_overlap_utility_experiment(self, bench):
        summary = run_pcor_experiment(
            bench, "bfs", utility_name="overlap", repetitions=3,
            n_samples=6, n_outlier_records=2, rng=2,
        )
        assert summary.utility == "overlap"
        for rep in summary.repetitions:
            assert 0.0 <= rep.utility_ratio <= 1.0 + 1e-9

    def test_fm_counts_recorded(self, bench):
        summary = run_pcor_experiment(
            bench, "bfs", repetitions=3, n_samples=6, n_outlier_records=2, rng=3
        )
        assert summary.mean_fm_evaluations() > 0

    def test_direct_experiment(self, bench):
        summary = run_direct_experiment(
            bench, repetitions=2, n_outlier_records=2, rng=4
        )
        assert summary.algorithm == "direct"
        assert len(summary.repetitions) == 2
        # The direct approach's pool is the whole COE, so its utility ratio
        # is the mechanism's own accuracy - high for decisive populations.
        for rep in summary.repetitions:
            assert rep.utility_ratio > 0.0
