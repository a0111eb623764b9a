"""Unit tests for the experiment harness (workbench + runner)."""

import numpy as np
import pytest

from repro.core.direct import DirectPCOR, DirectSampler
from repro.core.pcor import PCOR
from repro.core.starting import starting_context_from_reference
from repro.core.utility import make_utility
from repro.exceptions import ExperimentError
from repro.experiments.harness import Workbench, make_sampler, run_pcor_experiment
from repro.rng import ensure_rng, spawn

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
            sampler="bfs",
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
        summary = run_pcor_experiment(
            bench, lambda n: DirectSampler(), repetitions=2, n_outlier_records=2,
            rng=4, min_matching_contexts=20,
        )
        assert summary.algorithm == "direct"
        assert len(summary.repetitions) == 2
        # The direct approach's pool is the whole COE, so its utility ratio
        # is the mechanism's own accuracy - high for decisive populations.
        for rep in summary.repetitions:
            assert rep.utility_ratio > 0.0

    def test_repetition_time_is_the_release_span(self, bench, monkeypatch):
        """One clock: a repetition's time is its release's ``wall_time_s``
        (the engine's ``engine.execute`` span), not a second timer."""
        released = []
        release = PCOR.release

        def spy(self, *args, **kwargs):
            released.append(release(self, *args, **kwargs))
            return released[-1]

        monkeypatch.setattr(PCOR, "release", spy)
        summary = run_pcor_experiment(
            bench, "bfs", repetitions=3, n_samples=6, n_outlier_records=2, rng=6
        )
        assert len(released) == 3
        assert summary.wall_times == [r.wall_time_s for r in released]


def _direct_pcor_loop(bench, utility_name, repetitions, n_outlier_records, seed):
    """Algorithm 1 under the Section 6 protocol, through ``DirectPCOR``: an
    outlier floor of 20 matching contexts, and per repetition a starting
    context drawn from the reference (it anchors the overlap utility)."""
    gen = ensure_rng(seed)
    outliers = bench.pick_outliers(n_outlier_records, gen, min_matching_contexts=20)
    rows = []
    for i, rep_rng in enumerate(spawn(gen, repetitions)):
        record_id = outliers[i % len(outliers)]
        start = starting_context_from_reference(bench.reference, record_id, rep_rng)
        verifier = bench.fresh_verifier()
        utility = make_utility(utility_name, verifier, record_id, start.bits)
        result = DirectPCOR(verifier, epsilon=0.2).release(
            utility, record_id, rng=rep_rng
        )
        if utility_name == "population_size":
            best = bench.reference.max_population_utility(record_id)
        else:
            best = bench.reference.max_utility(
                record_id,
                make_utility(
                    utility_name, bench.reference_verifier, record_id, start.bits
                ),
            )
        rows.append((record_id, result.utility_value, best, result.fm_evaluations))
    return rows


class TestDirectThroughTheLoop:
    """Algorithm 1 is ``run_pcor_experiment`` with a ``DirectSampler``
    factory: the same records, utilities, maxima and ``f_M`` runs as
    releasing through ``DirectPCOR``."""

    @pytest.mark.parametrize("utility_name", ["population_size", "overlap"])
    def test_matches_direct_pcor(self, bench, utility_name):
        expected = _direct_pcor_loop(bench, utility_name, 3, 2, seed=11)
        summary = run_pcor_experiment(
            bench,
            lambda n: DirectSampler(),
            utility_name=utility_name,
            repetitions=3,
            n_outlier_records=2,
            rng=11,
            min_matching_contexts=20,
        )
        got = [
            (r.record_id, r.utility_value, r.max_utility, r.fm_evaluations)
            for r in summary.repetitions
        ]
        assert got == expected
        assert summary.label == f"direct/{utility_name}"
