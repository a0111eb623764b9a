"""Unit tests for the direct approach (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.direct import DirectPCOR, DirectSampler
from repro.core.utility import PopulationSizeUtility
from repro.exceptions import SamplingError
from repro.mechanisms.accounting import epsilon_one_for
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest


class TestRelease:
    def test_released_context_is_matching(self, mini_verifier, mini_outlier, rng):
        direct = DirectPCOR(mini_verifier, epsilon=0.2)
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        result = direct.release(util, mini_outlier, rng)
        assert mini_verifier.is_matching(result.context.bits, mini_outlier)

    def test_candidate_pool_is_full_coe(self, mini_verifier, mini_reference, mini_outlier, rng):
        direct = DirectPCOR(mini_verifier, epsilon=0.2)
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        result = direct.release(util, mini_outlier, rng)
        assert result.n_candidates == len(mini_reference.matching_contexts(mini_outlier))

    def test_budget_split(self, mini_verifier, mini_outlier, rng):
        direct = DirectPCOR(mini_verifier, epsilon=0.4)
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        result = direct.release(util, mini_outlier, rng)
        assert result.epsilon_total == 0.4
        assert result.epsilon_one == pytest.approx(epsilon_one_for("direct", 0.4))

    def test_no_matching_contexts_raises(self, mini_verifier, mini_reference, mini_dataset, rng):
        outliers = set(mini_reference.outlier_records())
        normal = next(int(r) for r in mini_dataset.ids if int(r) not in outliers)
        direct = DirectPCOR(mini_verifier, epsilon=0.2)
        util = PopulationSizeUtility(mini_verifier, normal)
        with pytest.raises(SamplingError, match="no matching context"):
            direct.release(util, normal, rng)

    def test_favors_large_populations(self, mini_verifier, mini_reference, mini_outlier):
        """With a decisive epsilon the direct mechanism picks near-max contexts."""
        direct = DirectPCOR(mini_verifier, epsilon=50.0)  # essentially greedy
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        max_util = mini_reference.max_population_utility(mini_outlier)
        gen = np.random.default_rng(0)
        for _ in range(5):
            result = direct.release(util, mini_outlier, gen)
            assert result.utility_value == pytest.approx(max_util)

    def test_result_metadata(self, mini_verifier, mini_outlier, rng):
        direct = DirectPCOR(mini_verifier, epsilon=0.2)
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        result = direct.release(util, mini_outlier, rng)
        assert result.algorithm == "direct"
        assert result.record_id == mini_outlier
        assert result.utility_name == "population_size"
        assert result.wall_time_s > 0
        assert result.stats.mechanism_invocations == 1


class TestBatch:
    def test_process_batch_equals_serial_batch(self, mini_dataset, mini_reference):
        """A batch of direct releases ships to process workers, its sampler
        pickled with the spec, and two workers release what the serial loop
        releases."""
        spec = PipelineSpec(
            detector="zscore",
            detector_kwargs={"z_threshold": 2.5, "min_population": 8},
            sampler=DirectSampler(),
            epsilon=0.5,
        )
        requests = [
            ReleaseRequest(rid, spec, seed=i)
            for i, rid in enumerate(mini_reference.outlier_records()[:3])
        ]

        def run(backend, workers=None):
            engine = ReleaseEngine(mini_dataset, backend=backend, workers=workers)
            try:
                return [
                    (r.record_id, r.context.bits, r.utility_value, r.n_candidates)
                    for r in engine.execute_many(requests)
                ]
            finally:
                engine.close()

        assert run("process", workers=2) == run("serial")
