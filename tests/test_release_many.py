"""Tests for the multi-record ``PCOR.release_many`` facade."""

import numpy as np
import pytest

from repro.core.pcor import PCOR
from repro.core.profiles import ProfileStore
from repro.core.sampling import BFSSampler
from repro.core.verification import OutlierVerifier
from repro.exceptions import SamplingError
from repro.outliers import LOFDetector
from repro.runtime import plan_task_rngs, rng_from_token
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

LOF_KWARGS = {"k": 5, "threshold": 1.3, "min_population": 8}


def make_pcor(dataset, detector, n_samples=8, **kwargs):
    return PCOR(
        dataset,
        detector,
        epsilon=0.2,
        sampler=BFSSampler(n_samples=n_samples),
        **kwargs,
    )


@pytest.fixture(scope="module")
def outlier_ids(mini_reference):
    ids = mini_reference.outlier_records()
    assert len(ids) >= 2
    return ids[:6]


@pytest.fixture(scope="module")
def lof_outlier_ids(mini_dataset):
    """Six LOF exact-context outliers with pairwise distinct exact
    contexts."""
    probe = make_pcor(mini_dataset, LOFDetector(**LOF_KWARGS))
    ids, seen = [], set()
    for rid in map(int, mini_dataset.ids):
        bits = mini_dataset.record_bits(rid)
        if bits not in seen and probe.verifier.is_matching(bits, rid):
            ids.append(rid)
            seen.add(bits)
        if len(ids) == 6:
            return ids
    pytest.fail("micro dataset produced too few LOF exact-context outliers")


def release_key(r):
    return (r.record_id, r.context.bits, r.utility_value, r.n_candidates, r.stats)


class TestReleaseMany:
    def test_one_result_per_record_in_order(
        self, mini_dataset, mini_detector, outlier_ids
    ):
        pcor = make_pcor(mini_dataset, mini_detector)
        results = pcor.release_many(outlier_ids, seed=5)
        assert [r.record_id for r in results] == list(outlier_ids)

    def test_results_are_valid_matching_contexts(
        self, mini_dataset, mini_detector, mini_verifier, outlier_ids
    ):
        pcor = make_pcor(mini_dataset, mini_detector)
        for result in pcor.release_many(outlier_ids, seed=5):
            assert mini_verifier.is_matching(result.context.bits, result.record_id)

    def test_deterministic_given_seed(self, mini_dataset, mini_detector, outlier_ids):
        a = make_pcor(mini_dataset, mini_detector).release_many(outlier_ids, seed=11)
        b = make_pcor(mini_dataset, mini_detector).release_many(outlier_ids, seed=11)
        assert [r.context for r in a] == [r.context for r in b]

    def test_per_record_budget_unchanged(
        self, mini_dataset, mini_detector, outlier_ids
    ):
        """Each release spends its own epsilon (parallel-composition caveat
        is the data owner's concern, not silently absorbed here)."""
        pcor = make_pcor(mini_dataset, mini_detector)
        for result in pcor.release_many(outlier_ids, seed=3):
            assert result.epsilon_total == pcor.epsilon

    def test_explicit_starting_contexts(
        self, mini_dataset, mini_detector, mini_reference, outlier_ids
    ):
        starts = [mini_reference.matching_contexts(r)[0] for r in outlier_ids]
        pcor = make_pcor(mini_dataset, mini_detector)
        results = pcor.release_many(outlier_ids, starting_contexts=starts, seed=3)
        assert [r.starting_context.bits for r in results] == starts

    def test_starting_contexts_length_mismatch(
        self, mini_dataset, mini_detector, outlier_ids
    ):
        pcor = make_pcor(mini_dataset, mini_detector)
        with pytest.raises(SamplingError, match="entries for"):
            pcor.release_many(outlier_ids, starting_contexts=[None], seed=3)

    def test_amortises_detector_runs_vs_fresh_instances(
        self, mini_dataset, mini_detector, outlier_ids
    ):
        """One zscore release_many does strictly fewer uncached detector
        runs than the same releases on fresh instances: zscore declares no
        ``locality``, so every verdict is a full profile that the other
        records' releases read from the shared store.  The fresh side
        replays the batch's planned RNG substreams, so both sides release
        the same contexts."""
        batched = make_pcor(mini_dataset, mini_detector)
        results = batched.release_many(outlier_ids, seed=7)
        amortised = batched.verifier.fm_evaluations

        gen = np.random.default_rng(7)
        fresh_total, fresh_contexts = 0, []
        for rid in outlier_ids:
            fresh = make_pcor(mini_dataset, mini_detector)
            fresh_contexts.append(fresh.release(rid, seed=gen.spawn(1)[0]).context)
            fresh_total += fresh.verifier.fm_evaluations
        assert fresh_contexts == [r.context for r in results]
        assert amortised < fresh_total

    @pytest.mark.parametrize("case", ["zscore", "lof"])
    def test_serial_batch_is_a_loop_of_lone_releases(
        self, request, mini_dataset, case
    ):
        """Every result of a batch equals a lone release with the same
        planned token, run in order on an identical fresh engine, and
        charges every ``f_M`` run its release made: the results' counts
        add up to the verifier's total.  Process workers release the same
        contexts; their counts depend on each worker's own store."""
        if case == "zscore":
            kwargs = {"z_threshold": 2.5, "min_population": 8}
            ids = request.getfixturevalue("outlier_ids")
        else:
            kwargs = LOF_KWARGS
            ids = request.getfixturevalue("lof_outlier_ids")
        spec = PipelineSpec(
            detector=case, detector_kwargs=kwargs,
            sampler="bfs", n_samples=8, epsilon=0.2,
        )
        requests = [ReleaseRequest(rid, spec, seed=30 + i) for i, rid in enumerate(ids)]
        engine = ReleaseEngine(mini_dataset)
        try:
            results = engine.submit_many(requests)
            total = engine.verifier_for(spec.build_detector()).fm_evaluations
        finally:
            engine.close()

        alone = ReleaseEngine(mini_dataset, backend="serial")
        tokens = plan_task_rngs([r.seed for r in requests])
        lone = [alone._outcome(r, rng_from_token(t)) for r, t in zip(requests, tokens)]
        assert [release_key(r) for r in results] == [release_key(r) for r in lone]
        if engine.backend.parallel:
            return
        assert [r.fm_evaluations for r in results] == [r.fm_evaluations for r in lone]
        assert sum(r.fm_evaluations for r in results) == total

    def test_process_batch_equals_serial_batch(self, mini_dataset, lof_outlier_ids):
        """LOF release_many on two process workers equals the serial batch."""
        detector = LOFDetector(**LOF_KWARGS)
        serial = make_pcor(mini_dataset, detector, backend="serial")
        expected = serial.release_many(lof_outlier_ids, seed=7)
        pcor = make_pcor(mini_dataset, detector, backend="process", workers=2)
        try:
            results = pcor.release_many(lof_outlier_ids, seed=7)
        finally:
            pcor.close()
        assert [release_key(r) for r in results] == [release_key(r) for r in expected]

    def test_share_profiles_spans_instances(
        self, mini_dataset, mini_detector, outlier_ids
    ):
        """Two instances whose verifiers share one store: the second's
        release of the same request reads every profile the first's
        computed, so it runs no detector and releases the same context."""
        store = ProfileStore()

        def shared_pcor():
            verifier = OutlierVerifier(mini_dataset, mini_detector, profile_store=store)
            return make_pcor(mini_dataset, mini_detector, verifier=verifier)

        first, second = shared_pcor(), shared_pcor()
        assert first.verifier.profile_store is second.verifier.profile_store
        a = first.release(outlier_ids[0], seed=5)
        b = second.release(outlier_ids[0], seed=5)
        assert a.fm_evaluations > 0 and b.fm_evaluations == 0
        assert release_key(a) == release_key(b)

    def test_empty_batch(self, mini_dataset, mini_detector):
        pcor = make_pcor(mini_dataset, mini_detector)
        assert pcor.release_many([], seed=1) == []

    def test_single_seed_reproduces_whole_batch(
        self, mini_dataset, mini_detector, outlier_ids
    ):
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        a = make_pcor(mini_dataset, mini_detector).release_many(outlier_ids, seed=rng_a)
        b = make_pcor(mini_dataset, mini_detector).release_many(outlier_ids, seed=rng_b)
        assert [r.context for r in a] == [r.context for r in b]
