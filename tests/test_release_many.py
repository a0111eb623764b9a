"""Tests for the multi-record ``PCOR.release_many`` facade."""

import numpy as np
import pytest

from repro.core.pcor import PCOR
from repro.core.profiles import ProfileStore
from repro.core.sampling import BFSSampler
from repro.exceptions import SamplingError
from repro.outliers import LOFDetector

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
    """Six LOF exact-context outliers with pairwise distinct exact contexts,
    so only the batch's full profiles (not the warm pass) can share
    verdicts."""
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

    @pytest.mark.parametrize("case", ["zscore", "lof"])
    def test_amortises_detector_runs_vs_fresh_instances(
        self, request, mini_dataset, mini_detector, case
    ):
        """The acceptance property: one release_many does strictly fewer
        uncached detector runs than the same releases on fresh instances.

        For LOF (a ``locality`` detector) a lone release stores
        record-scoped verdicts no other record can read; the batch shares
        only because its releases run ``in_batch``, where the verifier
        computes full profiles the other records can read."""
        if case == "zscore":
            detector, ids = mini_detector, request.getfixturevalue("outlier_ids")
        else:
            detector = LOFDetector(**LOF_KWARGS)
            ids = request.getfixturevalue("lof_outlier_ids")
        batched = make_pcor(mini_dataset, detector)
        batched.release_many(ids, seed=7)
        amortised = batched.verifier.fm_evaluations

        fresh_total = 0
        for rid in ids:
            fresh = make_pcor(mini_dataset, detector)
            fresh.release(rid, seed=7)
            fresh_total += fresh.verifier.fm_evaluations
        assert amortised < fresh_total

    def test_process_workers_receive_the_batch_flag(
        self, mini_dataset, lof_outlier_ids, monkeypatch
    ):
        """LOF release_many on two process workers equals the serial batch,
        and every release task ships the batch's ``in_batch`` flag."""
        detector = LOFDetector(**LOF_KWARGS)
        serial = make_pcor(mini_dataset, detector, backend="serial")
        expected = serial.release_many(lof_outlier_ids, seed=7)
        pcor = make_pcor(mini_dataset, detector, backend="process", workers=2)
        backend = pcor.engine.backend
        shipped = []
        build = backend._release_payloads

        def capture(*args):
            payloads = build(*args)
            shipped.extend(payloads)
            return payloads

        monkeypatch.setattr(backend, "_release_payloads", capture)
        try:
            results = pcor.release_many(lof_outlier_ids, seed=7)
        finally:
            pcor.close()
        assert [release_key(r) for r in results] == [release_key(r) for r in expected]
        tasks = [p for p in shipped if "record_id" in p]
        assert [p["record_id"] for p in tasks] == list(lof_outlier_ids)
        assert all(p["in_batch"] is True for p in tasks)

    def test_share_profiles_spans_instances(self, mini_dataset, mini_detector):
        """Two share_profiles instances use one store; the second benefits."""
        store = ProfileStore()
        first = make_pcor(mini_dataset, mini_detector, profile_store=store)
        second = make_pcor(mini_dataset, mini_detector, profile_store=store)
        assert first.verifier.profile_store is second.verifier.profile_store

    def test_shared_registry_wires_same_store(self, mini_dataset, mini_detector):
        a = make_pcor(mini_dataset, mini_detector, share_profiles=True)
        b = make_pcor(mini_dataset, mini_detector, share_profiles=True)
        assert a.verifier.profile_store is b.verifier.profile_store

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

    def test_verifier_excludes_store_kwargs(self, mini_dataset, mini_detector, mini_verifier):
        with pytest.raises(SamplingError, match="not both"):
            make_pcor(mini_dataset, mini_detector, verifier=mini_verifier, share_profiles=True)
        with pytest.raises(SamplingError, match="not both"):
            make_pcor(
                mini_dataset, mini_detector,
                verifier=mini_verifier, profile_store=ProfileStore(),
            )
