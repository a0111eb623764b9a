"""Unit tests for the cached outlier verifier (f_M)."""

import numpy as np
import pytest

from repro.core.verification import OutlierVerifier
from repro.data.generators import salary_reduced
from repro.data.masks import PredicateMaskIndex
from repro.exceptions import VerificationError
from repro.outliers import available_detectors, make_detector
from repro.outliers.zscore import ZScoreDetector


class TestProfiles:
    def test_full_context_profile(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        pop, outliers = verifier.context_profile(mini_dataset.schema.full_bits)
        assert pop == len(mini_dataset)
        # Outlier ids must be real record ids.
        for rid in outliers:
            assert mini_dataset.has_record(rid)

    def test_empty_context_profile(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        pop, outliers = verifier.context_profile(0)
        assert pop == 0
        assert outliers == frozenset()

    def test_profile_matches_direct_detector_run(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        bits = mini_dataset.schema.full_bits
        _, outliers = verifier.context_profile(bits)
        positions = mini_detector.outlier_positions(mini_dataset.metric)
        expected = frozenset(int(mini_dataset.ids[p]) for p in positions)
        assert outliers == expected

    def test_population_size_shortcut(self, mini_verifier, mini_dataset):
        assert (
            mini_verifier.population_size(mini_dataset.schema.full_bits)
            == len(mini_dataset)
        )


class TestMetricOrderedDelivery:
    def test_lof_profiles_match_record_order_delivery(self, mini_dataset):
        """LOF gets its populations in metric order; its profiles equal
        those of the same detector fed in record order."""
        from repro.outliers.lof import LOFDetector

        class RecordOrderLOF(LOFDetector):
            sorted_input = False

        kwargs = {"k": 5, "threshold": 1.3, "min_population": 8}
        rng = np.random.default_rng(3)
        bits = [int(b) for b in rng.integers(1, 1 << mini_dataset.schema.t, 200)]
        bits += [mini_dataset.record_bits(int(r)) for r in mini_dataset.ids[:40]]
        ordered = OutlierVerifier(mini_dataset, LOFDetector(**kwargs)).profiles(bits)
        plain = OutlierVerifier(mini_dataset, RecordOrderLOF(**kwargs)).profiles(bits)
        assert ordered == plain
        assert any(outliers for _, outliers in ordered)


class TestCaching:
    def test_second_profile_is_cached(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        bits = mini_dataset.schema.full_bits
        verifier.context_profile(bits)
        evals = verifier.fm_evaluations
        verifier.context_profile(bits)
        assert verifier.fm_evaluations == evals

    def test_cache_size_grows(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        assert len(verifier.profile_store) == 0
        verifier.context_profile(0b111_111_111)
        verifier.context_profile(0b111_111_110)
        assert len(verifier.profile_store) == 2

    def test_clear_cache(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        verifier.context_profile(0b111_111_111)
        verifier.profile_store.clear()
        assert len(verifier.profile_store) == 0

    def test_reset_counters(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        verifier.context_profile(0b111_111_111)
        verifier.reset_counters()
        assert verifier.fm_evaluations == 0
        assert verifier.fm_queries == 0


class TestIsMatching:
    def test_requires_containment(self, mini_verifier, mini_dataset):
        rid = int(mini_dataset.ids[0])
        record_bits = mini_dataset.record_bits(rid)
        # A context missing one of the record's own bits can never match.
        lowest_bit = record_bits & -record_bits
        bits = mini_dataset.schema.full_bits & ~lowest_bit
        assert not mini_verifier.is_matching(bits, rid)

    def test_containment_shortcircuit_skips_detector(
        self, mini_dataset, mini_detector
    ):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        rid = int(mini_dataset.ids[0])
        record_bits = mini_dataset.record_bits(rid)
        lowest_bit = record_bits & -record_bits
        bits = mini_dataset.schema.full_bits & ~lowest_bit
        verifier.is_matching(bits, rid)
        assert verifier.fm_evaluations == 0  # no profile computed

    def test_matching_agrees_with_profile(self, mini_verifier, mini_reference, mini_outlier):
        for bits in mini_reference.matching_contexts(mini_outlier)[:20]:
            assert mini_verifier.is_matching(bits, mini_outlier)

    def test_unknown_record_raises(self, mini_verifier, mini_dataset):
        with pytest.raises(VerificationError, match="not in dataset"):
            mini_verifier.is_matching(mini_dataset.schema.full_bits, 10_000)

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
    @pytest.mark.parametrize("name", available_detectors())
    def test_record_bound_read_of_unknown_record_raises(self, name, cached):
        """``profiles(..., record_id=)`` checks the record before it reads
        the store or counts a run, for every detector, and also when every
        context it asks about is cached."""
        dataset = salary_reduced(n_records=300, seed=7)
        verifier = OutlierVerifier(dataset, make_detector(name))
        full = (1 << dataset.schema.t) - 1
        if cached:
            verifier.profiles([full])
        runs, size = verifier.fm_evaluations, len(verifier.profile_store)
        with pytest.raises(VerificationError, match="not in dataset"):
            verifier.profiles([full], record_id=10**9)
        assert (verifier.fm_evaluations, len(verifier.profile_store)) == (runs, size)

    def test_queries_counted(self, mini_dataset, mini_detector):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        rid = int(mini_dataset.ids[0])
        verifier.is_matching(mini_dataset.schema.full_bits, rid)
        verifier.is_matching(mini_dataset.schema.full_bits, rid)
        assert verifier.fm_queries == 2


class TestScalarReads:
    """``is_matching`` and ``context_profile`` are batch-of-one calls of
    ``is_matching_many`` and ``profiles``: one way into the store."""

    @pytest.mark.parametrize("locality", [False, True])
    def test_scalar_reads_route_through_the_batch_reads(
        self, mini_dataset, mini_detector, locality
    ):
        from unittest import mock

        from repro.outliers.lof import LOFDetector

        detector = LOFDetector(k=4, min_population=8) if locality else mini_detector
        verifier = OutlierVerifier(mini_dataset, detector)
        rid = int(mini_dataset.ids[0])
        bits = mini_dataset.record_bits(rid)
        # Both batch reads reach the store through one ``_read``; the
        # matching test checks its record itself, so it skips ``profiles``.
        with mock.patch.object(
            verifier, "is_matching_many", wraps=verifier.is_matching_many
        ) as many, mock.patch.object(
            verifier, "profiles", wraps=verifier.profiles
        ) as profiles, mock.patch.object(
            verifier, "_read", wraps=verifier._read
        ) as read:
            answer = verifier.is_matching(bits, rid)
            many.assert_called_once_with([bits], rid)
            assert [c.args[:2] for c in read.call_args_list] == [([bits], rid)]
            assert isinstance(answer, bool)
            read.reset_mock()
            verifier.context_profile(bits)
            profiles.assert_called_once_with([bits])
            assert [c.args[:2] for c in read.call_args_list] == [([bits], None)]

    def test_scalar_reads_count_one_query_and_one_lookup(
        self, mini_dataset, mini_detector
    ):
        verifier = OutlierVerifier(mini_dataset, mini_detector)
        store = verifier.profile_store
        rid = int(mini_dataset.ids[0])
        bits = mini_dataset.record_bits(rid)
        verifier.is_matching(bits, rid)
        assert verifier.fm_queries == 1
        assert (store.hits, store.misses) == (0, 1)
        verifier.is_matching(bits, rid)
        assert verifier.fm_queries == 2
        assert (store.hits, store.misses) == (1, 1)
        verifier.context_profile(bits)
        assert verifier.fm_queries == 2  # a record-free read asks no f_M
        assert (store.hits, store.misses) == (2, 1)


class TestConstruction:
    def test_shared_mask_index(self, mini_dataset, mini_detector):
        index = PredicateMaskIndex(mini_dataset)
        a = OutlierVerifier(mini_dataset, mini_detector, index)
        b = OutlierVerifier(mini_dataset, mini_detector, index)
        assert a.masks is b.masks

    def test_foreign_mask_index_rejected(self, mini_dataset, mini_detector):
        other = mini_dataset.without_records([int(mini_dataset.ids[0])])
        index = PredicateMaskIndex(other)
        with pytest.raises(VerificationError, match="different dataset"):
            OutlierVerifier(mini_dataset, mini_detector, index)

    def test_min_population_respected(self, mini_dataset):
        detector = ZScoreDetector(z_threshold=0.1, min_population=10_000)
        verifier = OutlierVerifier(mini_dataset, detector)
        _, outliers = verifier.context_profile(mini_dataset.schema.full_bits)
        assert outliers == frozenset()
