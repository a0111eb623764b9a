"""Unit tests for the utility functions (Section 3.2)."""

import math

import numpy as np
import pytest

from repro.core.utility import (
    OverlapUtility,
    PopulationSizeUtility,
    SparsityUtility,
    StartingDistanceUtility,
    make_utility,
)
from repro.exceptions import ContextError


@pytest.fixture(scope="module")
def outlier_context(mini_reference, mini_outlier):
    """A matching context for the shared outlier."""
    return mini_reference.matching_contexts(mini_outlier)[0]


class TestPopulationSize:
    def test_matching_context_scores_population(
        self, mini_verifier, mini_outlier, outlier_context
    ):
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        score = util.score(outlier_context)
        assert score == float(mini_verifier.population_size(outlier_context))
        assert score > 0

    def test_non_matching_scores_neg_inf(self, mini_verifier, mini_dataset, mini_reference):
        # A record that is nowhere an outlier scores -inf everywhere.
        outliers = set(mini_reference.outlier_records())
        normal = next(
            int(r) for r in mini_dataset.ids if int(r) not in outliers
        )
        util = PopulationSizeUtility(mini_verifier, normal)
        assert util.score(mini_dataset.schema.full_bits) == -math.inf

    def test_sensitivity_is_one(self, mini_verifier, mini_outlier):
        assert PopulationSizeUtility(mini_verifier, mini_outlier).sensitivity == 1.0

    def test_scores_vector(self, mini_verifier, mini_outlier, mini_reference):
        contexts = list(mini_reference.matching_contexts(mini_outlier)[:5])
        util = PopulationSizeUtility(mini_verifier, mini_outlier)
        scores = util.scores(contexts)
        assert scores.shape == (len(contexts),)
        assert (scores > 0).all()

    def test_unknown_record_rejected(self, mini_verifier):
        with pytest.raises(ContextError, match="not in dataset"):
            PopulationSizeUtility(mini_verifier, 99_999)


class TestOverlap:
    def test_self_overlap_is_population(self, mini_verifier, mini_outlier, outlier_context):
        util = OverlapUtility(mini_verifier, mini_outlier, outlier_context)
        assert util.score(outlier_context) == float(
            mini_verifier.population_size(outlier_context)
        )

    def test_overlap_matches_brute_force(
        self, mini_verifier, mini_outlier, mini_reference
    ):
        contexts = mini_reference.matching_contexts(mini_outlier)
        start = contexts[0]
        util = OverlapUtility(mini_verifier, mini_outlier, start)
        start_mask = mini_verifier.masks.population_mask(start)
        for bits in contexts[:10]:
            mask = mini_verifier.masks.population_mask(bits)
            expected = int(np.count_nonzero(mask & start_mask))
            assert util.overlap_size(bits) == expected

    def test_overlap_bounded_by_both_populations(
        self, mini_verifier, mini_outlier, mini_reference
    ):
        contexts = mini_reference.matching_contexts(mini_outlier)
        start = contexts[0]
        util = OverlapUtility(mini_verifier, mini_outlier, start)
        start_pop = mini_verifier.population_size(start)
        for bits in contexts[:10]:
            overlap = util.overlap_size(bits)
            assert overlap <= start_pop
            assert overlap <= mini_verifier.population_size(bits)

    def test_overlap_cache_consistent(self, mini_verifier, mini_outlier, outlier_context):
        util = OverlapUtility(mini_verifier, mini_outlier, outlier_context)
        assert util.overlap_size(outlier_context) == util.overlap_size(outlier_context)

    def test_overlap_sizes_compute_each_distinct_miss_once(
        self, mini_verifier, mini_outlier, mini_reference, monkeypatch
    ):
        """One mask pass for the distinct misses, in first-seen order; a
        repeated batch is answered from the cache alone."""
        a, b = mini_reference.matching_contexts(mini_outlier)[:2]
        util = OverlapUtility(mini_verifier, mini_outlier, a)
        masks = mini_verifier.masks
        start_mask = masks.population_mask(a)
        overlap_b = int(np.count_nonzero(masks.population_mask(b) & start_mask))
        population_a = int(np.count_nonzero(start_mask))
        compute = masks.population_masks
        asked = []

        def spy(bits_seq, *args, **kwargs):
            asked.append(list(bits_seq))
            return compute(bits_seq, *args, **kwargs)

        monkeypatch.setattr(masks, "population_masks", spy)
        sizes = util.overlap_sizes([a, a, b, a])
        assert asked == [[a, b]]
        assert sizes.tolist() == [population_a, population_a, overlap_b, population_a]
        assert util.overlap_sizes([b, a, a, b]).tolist() == [
            overlap_b, population_a, population_a, overlap_b
        ]
        assert asked == [[a, b]]

    def test_bad_starting_bits(self, mini_verifier, mini_outlier):
        with pytest.raises(ContextError, match="out of range"):
            OverlapUtility(mini_verifier, mini_outlier, 1 << 40)

    def test_non_matching_scores_neg_inf(
        self, mini_verifier, mini_outlier, outlier_context, mini_dataset
    ):
        util = OverlapUtility(mini_verifier, mini_outlier, outlier_context)
        record_bits = mini_dataset.record_bits(mini_outlier)
        lowest = record_bits & -record_bits
        non_containing = mini_dataset.schema.full_bits & ~lowest
        assert util.score(non_containing) == -math.inf


class TestStructuralUtilities:
    def test_starting_distance(self, mini_verifier, mini_outlier, outlier_context):
        util = StartingDistanceUtility(mini_verifier, mini_outlier, outlier_context)
        assert util.score(outlier_context) == 0.0
        assert util.sensitivity == 0.0

    def test_sparsity_prefers_small_contexts(
        self, mini_verifier, mini_outlier, mini_reference
    ):
        contexts = sorted(
            mini_reference.matching_contexts(mini_outlier),
            key=lambda b: b.bit_count(),
        )
        if len(contexts) < 2 or contexts[0].bit_count() == contexts[-1].bit_count():
            pytest.skip("need matching contexts of different sizes")
        util = SparsityUtility(mini_verifier, mini_outlier)
        assert util.score(contexts[0]) > util.score(contexts[-1])


class TestMakeUtility:
    def test_population_size(self, mini_verifier, mini_outlier):
        util = make_utility("population_size", mini_verifier, mini_outlier)
        assert isinstance(util, PopulationSizeUtility)

    def test_overlap_requires_start(self, mini_verifier, mini_outlier):
        with pytest.raises(ContextError, match="starting context"):
            make_utility("overlap", mini_verifier, mini_outlier)

    def test_overlap_with_start(self, mini_verifier, mini_outlier, outlier_context):
        util = make_utility("overlap", mini_verifier, mini_outlier, outlier_context)
        assert isinstance(util, OverlapUtility)

    def test_unknown_name(self, mini_verifier, mini_outlier):
        with pytest.raises(ContextError, match="unknown utility"):
            make_utility("magic", mini_verifier, mini_outlier)
