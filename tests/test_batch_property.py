"""Property tests: the batch kernels agree with their scalar wrappers.

The batched verification engine promises bit-exact equivalence between the
batch kernels (``population_masks``, ``profiles``, ``is_matching_many``,
``scores``) and element-wise scalar evaluation, across arbitrary schemas,
datasets and context batches.  Hypothesis drives random instances of all
three through both paths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import (
    bool_matrix_to_ints,
    bool_to_int,
    int_to_bool,
    ints_to_bool_matrix,
    pack_bool_matrix,
    popcount_rows,
    unpack_words,
)
from repro.core.utility import (
    OverlapUtility,
    PopulationSizeUtility,
    SparsityUtility,
    StartingDistanceUtility,
)
from repro.core.verification import OutlierVerifier
from repro.data.masks import PredicateMaskIndex
from repro.data.table import Dataset
from repro.outliers.zscore import ZScoreDetector
from repro.schema import CategoricalAttribute, MetricAttribute, Schema

# ----------------------------------------------------------------- strategies


@st.composite
def schema_dataset_contexts(draw):
    """A random (dataset, batch-of-context-bits) pair."""
    n_attrs = draw(st.integers(min_value=1, max_value=3))
    attrs = [
        CategoricalAttribute(
            f"A{i}",
            [f"v{i}_{j}" for j in range(draw(st.integers(min_value=2, max_value=4)))],
        )
        for i in range(n_attrs)
    ]
    schema = Schema(attributes=attrs, metric=MetricAttribute("M"))
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    columns = {
        a.name: [a.domain[int(c)] for c in gen.integers(0, len(a), size=n)]
        for a in attrs
    }
    metric = gen.normal(loc=50.0, scale=20.0, size=n)
    dataset = Dataset(schema, columns, metric)
    batch = draw(st.integers(min_value=0, max_value=12))
    contexts = [
        draw(st.integers(min_value=0, max_value=(1 << schema.t) - 1))
        for _ in range(batch)
    ]
    return dataset, contexts


PROP_SETTINGS = settings(max_examples=40, deadline=None)


def make_verifier(dataset: Dataset) -> OutlierVerifier:
    return OutlierVerifier(dataset, ZScoreDetector(z_threshold=1.5, min_population=3))


# -------------------------------------------------------------------- bitops


@given(
    bits=st.integers(min_value=0, max_value=(1 << 200) - 1),
    t_extra=st.integers(min_value=0, max_value=16),
)
@PROP_SETTINGS
def test_int_bool_roundtrip(bits, t_extra):
    t = max(bits.bit_length(), 1) + t_extra
    flags = int_to_bool(bits, t)
    assert flags.shape == (t,)
    assert bool_to_int(flags) == bits
    assert all(flags[k] == bool((bits >> k) & 1) for k in range(t))


@pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 20_000])
def test_unpack_words_matches_slice_and_cast(n_bits):
    """Random words, padding bits included: the first ``n_bits`` as bools."""
    gen = np.random.default_rng(n_bits)
    words = gen.integers(0, 2**64, size=(n_bits + 63) // 64, dtype=np.uint64)
    want = np.unpackbits(words.view(np.uint8), bitorder="little")[:n_bits].astype(bool)
    got = unpack_words(words, n_bits)
    assert got.dtype == bool and got.shape == (n_bits,)
    assert got.tobytes() == want.tobytes()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=0, max_value=5),
    n=st.integers(min_value=0, max_value=200),
)
@PROP_SETTINGS
def test_pack_unpack_popcount_roundtrip(seed, rows, n):
    gen = np.random.default_rng(seed)
    matrix = gen.random((rows, n)) < 0.4
    packed = pack_bool_matrix(matrix)
    assert packed.shape == (rows, (n + 63) // 64)
    for k in range(rows):
        assert np.array_equal(unpack_words(packed[k], n), matrix[k])
    assert np.array_equal(popcount_rows(packed), matrix.sum(axis=1))
    ints = bool_matrix_to_ints(matrix)
    assert np.array_equal(ints_to_bool_matrix(ints, n), matrix)


# ------------------------------------------------------------------ data layer


@given(data=schema_dataset_contexts())
@PROP_SETTINGS
def test_population_masks_match_scalar(data):
    dataset, contexts = data
    index = PredicateMaskIndex(dataset)
    packed = index.population_masks(contexts)
    assert packed.shape == (len(contexts), index.n_words)
    sizes = index.population_sizes(contexts)
    for k, bits in enumerate(contexts):
        scalar_mask = index.population_mask(bits)
        assert np.array_equal(unpack_words(packed[k], len(dataset)), scalar_mask)
        assert sizes[k] == int(np.count_nonzero(scalar_mask))
        assert sizes[k] == index.population_size(bits)


# ---------------------------------------------------------- verification layer


@given(data=schema_dataset_contexts())
@PROP_SETTINGS
def test_profiles_match_scalar(data):
    dataset, contexts = data
    batch_verifier = make_verifier(dataset)
    scalar_verifier = make_verifier(dataset)
    batched = batch_verifier.profiles(contexts)
    for bits, profile in zip(contexts, batched):
        assert profile == scalar_verifier.context_profile(bits)


@given(data=schema_dataset_contexts())
@PROP_SETTINGS
def test_is_matching_many_matches_scalar(data):
    dataset, contexts = data
    verifier = make_verifier(dataset)
    record_id = int(dataset.ids[0])
    batched = verifier.is_matching_many(contexts, record_id)
    fresh = make_verifier(dataset)
    for bits, got in zip(contexts, batched):
        assert bool(got) == fresh.is_matching(bits, record_id)


# --------------------------------------------------------------- utility layer


@given(data=schema_dataset_contexts())
@PROP_SETTINGS
def test_scores_match_scalar(data):
    dataset, contexts = data
    verifier = make_verifier(dataset)
    record_id = int(dataset.ids[0])
    starting_bits = dataset.record_bits(record_id)
    utilities = [
        PopulationSizeUtility(verifier, record_id),
        OverlapUtility(verifier, record_id, starting_bits),
        StartingDistanceUtility(verifier, record_id, starting_bits),
        SparsityUtility(verifier, record_id),
    ]
    for utility in utilities:
        batched = utility.scores(contexts)
        for bits, got in zip(contexts, batched):
            expected = utility.score(bits)
            if math.isinf(expected):
                assert math.isinf(got) and got < 0
            else:
                assert got == pytest.approx(expected)


@given(data=schema_dataset_contexts())
@PROP_SETTINGS
def test_overlap_sizes_match_mask_intersection(data):
    dataset, contexts = data
    verifier = make_verifier(dataset)
    record_id = int(dataset.ids[0])
    starting_bits = dataset.record_bits(record_id)
    utility = OverlapUtility(verifier, record_id, starting_bits)
    starting_mask = verifier.masks.population_mask(starting_bits)
    sizes = utility.overlap_sizes(contexts)
    for bits, got in zip(contexts, sizes):
        expected = int(
            np.count_nonzero(verifier.masks.population_mask(bits) & starting_mask)
        )
        assert int(got) == expected
