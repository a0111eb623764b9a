"""Mask-kernel equivalence against a pure-Python oracle.

The NumPy batch kernels in :mod:`repro.bitops` must produce exactly the
population masks, counts and intersections of a deliberately slow
pure-Python reference for every packed matrix, block layout and selection
batch.  Hypothesis drives them across the edge shapes that bit-packing gets
wrong first: record counts at and around the 64-bit word boundary, empty
attribute blocks, empty batches, blocks split into many table groups, and
predicate counts past one word.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bitops
from repro.bitops import (
    GROUP_BITS,
    WORD_BITS,
    OrTable,
    bool_matrix_to_ints,
    intersect_counts,
    ints_to_bool_matrix,
    pack_bool_matrix,
    popcount_rows,
    words_for,
)

ALL_ONES = (1 << 64) - 1


# ------------------------------------------------------------------ oracle


def reference_and_of_or(packed, offsets, sizes, selection):
    """Word-by-word AND-of-OR in pure Python ints — the equivalence oracle."""
    batch, n_words = selection.shape[0], packed.shape[1]
    out = np.zeros((batch, n_words), dtype=np.uint64)
    for b in range(batch):
        acc = [ALL_ONES] * n_words
        for off, size in zip(offsets, sizes):
            block = [0] * n_words
            for j in range(size):
                if selection[b, off + j]:
                    for w in range(n_words):
                        block[w] |= int(packed[off + j, w])
            acc = [a & x for a, x in zip(acc, block)]
        for w in range(n_words):
            out[b, w] = np.uint64(acc[w])
    return out


def reference_popcounts(matrix):
    return np.array(
        [sum(int(w).bit_count() for w in row) for row in matrix], dtype=np.int64
    )


# -------------------------------------------------------------- strategies

# Record counts straddling the word boundary, plus empty and multi-word.
N_RECORDS = st.sampled_from([0, 1, 7, 63, 64, 65, 128, 130])


@st.composite
def kernel_instance(draw):
    """(packed, offsets, sizes, selection) with adversarial shapes.

    Block sizes may be zero (an attribute contributing no predicates) and
    total predicate counts intentionally cross 64 so selections wider than
    one word are exercised.
    """
    sizes = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=4)
    )
    t = sum(sizes)
    offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64) if sizes else np.zeros(
        0, dtype=np.int64
    )
    n = draw(N_RECORDS)
    batch = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    flags = gen.random((t, n)) < 0.5 if t else np.zeros((t, n), dtype=bool)
    packed = pack_bool_matrix(np.ascontiguousarray(flags, dtype=bool))
    selection = (
        gen.random((batch, t)) < 0.6
        if batch and t
        else np.zeros((batch, t), dtype=bool)
    )
    return packed, np.asarray(offsets), np.asarray(sizes, dtype=np.int64), selection


# --------------------------------------------------------- kernels vs oracle


class TestTableKernelMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(kernel_instance())
    def test_masks_counts_popcounts(self, instance):
        packed, offsets, sizes, selection = instance
        expected = reference_and_of_or(packed, offsets, sizes, selection)
        masks = OrTable(packed, offsets, sizes).and_of_or(selection)
        assert masks.dtype == np.uint64
        assert np.array_equal(masks, expected)
        assert np.array_equal(popcount_rows(masks), reference_popcounts(expected))
        assert np.array_equal(popcount_rows(packed), reference_popcounts(packed))

    @settings(max_examples=30, deadline=None)
    @given(kernel_instance())
    def test_intersect_counts(self, instance):
        packed, offsets, sizes, selection = instance
        masks = OrTable(packed, offsets, sizes).and_of_or(selection)
        if packed.shape[0]:
            row = packed[0]
        else:
            row = np.zeros(packed.shape[1], dtype=np.uint64)
        got = intersect_counts(masks, row)
        expected = np.array(
            [
                sum((int(a) & int(b)).bit_count() for a, b in zip(m, row))
                for m in masks
            ],
            dtype=np.int64,
        )
        assert np.array_equal(got, expected)


    @settings(max_examples=30, deadline=None)
    @given(kernel_instance(), st.integers(min_value=1, max_value=4))
    def test_chunks_change_nothing(self, instance, chunk_words):
        """Chunks of one context and up cross every batch's row boundaries."""
        packed, offsets, sizes, selection = instance
        expected = reference_and_of_or(packed, offsets, sizes, selection)
        with mock.patch.object(bitops, "CHUNK_WORDS", chunk_words):
            masks = OrTable(packed, offsets, sizes).and_of_or(selection)
        assert np.array_equal(masks, expected)

    @settings(max_examples=30, deadline=None)
    @given(kernel_instance())
    def test_table_stays_within_four_times_the_matrix(self, instance):
        """A group of ``w <= GROUP_BITS`` predicates keeps ``2**w`` rows; an
        attribute without predicates keeps one all-zero row."""
        packed, offsets, sizes, _ = instance
        rows = OrTable(packed, offsets, sizes).rows
        widths = [
            min(GROUP_BITS, size - j)
            for size in sizes
            for j in range(0, max(size, 1), GROUP_BITS)
        ]
        assert rows.shape == (sum(1 << w for w in widths), packed.shape[1])
        assert rows.shape[0] <= 4 * packed.shape[0] + list(sizes).count(0)
        assert not rows.flags.writeable


# ------------------------------------------------------------- conversions


class TestVectorisedConversions:
    @settings(max_examples=40, deadline=None)
    @given(
        n_bits=st.sampled_from([1, 8, 63, 64, 65, 100, 130]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=0, max_value=6),
    )
    def test_round_trip(self, n_bits, seed, rows):
        gen = np.random.default_rng(seed)
        ints = [
            int.from_bytes(gen.bytes((n_bits + 7) // 8), "little")
            % (1 << n_bits)
            for _ in range(rows)
        ]
        matrix = ints_to_bool_matrix(ints, n_bits)
        assert matrix.shape == (rows, n_bits)
        assert bool_matrix_to_ints(matrix) == ints
        for i, bits in enumerate(ints):
            expected = [(bits >> j) & 1 == 1 for j in range(n_bits)]
            assert matrix[i].tolist() == expected

    def test_empty_edges(self):
        assert ints_to_bool_matrix([], 17).shape == (0, 17)
        assert ints_to_bool_matrix([0, 0], 0).shape == (2, 0)
        assert bool_matrix_to_ints(np.zeros((0, 5), dtype=bool)) == []
        assert bool_matrix_to_ints(np.zeros((3, 0), dtype=bool)) == [0, 0, 0]

    def test_word_boundary_identity(self):
        # 64 bits exercises the padded-view fast path exactly at the edge.
        bits = [(1 << 64) - 1, 1 << 63, 0]
        matrix = ints_to_bool_matrix(bits, WORD_BITS)
        assert bool_matrix_to_ints(matrix) == bits

    def test_words_for(self):
        assert [words_for(n) for n in (0, 1, 63, 64, 65, 128, 129)] == [
            0, 1, 1, 1, 2, 2, 3,
        ]
