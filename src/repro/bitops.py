"""Bit-packing kernels shared by the mask index and the context space.

The batched verification engine keeps record masks as *bit-packed*
``uint64`` words instead of per-record boolean arrays: a mask over ``n``
records occupies ``ceil(n / 64)`` words, AND/OR become word-wise NumPy ops,
and population counting is a single popcount pass.  Context bitmasks (which
live as arbitrary-precision Python ints because ``t`` can exceed 64) convert
to and from boolean selection rows through the same little-endian bit
layout: bit ``i`` lives in word ``i >> 6`` at position ``i & 63``.

Everything here is pure NumPy and allocation-light; the hot batch kernels in
:mod:`repro.data.masks` are thin loops over these primitives.  The batch
kernels at the bottom of this module are pinned to a pure-Python oracle by
the hypothesis suite in ``tests/test_kernels.py``:

* :class:`OrTable` evaluates AND-of-OR population masks by table lookup.
  It splits each attribute's predicates into groups of at most
  :data:`GROUP_BITS` and keeps the OR of every subset of each group, so a
  batch of ``B`` contexts costs one ``(B, n_words)`` gather per group, an
  OR across the groups of an attribute and an AND across attributes,
  however many predicates each context selects.  The group codes come from
  the ``(B, t)`` selection matrix, so contexts wider than 64 bits take the
  same path.
* :func:`intersect_counts` counts the records a packed row shares with
  each row of a packed matrix.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

import numpy as np

if sys.byteorder != "little":  # pragma: no cover - exotic platforms only
    raise ImportError(
        "repro.bitops packs masks by viewing little-endian byte buffers as "
        "uint64 words; big-endian hosts would silently scramble record bits"
    )

#: Bits per packed word.
WORD_BITS = 64

#: Bytes per packed word.
WORD_BYTES = 8

#: A word with every bit set.
ALL_ONES = (1 << WORD_BITS) - 1


def words_for(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    return (int(n_bits) + WORD_BITS - 1) >> 6


def pack_bool_matrix(rows: np.ndarray) -> np.ndarray:
    """Pack a ``(r, n)`` boolean matrix into ``(r, ceil(n/64))`` uint64 rows.

    Bit ``i`` of logical row ``k`` lands in ``out[k, i >> 6]`` at position
    ``i & 63`` (little-endian bit order).  Padding bits beyond ``n`` are
    zero, so popcounts over packed rows need no masking.
    """
    rows = np.ascontiguousarray(rows, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-d boolean matrix, got ndim={rows.ndim}")
    r, n = rows.shape
    n_words = words_for(n)
    padded = n_words * WORD_BITS
    if padded != n:
        rows = np.concatenate(
            [rows, np.zeros((r, padded - n), dtype=bool)], axis=1
        )
    if n_words == 0:
        return np.zeros((r, 0), dtype=np.uint64)
    packed_bytes = np.packbits(rows, axis=1, bitorder="little")
    # Native little-endian word view: byte 8w+b of a row holds bits
    # 64w+8b .. 64w+8b+7.  (All supported platforms are little-endian.)
    return packed_bytes.view(np.uint64)


def unpack_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack one row of uint64 words back into an ``(n_bits,)`` bool array."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 1:
        raise ValueError(f"expected a 1-d word row, got ndim={words.ndim}")
    # unpackbits writes 0/1 bytes, so a bool view of them copies nothing.
    bits = np.unpackbits(words.view(np.uint8), count=n_bits, bitorder="little")
    return bits.view(bool)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (any shape)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on NumPy < 2.0
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (any shape)."""
        words = np.ascontiguousarray(words, dtype=np.uint64)
        as_bytes = words.view(np.uint8).reshape(*words.shape, WORD_BYTES)
        return _POP8[as_bytes].sum(axis=-1, dtype=np.uint64)


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Total popcount of each row of a ``(r, w)`` packed uint64 matrix."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    if matrix.shape[-1] == 0:
        return np.zeros(matrix.shape[:-1], dtype=np.int64)
    return popcount_words(matrix).sum(axis=-1, dtype=np.int64)


# ------------------------------------------------------------- int <-> bits


def int_to_bool(bits: int, n_bits: int) -> np.ndarray:
    """Expand a non-negative Python int into an ``(n_bits,)`` bool array."""
    if n_bits == 0:
        return np.zeros(0, dtype=bool)
    n_bytes = (n_bits + 7) >> 3
    raw = np.frombuffer(int(bits).to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n_bits].astype(bool)


def bool_to_int(flags: np.ndarray) -> int:
    """Collapse a boolean array back into a Python int (bit ``i`` = flag i)."""
    flags = np.ascontiguousarray(flags, dtype=bool)
    if flags.size == 0:
        return 0
    packed = np.packbits(flags, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def ints_to_bool_matrix(bits_seq: Sequence[int], n_bits: int) -> np.ndarray:
    """Expand a sequence of ints into a ``(len(seq), n_bits)`` bool matrix.

    One buffer build + one vectorised :func:`numpy.unpackbits`, so decoding
    a batch of contexts costs far less than per-bit Python loops.
    """
    n_rows = len(bits_seq)
    if n_rows == 0 or n_bits == 0:
        return np.zeros((n_rows, n_bits), dtype=bool)
    if n_bits <= WORD_BITS:
        # Word-sized contexts (the common case): one fromiter into a uint64
        # column, viewed as little-endian bytes — no per-int to_bytes and no
        # Python-level buffer join.
        arr = np.fromiter(
            (int(b) for b in bits_seq), dtype=np.uint64, count=n_rows
        )
        raw = arr.view(np.uint8).reshape(n_rows, WORD_BYTES)
    else:
        n_bytes = (n_bits + 7) >> 3
        buf = b"".join(int(b).to_bytes(n_bytes, "little") for b in bits_seq)
        raw = np.frombuffer(buf, dtype=np.uint8).reshape(n_rows, n_bytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n_bits].astype(bool)


def bool_matrix_to_ints(rows: np.ndarray) -> list[int]:
    """Collapse each row of a ``(r, n)`` bool matrix into a Python int."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-d boolean matrix, got ndim={rows.ndim}")
    if rows.shape[0] == 0:
        return []
    if rows.shape[1] == 0:
        return [0] * rows.shape[0]
    packed = np.packbits(rows, axis=1, bitorder="little")
    stride = packed.shape[1]
    if rows.shape[1] <= WORD_BITS:
        # Word-sized rows: pad each packed row to 8 bytes and read the whole
        # batch back as one uint64 column — ``.tolist()`` yields Python ints
        # without a per-row from_bytes loop.
        padded = np.zeros((rows.shape[0], WORD_BYTES), dtype=np.uint8)
        padded[:, :stride] = packed
        return padded.view(np.uint64).ravel().tolist()
    blob = packed.tobytes()
    return [
        int.from_bytes(blob[k * stride : (k + 1) * stride], "little")
        for k in range(rows.shape[0])
    ]


# ------------------------------------------------------------- batch kernels

#: Predicates per group of an :class:`OrTable`.  A group of ``w``
#: predicates keeps ``2**w`` rows, at most ``4 * w``, so a table stays
#: within four times the packed matrix it is built from.
GROUP_BITS = 4

#: :meth:`OrTable.and_of_or` evaluates a batch in chunks of contexts whose
#: masks hold at most this many words (one context at least), so that a
#: large batch's gathers, ORs and ANDs run in cache: at n=20k, 1,024
#: contexts took a third of the time of one unchunked pass.
CHUNK_WORDS = 1 << 14


class OrTable:
    """AND-of-OR population masks by table lookup.

    ``packed`` is the ``(t, n_words)`` predicate matrix and ``offsets`` and
    ``sizes`` its per-attribute block layout.  Each attribute's predicates
    are split into groups of at most :data:`GROUP_BITS`, and :attr:`rows`
    holds, group after group, the OR of every subset of the group's
    predicate rows: row ``base + s`` is the OR of the predicates whose bits
    are set in ``s``.  An attribute with no predicates gets one group of
    width zero, whose only row is all-zero.

    :meth:`and_of_or` then evaluates a batch of contexts with one gather
    per group, an OR across the groups of an attribute and an AND across
    attributes, whatever the number of selected predicates.
    """

    __slots__ = ("rows", "_weights", "_bases", "_spans")

    def __init__(
        self, packed: np.ndarray, offsets: Sequence[int], sizes: Sequence[int]
    ):
        groups = []  # (first predicate, width) of every group
        self._spans = []  # first and end group of every attribute
        for off, size in zip(offsets, sizes):
            off, size = int(off), int(size)
            first = len(groups)
            groups.extend(
                (off + j, min(GROUP_BITS, size - j))
                for j in range(0, max(size, 1), GROUP_BITS)
            )
            self._spans.append((first, len(groups)))
        #: ``selection @ _weights + _bases`` is the table row of every
        #: (context, group) pair.
        self._weights = np.zeros((packed.shape[0], len(groups)), dtype=np.int64)
        self._bases = np.zeros(len(groups), dtype=np.int64)
        n_rows = 0
        for g, (first, width) in enumerate(groups):
            self._weights[first : first + width, g] = 1 << np.arange(width)
            self._bases[g] = n_rows
            n_rows += 1 << width
        rows = np.zeros((n_rows, packed.shape[1]), dtype=np.uint64)
        for (first, width), base in zip(groups, self._bases):
            for j in range(width):
                # The subsets holding predicate j: those without it, OR its row.
                half = base + (1 << j)
                np.bitwise_or(
                    rows[base:half], packed[first + j], out=rows[half : half + (1 << j)]
                )
        rows.flags.writeable = False
        self.rows = rows

    def and_of_or(self, selection: np.ndarray) -> np.ndarray:
        """``(B, n_words)`` uint64 population masks of the ``(B, t)``
        boolean context matrix ``selection``.

        An attribute with no selected predicate picks its groups' all-zero
        rows, zeroing the conjunction: the
        empty-disjunction-is-unsatisfiable semantics.  With zero attributes
        the empty conjunction selects everything.
        """
        rows = self.rows
        out = np.empty((selection.shape[0], rows.shape[1]), dtype=np.uint64)
        if not self._spans:
            out.fill(ALL_ONES)
            return out
        picks = (selection @ self._weights + self._bases).T
        step = max(1, CHUNK_WORDS // max(1, rows.shape[1]))
        for lo in range(0, selection.shape[0], step):
            chunk = picks[:, lo : lo + step]
            masks: Optional[np.ndarray] = None
            for first, end in self._spans:
                block = rows[chunk[first]]
                for g in range(first + 1, end):
                    block |= rows[chunk[g]]
                if masks is None:
                    masks = block
                else:
                    masks &= block
            out[lo : lo + step] = masks
        return out


def intersect_counts(matrix: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``popcount(matrix[k] & row)`` for every packed row ``k`` (int64)."""
    return popcount_rows(matrix & row)


def kernel_backend_name() -> str:
    """Name of the mask-kernel implementation, recorded in bench
    fingerprints: always ``"numpy"``."""
    return "numpy"
