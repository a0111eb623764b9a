"""Predicate bitmap index: the filtering engine behind context populations.

A context filters the dataset as a conjunction (across attributes) of
disjunctions (across selected values of an attribute).  Precomputing one
record mask per predicate turns population evaluation into

    AND_i ( OR_{j selected in attr i} mask[i][j] )

The masks are stored *bit-packed*: a ``t x ceil(n/64)`` ``uint64`` matrix
where row ``b`` holds predicate ``b``'s record mask, 64 records per word.
The batch kernels :meth:`PredicateMaskIndex.population_masks` and
:meth:`PredicateMaskIndex.population_sizes` evaluate the AND-of-OR filter
for a whole array of context bitmasks through one table kernel,
:class:`repro.bitops.OrTable`, with no per-record boolean arrays on the hot
path.  The table splits each attribute's predicates into groups of at most
four and holds the OR of every subset of each group, so a batch costs one
word-wise gather per group (4 at t=14, whose blocks of 6, 4 and 4
predicates split into groups of 4 + 2, 4 and 4), one OR per extra group of
an attribute and one AND per further attribute, however many predicates
each context selects.  A group of ``w`` predicates keeps ``2**w`` rows, so
a table is at most four times the packed matrix: 52 rows against 14 at
t=14, ~130 KB at n=20k.  Each index snapshot builds the table of each
layout it is asked for on first use and keeps it.  The scalar APIs are
thin wrappers over the batch kernels, so every caller exercises the same
engine.

Populations wanted in metric order (full profiles of ``sorted_input``
detectors, and every record-scoped verdict) come from the same filter over
a second copy of the matrix whose records are laid out in
:meth:`Dataset.metric_order`: bit ``j`` of a row there is the record of
rank ``j``.  Each index snapshot builds its copy on first use (one unpack,
gather and repack of the ``t`` rows: ~1 ms and 35 KB at n=20k, t=14), so
a population's set bits come out already in metric order, with no O(n)
gather per population.

The index is *append-only live*: :meth:`PredicateMaskIndex.append` grows
the packed matrix by OR-ing in the new records' bits word-by-word (O(k)
words touched per appended record, no O(t*n) rebuild) and swaps the whole
``(dataset, matrix, version)`` state atomically, so concurrent readers see
either the old or the new dataset, never a torn mix.  ``dataset_version``
increases monotonically with each append; caches keyed off the index use
it for targeted invalidation.

This is the module every sampler, the enumerator and the verifier funnel
through, so it also keeps simple counters for the experiment harness.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.bitops import (
    OrTable,
    bool_matrix_to_ints,
    ints_to_bool_matrix,
    pack_bool_matrix,
    popcount_rows,
    unpack_words,
    words_for,
)
from repro.data.table import Dataset
from repro.exceptions import ContextError


class IndexSnapshot:
    """One coherent view of the index: dataset, packed matrix, version.

    Everything derived from a population evaluation (row positions, record
    ids, metric values) must come from the *same* snapshot the masks were
    evaluated against, or a concurrent append could tear the result.
    Derived layouts (:meth:`metric_packed`, :meth:`or_table`) are built
    from the snapshot's own matrix, so they see every append it holds.
    """

    __slots__ = ("dataset", "packed", "version", "_metric_packed", "_tables")

    def __init__(self, dataset: Dataset, packed: np.ndarray, version: int):
        self.dataset = dataset
        self.packed = packed
        self.version = version
        self._metric_packed: np.ndarray | None = None
        self._tables: list[OrTable | None] = [None, None]

    def metric_packed(self) -> np.ndarray:
        """The packed matrix with records in metric order (read-only): bit
        ``j`` of row ``b`` is predicate ``b`` of the record at
        ``dataset.metric_order()[j]``.

        Built on first call and kept for the snapshot's lifetime.  Unlocked,
        like :meth:`Dataset.metric_order`: racing first calls may each build
        it, and every caller gets a whole copy.
        """
        packed = self._metric_packed
        if packed is None:
            n = len(self.dataset)
            bits = np.unpackbits(
                self.packed.view(np.uint8), axis=1, count=n, bitorder="little"
            )
            packed = pack_bool_matrix(bits[:, self.dataset.metric_order()].view(bool))
            packed.flags.writeable = False
            self._metric_packed = packed
        return packed

    def or_table(self, metric_order: bool = False) -> OrTable:
        """The :class:`~repro.bitops.OrTable` of :attr:`packed`, or of
        :meth:`metric_packed` with ``metric_order``.

        Built on first call per layout and kept for the snapshot's lifetime;
        unlocked like :meth:`metric_packed`.
        """
        table = self._tables[metric_order]
        if table is None:
            schema = self.dataset.schema
            table = OrTable(
                self.metric_packed() if metric_order else self.packed,
                schema.offsets,
                [len(a) for a in schema.attributes],
            )
            self._tables[metric_order] = table
        return table


class _PendingAppend(NamedTuple):
    """A fully built append, not yet visible to readers.

    Produced by :meth:`PredicateMaskIndex.prepare_append`, published by
    :meth:`PredicateMaskIndex.commit_append`.  The two-phase split lets the
    engine invalidate version-keyed caches *between* building the new state
    (which validates the records) and making it visible, so no release can
    cache a stale profile under the new version.
    """

    base: IndexSnapshot
    dataset: Dataset
    packed: np.ndarray
    version: int
    record_bits: Tuple[int, ...]
    record_ids: Tuple[int, ...]


class PredicateMaskIndex:
    """Bit-packed per-predicate record masks over one dataset."""

    def __init__(self, dataset: Dataset):
        schema = dataset.schema
        self.t = schema.t
        self._offsets = schema.offsets
        n = len(dataset)
        n_words = words_for(n)
        # Pack one attribute block at a time into the final matrix: peak
        # construction memory is one (max_block, n) boolean scratch, not the
        # full (t, n) temporary — ~8x less at realistic schemas.
        packed = np.zeros((self.t, n_words), dtype=np.uint64)
        max_block = max((len(a) for a in schema.attributes), default=0)
        scratch = np.empty((max_block, n), dtype=bool)
        row = 0
        for attr in schema.attributes:
            codes = dataset.codes(attr.name)
            block = scratch[: len(attr)]
            for j in range(len(attr)):
                np.equal(codes, j, out=block[j])
            packed[row : row + len(attr)] = pack_bool_matrix(block)
            row += len(attr)
        self._state = IndexSnapshot(dataset, packed, 0)
        self._append_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.population_evaluations = 0  # harness-visible cost counter

    @classmethod
    def from_packed(
        cls,
        dataset: Dataset,
        packed: np.ndarray,
        dataset_version: int = 0,
    ) -> "PredicateMaskIndex":
        """Rebuild an index around an existing packed matrix, without
        re-running the O(t*n) bit-pack pass.

        ``packed`` may be a read-only view — in particular a zero-copy view
        into a :mod:`multiprocessing.shared_memory` segment, which is how
        process workers get the matrix for free.  The caller keeps the
        backing buffer alive for the index's lifetime.  ``dataset_version``
        carries the producing index's append counter across the boundary so
        version-stamped accounting agrees between parent and workers.
        """
        obj = cls.__new__(cls)
        schema = dataset.schema
        obj.t = schema.t
        obj._offsets = schema.offsets
        n_words = words_for(len(dataset))
        arr = np.asarray(packed)
        if arr.dtype != np.uint64 or arr.shape != (obj.t, n_words):
            raise ContextError(
                f"packed matrix must be uint64 of shape ({obj.t}, {n_words}), "
                f"got {arr.dtype} {arr.shape}"
            )
        obj._state = IndexSnapshot(dataset, arr, int(dataset_version))
        obj._append_lock = threading.Lock()
        obj._counter_lock = threading.Lock()
        obj.population_evaluations = 0
        return obj

    # ------------------------------------------------------------------ core

    @property
    def dataset(self) -> Dataset:
        """The dataset currently served (grows under :meth:`append`)."""
        return self._state.dataset

    @property
    def dataset_version(self) -> int:
        """Monotonic append counter: 0 at build, +1 per committed append."""
        return self._state.version

    @property
    def n_words(self) -> int:
        """Packed words per mask row for the current dataset."""
        return self._state.packed.shape[1]

    def snapshot(self) -> IndexSnapshot:
        """Atomically capture ``(dataset, packed, version)``.

        The tuple swap in :meth:`append` makes this safe against concurrent
        appends; derive positions/ids/metrics from the snapshot's dataset,
        not from ``self.dataset``, when coherence with an evaluation
        matters.
        """
        return self._state

    @property
    def packed_matrix(self) -> np.ndarray:
        """The ``(t, n_words)`` packed predicate-mask matrix (read-only)."""
        view = self._state.packed.view()
        view.flags.writeable = False
        return view

    def predicate_mask(self, bit: int) -> np.ndarray:
        """Boolean record mask of one predicate (read-only, unpacked on demand)."""
        if not 0 <= bit < self.t:
            raise ContextError(f"bit {bit} out of range for t={self.t}")
        snap = self._state
        mask = unpack_words(snap.packed[bit], len(snap.dataset))
        mask.flags.writeable = False
        return mask

    def population_masks(
        self,
        bits_seq: Sequence[int],
        snapshot: IndexSnapshot | None = None,
        metric_order: bool = False,
    ) -> np.ndarray:
        """Packed population masks for a whole batch of context bitmasks.

        Returns a ``(len(bits_seq), n_words)`` ``uint64`` matrix; row ``k``
        is the bit-packed record mask of context ``bits_seq[k]``.  An
        attribute block with no selected value yields an all-zero row (the
        conjunction over an empty disjunction is unsatisfiable), which
        matches the paper's "any non-empty context includes at least one
        predicate of each attribute".

        With ``metric_order`` the rows use the snapshot's metric-ordered
        layout (:meth:`IndexSnapshot.metric_packed`): bit ``j`` is the
        record of rank ``j`` in metric order instead of row position ``j``.

        Pass a :meth:`snapshot` to pin the evaluation to one coherent index
        state while deriving positions/ids from the same snapshot; by
        default the current state is captured once at entry.
        """
        snap = self._state if snapshot is None else snapshot
        return self._evaluate(bits_seq, snap, metric_order)

    def population_sizes(self, bits_seq: Sequence[int]) -> np.ndarray:
        """Population size of every context in ``bits_seq`` (int64 array)."""
        return popcount_rows(self._evaluate(bits_seq, self._state, False))

    def _evaluate(
        self, bits_seq: Sequence[int], snap: IndexSnapshot, metric_order: bool
    ) -> np.ndarray:
        """Range check, count and evaluate a batch against ``snap``'s table
        of the asked layout."""
        bits_list = [int(b) for b in bits_seq]
        for b in bits_list:
            if b < 0 or b >> self.t:
                raise ContextError(
                    f"context bits {b:#x} out of range for t={self.t}"
                )
        # The index is shared by every verifier, which concurrent engine
        # callers read at once: the counter update must not lose
        # increments.
        with self._counter_lock:
            self.population_evaluations += len(bits_list)
        selection = ints_to_bool_matrix(bits_list, self.t)  # (B, t)
        return snap.or_table(metric_order).and_of_or(selection)

    def population_mask(self, bits: int) -> np.ndarray:
        """Boolean record mask of the population selected by context ``bits``.

        Thin scalar wrapper over :meth:`population_masks`.
        """
        snap = self._state
        packed = self.population_masks([bits], snapshot=snap)
        return unpack_words(packed[0], len(snap.dataset))

    def population_size(self, bits: int) -> int:
        """Number of records selected by context ``bits``."""
        return int(self.population_sizes([bits])[0])

    def population(self, bits: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, record_ids, metric_values)`` of the population."""
        snap = self._state
        packed = self.population_masks([bits], snapshot=snap)
        positions = np.flatnonzero(unpack_words(packed[0], len(snap.dataset)))
        return (
            positions,
            snap.dataset.ids[positions],
            snap.dataset.metric[positions],
        )

    def positions_from_packed(
        self, packed_row: np.ndarray, n_records: int | None = None
    ) -> np.ndarray:
        """Ascending positions of the set bits of one packed mask row: row
        positions, or metric ranks for a row evaluated with
        ``metric_order=True`` (index them into :meth:`Dataset.metric_order`
        to get row positions in metric order).

        ``n_records`` pins the unpack length to the snapshot the row was
        evaluated against (defaults to the current dataset's length).
        """
        n = len(self._state.dataset) if n_records is None else int(n_records)
        return np.flatnonzero(unpack_words(packed_row, n))

    # --------------------------------------------------------------- appends

    def prepare_append(
        self, records: Sequence[Mapping[str, Any]]
    ) -> _PendingAppend:
        """Build (but do not publish) the post-append index state.

        Validates and appends the records via the O(k) fast path
        :meth:`Dataset.append`, copies the packed matrix into a
        ``(t, ceil((n+k)/64))`` buffer and OR-s each appended record's
        ``m`` predicate bits into its word — the update is fully
        vectorised (one ``bitwise_or.at`` scatter per attribute), no
        O(t*n) repack and no per-record Python loop.
        """
        rows = [dict(r) for r in records]
        base = self._state
        new_dataset = base.dataset.append(rows)
        old_n = len(base.dataset)
        k = len(new_dataset) - old_n
        new_packed = np.zeros((self.t, words_for(len(new_dataset))), dtype=np.uint64)
        new_packed[:, : base.packed.shape[1]] = base.packed
        positions = np.arange(old_n, old_n + k, dtype=np.int64)
        words = positions >> 6
        word_bits = np.uint64(1) << (positions & 63).astype(np.uint64)
        row_range = np.arange(k)
        flags = np.zeros((k, self.t), dtype=bool)
        for off, attr in zip(self._offsets, new_dataset.schema.attributes):
            predicate_rows = off + new_dataset.codes(attr.name)[old_n:].astype(
                np.int64
            )
            # .at, not fancy assignment: two appended records in the same
            # word and predicate must both land their bits.
            np.bitwise_or.at(new_packed, (predicate_rows, words), word_bits)
            flags[row_range, predicate_rows] = True
        record_bits = bool_matrix_to_ints(flags)
        return _PendingAppend(
            base=base,
            dataset=new_dataset,
            packed=new_packed,
            version=base.version + 1,
            record_bits=tuple(record_bits),
            record_ids=tuple(int(r) for r in new_dataset.ids[old_n:]),
        )

    def commit_append(self, pending: _PendingAppend) -> Dataset:
        """Atomically publish a prepared append; returns the new dataset.

        Readers mid-evaluation keep the snapshot they captured; every call
        after the commit sees the grown dataset and the bumped version.
        Committing against a state other than the one the append was
        prepared from raises (appends must be serialised by the caller).
        """
        with self._append_lock:
            if self._state is not pending.base:
                raise ContextError(
                    "stale append: the index advanced since prepare_append "
                    "(serialise appends through one writer)"
                )
            self._state = IndexSnapshot(
                pending.dataset, pending.packed, pending.version
            )
        return pending.dataset

    def append(self, records: Sequence[Mapping[str, Any]]) -> Dataset:
        """Append records in one step (prepare + commit under the lock).

        Convenience for standalone index use; :class:`ReleaseEngine` drives
        the two-phase form so it can invalidate version-keyed caches
        between build and publish.
        """
        with self._append_lock:
            pending = self.prepare_append(records)
            if self._state is not pending.base:  # pragma: no cover - guarded
                raise ContextError("concurrent append detected")
            self._state = IndexSnapshot(
                pending.dataset, pending.packed, pending.version
            )
        return pending.dataset

    # -------------------------------------------------------------- utilities

    def contains_record(self, bits: int, record_id: int) -> bool:
        """Does context ``bits`` select record ``record_id``?

        Each record has exactly one value per attribute, so membership is a
        pure bit test against the record's exact-context bits — no record
        scan needed.
        """
        record_bits = self.dataset.record_bits(record_id)
        return (record_bits & bits) == record_bits

    def reset_counters(self) -> None:
        with self._counter_lock:
            self.population_evaluations = 0
