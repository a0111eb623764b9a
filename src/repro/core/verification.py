"""Outlier verification ``f_M(D_C, V)`` — batched, with a shared profile store.

``f_M`` answers "is record V an outlier in the population selected by
context C?".  Every sampler, the enumerator and both utility functions ask
this question about overlapping sets of contexts, so the verifier memoises
its answers in a :class:`ProfileStore`, in one of two forms:

* a **full profile** — population size plus the full set of outlier record
  ids — computed once per context bitmask.  It answers any record's
  question and every record-free read (:meth:`OutlierVerifier.context_profile`,
  :meth:`~OutlierVerifier.outlier_ids`, the reference file).  This mirrors
  the paper's reference-file trick (Section 6.2) at the granularity of a
  run (private store) or a whole process (shared store, see
  :func:`repro.core.profiles.shared_profile_store`).
* a **record-scoped profile** — population size plus ``{V}`` or nothing —
  for detectors that declare a finite
  :attr:`~repro.outliers.base.OutlierDetector.locality` ``s``.  A
  record-bound read (:meth:`~OutlierVerifier.is_matching`,
  :meth:`~OutlierVerifier.is_matching_many`, ``profiles(...,
  record_id=V)``) that misses the store runs the detector only on V's
  window of the population in metric order, the ``max(s,
  min_population)`` members on each side of V, so it costs O(s) detector
  work instead of O(population).  The verdict is the full profile's, bit
  for bit (see :mod:`repro.outliers.lof`).  All misses of one read are
  answered in one vectorised pass: the population masks come from the
  index's OR table over its metric-ordered layout, one gather per
  predicate group; one cumulative popcount over all their words and one
  ``searchsorted`` locate each window, so only the words holding it are
  unpacked; and the windows go to the detector as one ``(B, 2s + 1)``
  matrix centred on V
  (:meth:`~repro.outliers.base.OutlierDetector.outlier_centres`).  LOF
  scores only each row's centre from the ``6k + 1`` values its score
  reads, not the ``2s + 1`` scores of the whole row.

A record-scoped profile cannot answer a second record, so a record-bound
miss is computed as a full profile instead whenever another record could
read it: while the running release is one of a batch of several records'
releases.  The release engine sets that (:attr:`OutlierVerifier.in_batch`)
in the verifier's thread-local state for the duration of a release; a lone
release is never in a batch.  The flag can change which path computes a
verdict, never the verdict.  The trade-off: on a long-lived store, separate
releases of different records no longer share verdicts on contexts they
both ask about, and the store holds one entry per (context, record) asked.

The core entry point is batched: :meth:`OutlierVerifier.profiles` partitions
a batch of contexts into cached and uncached, evaluates all uncached
population masks in one table-driven pass through the bit-packed
:class:`~repro.data.masks.PredicateMaskIndex`, then runs the detector once
per distinct uncached full profile — on the population's values in metric
order, read off the metric-ordered mask layout, when the detector is
``sorted_input``, so it never sorts them — or once per read for
record-scoped ones.  :meth:`is_matching_many` layers the paper's
matching-context test on top, short-circuiting non-containing contexts with
pure bit tests so they never touch the detector.  The scalar APIs
(``context_profile``, ``is_matching`` ...) are thin wrappers over the batch
kernels.

The profile also powers both utility functions for free: population size is
the first profile component, and outlier-membership is a set lookup.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from repro.bitops import popcount_rows, popcount_words
from repro.core.profiles import ContextProfile, ProfileStore
from repro.data.masks import IndexSnapshot, PredicateMaskIndex
from repro.data.table import Dataset
from repro.exceptions import VerificationError
from repro.outliers.base import OutlierDetector

__all__ = ["ContextProfile", "OutlierVerifier"]


class OutlierVerifier:
    """Cached, batch-capable implementation of the verification function ``f_M``."""

    def __init__(
        self,
        dataset: Dataset,
        detector: OutlierDetector,
        mask_index: Optional[PredicateMaskIndex] = None,
        profile_store: Optional[ProfileStore] = None,
        backend=None,
    ):
        self.dataset = dataset
        self.detector = detector
        self.masks = mask_index if mask_index is not None else PredicateMaskIndex(dataset)
        if self.masks.dataset is not dataset:
            raise VerificationError("mask index was built for a different dataset")
        self.profile_store = profile_store if profile_store is not None else ProfileStore()
        #: Optional :class:`~repro.runtime.base.ExecutionBackend`.  When set
        #: (and parallel), large uncached-profile batches fan out across its
        #: workers — this is the single hook that parallelises
        #: ``is_matching_many``, ``UtilityFunction.scores`` and every
        #: sampler's child expansion, since they all funnel through
        #: :meth:`profiles`.  Profiles are deterministic, so the backend can
        #: never change an answer, only the wall time.
        self.backend = backend
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self.fm_evaluations = 0  # number of *uncached* detector runs
        self.fm_queries = 0  # number of f_M questions asked (cached or not)

    @property
    def local_fm_evaluations(self) -> int:
        """Uncached detector runs charged by *this thread*.

        A release executes entirely on one thread (backends never split one
        request), so per-release cost deltas diff this counter instead of
        the shared :attr:`fm_evaluations` — which, under the thread backend,
        would attribute concurrent releases' runs to each other.
        """
        return getattr(self._local, "fm_evaluations", 0)

    @property
    def in_batch(self) -> bool:
        """Whether the release running on this thread is one of a batch of
        several records' releases.

        Thread-local like :attr:`local_fm_evaluations`: the release engine
        sets it around each release and clears it afterwards.  In a batch,
        a record-bound miss is computed as a full profile, which the other
        records of the batch can read; outside one it is record-scoped.
        """
        return getattr(self._local, "in_batch", False)

    @in_batch.setter
    def in_batch(self, value: bool) -> None:
        self._local.in_batch = bool(value)

    @property
    def schema(self):
        return self.dataset.schema

    # ------------------------------------------------------------------ core

    def profiles(
        self, bits_seq: Sequence[int], record_id: Optional[int] = None
    ) -> List[ContextProfile]:
        """Profiles of a whole batch of contexts (one entry per input).

        Cached contexts are answered from the store in one locked batch
        read; the distinct uncached ones share a single batched
        population-mask pass, then get one detector run each over their
        population's metric values.

        With ``record_id`` the read is record-bound: the caller only asks
        whether that record is an outlier, so an entry may be a cached full
        profile or a record-scoped one (its outlier set is ``{record_id}``
        or empty; see the module docstring).  Without it every entry is a
        full profile.

        Every store write is stamped with the dataset version captured at
        batch entry: if an append lands mid-batch, the computed profiles
        still answer *this* batch correctly (they describe the pre-append
        snapshot) but the store rejects them, so later callers never read a
        profile for a dataset that no longer exists.
        """
        version = self.masks.dataset_version
        keys = [int(b) for b in bits_seq]
        rid = None if record_id is None else int(record_id)
        out = self.profile_store.get_many(keys, rid)
        misses = list(dict.fromkeys(b for b, p in zip(keys, out) if p is None))
        if not misses:
            return out
        found = dict(zip(misses, self._answer_misses(misses, rid, version)))
        return [found[b] if p is None else p for b, p in zip(keys, out)]

    def _count_runs(self, n: int) -> None:
        with self._counter_lock:
            self.fm_evaluations += n
        self._local.fm_evaluations = self.local_fm_evaluations + n

    def _compute_profiles(self, misses: List[int]) -> List[ContextProfile]:
        """Profile the distinct uncached contexts of one batch.

        Large batches fan out across the attached execution backend's
        workers (chunked contiguously, reduced in input order); everything
        else — and any batch arriving from inside a backend worker task —
        computes inline via :meth:`_profile_chunk`.
        """
        self._count_runs(len(misses))
        backend = self.backend
        if (
            backend is not None
            and backend.parallel
            and len(misses) >= backend.min_profile_fanout
            and backend.inner_fanout_allowed()
        ):
            return backend.run_profiles(self, misses)
        return self._profile_chunk(misses)

    def _answer_misses(
        self, misses: List[int], record_id: Optional[int], version: int
    ) -> List[ContextProfile]:
        """Compute and store the distinct uncached contexts of one read.

        A record-bound read (``record_id`` set) of a detector with a
        ``locality``, outside a batch (:attr:`in_batch`), gets
        record-scoped profiles, computed inline by :meth:`_record_chunk`
        and stored under ``(bits, record_id)``.  Everything else gets full
        profiles (fanned out by :meth:`_compute_profiles`), stored under
        ``bits``, where any record can read them.  Each miss counts one
        ``f_M`` run either way.
        """
        scoped = (
            record_id is not None
            and self.detector.locality is not None
            and not self.in_batch
        )
        if scoped:
            snap = self.masks.snapshot()
            # Checked before counting: an unknown record runs no detector.
            if not snap.dataset.has_record(record_id):
                raise VerificationError(f"record {record_id} not in dataset")
            self._count_runs(len(misses))
            computed = self._record_chunk(misses, record_id, snap)
        else:
            computed = self._compute_profiles(misses)
        store = self.profile_store
        for bits, profile in zip(misses, computed):
            store.put(
                bits, profile, version=version, record_id=record_id if scoped else None
            )
        return computed

    def _profile_chunk(self, misses: List[int]) -> List[ContextProfile]:
        """Profile one chunk of uncached contexts.

        No verifier counters and no cache writes happen here (the mask
        index's own evaluation counter is lock-protected), so chunks are
        safe to run concurrently from backend workers.  The whole chunk is
        evaluated against one index snapshot — masks, positions, ids and
        metric values all describe the same dataset even if an append
        commits mid-chunk."""
        snap = self.masks.snapshot()
        ids = snap.dataset.ids
        metric = snap.dataset.metric
        n_records = len(snap.dataset)
        # Detectors that sort their input get each population already in
        # metric order, from the metric-ordered mask layout: its set bits
        # are ranks, ascending, so they never sort per population.
        ordered = self.detector.sorted_input
        order = snap.dataset.metric_order() if ordered else None
        packed = self.masks.population_masks(misses, snapshot=snap, metric_order=ordered)
        computed: List[ContextProfile] = []
        for row, pop in zip(packed, popcount_rows(packed)):
            if pop == 0:
                computed.append((0, frozenset()))
                continue
            positions = self.masks.positions_from_packed(row, n_records=n_records)
            if order is not None:
                positions = order[positions]
            outlier_pos = self.detector.outlier_positions(metric[positions])
            computed.append(
                (int(pop), frozenset(ids[positions[outlier_pos]].tolist()))
            )
        return computed

    def _record_chunk(
        self, misses: List[int], record_id: int, snap: IndexSnapshot
    ) -> List[ContextProfile]:
        """Record-scoped profiles of uncached contexts (a locality detector).

        One batched mask pass in the metric-ordered layout, then one
        detector call for the whole chunk: the record V's window in each
        population that holds it, the ``s = max(locality, min_population)``
        members on each side of V in metric order, as one row of a
        ``(B, 2s + 1)`` matrix centred on V (:func:`_centred_windows`).  A
        window holds at least ``min_population`` values whenever its
        population does, so the detector's verdict on V is its verdict over
        the whole population.  Like :meth:`_profile_chunk`, no counters and
        no cache writes; ``snap`` is the one snapshot for the whole chunk.
        """
        detector = self.detector
        dataset = snap.dataset
        rank = dataset.metric_rank(record_id)
        packed = self.masks.population_masks(misses, snapshot=snap, metric_order=True)
        # Members of all the populations, numbered row after row: cum[i] of
        # them lie in the words before flat word i.
        cum = np.zeros(packed.size + 1, dtype=np.int64)
        np.add.accumulate(popcount_words(packed).reshape(-1), out=cum[1:])
        bounds = cum[:: packed.shape[1]]  # each population's first member
        held = (packed[:, rank >> 6] & np.uint64(1 << (rank & 63))).nonzero()[0]
        verdicts = np.zeros(len(misses), dtype=bool)
        if held.size:
            windows = _centred_windows(
                packed,
                cum,
                held,
                rank,
                max(detector.locality, detector.min_population),
                dataset.metric,
                dataset.metric_order(),
            )
            verdicts[held] = detector.outlier_centres(windows)
        pops = (bounds[1:] - bounds[:-1]).tolist()
        flagged, clean = frozenset((record_id,)), frozenset()
        return [
            (pop, flagged if verdict else clean)
            for pop, verdict in zip(pops, verdicts.tolist())
        ]

    def context_profile(self, bits: int) -> ContextProfile:
        """Population size and outlier record ids of context ``bits`` (cached).

        Fast scalar path: a store hit costs one dict lookup (no batch
        plumbing); only misses fall through to the batch compute kernel.
        """
        bits = int(bits)
        cached = self.profile_store.get(bits)
        if cached is not None:
            return cached
        version = self.masks.dataset_version
        return self._answer_misses([bits], None, version)[0]

    def population_size(self, bits: int) -> int:
        return self.context_profile(bits)[0]

    def outlier_ids(self, bits: int) -> FrozenSet[int]:
        return self.context_profile(bits)[1]

    def is_matching_many(self, bits_seq: Sequence[int], record_id: int) -> np.ndarray:
        """The matching-context test for a whole batch of contexts.

        Returns a boolean array: entry ``k`` is ``True`` iff the record is
        contained in context ``bits_seq[k]`` *and* is an outlier there.
        Containment is a pure bit test, so non-containing contexts never
        trigger a detector run; the containing remainder is profiled through
        one batched :meth:`profiles` call.
        """
        bits_list = [int(b) for b in bits_seq]
        with self._counter_lock:
            self.fm_queries += len(bits_list)
        if not self.dataset.has_record(record_id):
            raise VerificationError(f"record {record_id} not in dataset")
        record_bits = self.dataset.record_bits(record_id)
        containing = [
            i for i, bits in enumerate(bits_list)
            if (record_bits & bits) == record_bits
        ]
        out = np.zeros(len(bits_list), dtype=bool)
        if containing:
            rid = int(record_id)
            profiles = self.profiles(
                [bits_list[i] for i in containing], record_id=rid
            )
            for i, profile in zip(containing, profiles):
                out[i] = rid in profile[1]
        return out

    def is_matching(self, bits: int, record_id: int) -> bool:
        """The paper's matching-context test: ``V in D_C`` and ``f_M = true``.

        Same semantics as a batch-of-one :meth:`is_matching_many`, minus the
        batch allocations — the starting-context search, the one scalar loop
        left (enumerations of the context space go through
        :meth:`is_matching_many` in chunks), calls this once per context, so
        cache hits must stay a couple of dict lookups.
        """
        with self._counter_lock:
            self.fm_queries += 1
        if not self.dataset.has_record(record_id):
            raise VerificationError(f"record {record_id} not in dataset")
        record_bits = self.dataset.record_bits(record_id)
        if (record_bits & bits) != record_bits:
            return False
        bits, rid = int(bits), int(record_id)
        profile = self.profile_store.get_for_record(bits, rid)
        if profile is None:
            version = self.masks.dataset_version
            profile = self._answer_misses([bits], rid, version)[0]
        return rid in profile[1]

    # --------------------------------------------------------------- plumbing

    def rebind(self, dataset: Dataset) -> None:
        """Point the verifier at the grown dataset after an index append.

        The caller (the release engine) must have already invalidated the
        profile store via :meth:`ProfileStore.invalidate_matching` with the
        new version, and ``dataset`` must be the one the shared mask index
        now serves — this only swaps the reference used for record lookups
        and containment tests.
        """
        if self.masks.dataset is not dataset:
            raise VerificationError(
                "rebind target does not match the mask index's dataset"
            )
        self.dataset = dataset

    def cache_size(self) -> int:
        return len(self.profile_store)

    def reset_counters(self) -> None:
        """Zero this verifier's counters plus the mask/store counters.

        When the verifier is backed by a *shared* profile store, the store's
        hit/miss/eviction counters are process-wide state: resetting here
        resets them for every other verifier on the same store.
        """
        self.fm_evaluations = 0
        self.fm_queries = 0
        self._local.fm_evaluations = 0  # calling thread's slice only
        self.masks.reset_counters()
        self.profile_store.reset_counters()

    def clear_cache(self) -> None:
        """Drop all memoised profiles.

        With a shared profile store this clears the cache for every PCOR
        instance sharing it — use a private store (the default) for
        measurement runs that clear between repetitions.
        """
        self.profile_store.clear()


def _centred_windows(
    packed: np.ndarray,
    cum: np.ndarray,
    rows: np.ndarray,
    rank: int,
    reach: int,
    metric: np.ndarray,
    order: np.ndarray,
) -> np.ndarray:
    """The windows of the record at metric rank ``rank`` in the populations
    ``rows``, which all hold it.

    ``packed`` holds ``(B, W)`` population masks in the metric-ordered
    layout, ``cum`` the cumulative popcounts of its flat words (``cum[i]``
    set bits before flat word ``i``, so the members of all populations are
    numbered row after row) and ``rows`` the populations asked about.  Row
    ``j`` of the result is centred on the record (column ``reach``) and
    holds, in metric order, the metric values of the ``reach`` members of
    population ``rows[j]`` on each side of it, padded with ``-inf`` on the
    left and ``+inf`` on the right where the population ends.  Metric
    values are finite, so a pad is never data.  The popcounts locate those
    members; only the words holding them are unpacked.
    """
    n_words = packed.shape[1]
    word, bit = rank >> 6, rank & 63
    row_word = rows * n_words
    # The record's number, and the first and last of its window's members.
    at = cum[word : packed.size : n_words] + popcount_words(
        packed[:, word] & np.uint64((1 << bit) - 1)
    )
    at = at[rows]
    ends = np.empty((2, rows.size), dtype=np.int64)
    np.maximum(at - reach, cum[row_word], out=ends[0])
    np.minimum(at + reach, cum[row_word + n_words] - 1, out=ends[1])
    # The flat words holding them, laid end to end row after row.
    first, stop = cum.searchsorted(ends, side="right")
    first -= 1
    width = stop - first
    start = width.cumsum() - width
    slab = packed.reshape(-1)[
        np.arange(start[-1] + width[-1]) + (first - start).repeat(width)
    ]
    # A bool view: nonzero is several times faster on bool than on uint8.
    bits = np.unpackbits(slab.view(np.uint8), bitorder="little").view(bool)
    bits = bits.nonzero()[0]
    # Member m of row j is set bit ``m - cum[first[j]]`` of its row's run in
    # ``bits``, and the runs end at the cumulative sum of their lengths.
    end = cum[stop]
    zero = (end - cum[first]).cumsum() - end
    member = at[:, None] + np.arange(-reach, reach + 1)
    # Members beyond the population read any in-range slot, then a pad.
    ranks = bits.take(zero[:, None] + member, mode="clip")
    ranks += 64 * (first - start - row_word)[:, None]
    values = metric[order.take(ranks, mode="clip")]
    np.copyto(values, -np.inf, where=member < ends[0, :, None])
    np.copyto(values, np.inf, where=member > ends[1, :, None])
    return values
