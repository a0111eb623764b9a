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
  run (a private store, the default) or of every verifier handed the same
  :class:`~repro.core.profiles.ProfileStore`.
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

A record-bound miss of a locality detector is always answered
record-scoped, whichever release asks and whatever runs alongside it, so
each detector has one verdict path per kind of read.  The trade-off: a
record-scoped profile cannot answer a second record, so on a long-lived
store releases of different records share no verdicts on contexts they
both ask about, and the store holds one entry per (context, record) asked.
Detectors without a locality (every one but LOF) compute full profiles,
which every record reads.

**Full profiles from cell moments.**  A detector that declares
:attr:`~repro.outliers.base.OutlierDetector.std_cutoff` ``z`` (zscore)
flags the members below ``mean - z * std`` or above ``mean + z * std``, so
its full profiles need no population gathered.  A read's misses get:

* their count, mean, centred sum of squares and largest magnitude
  ``A = max|x|`` from the snapshot's
  :class:`~repro.data.masks.CellTable`, through one containment matmul
  (the population is the union of the cells its context contains);
* their two cut-offs as metric ranks, by ``searchsorted`` on the
  ascending metric;
* their outliers: the members ranked beyond the cut-offs, read from each
  population's metric-ordered mask row (on the served workload a mean
  ~2,000 of the ~20,000 ranks per profile), never gathering its values.

The detector computes its mean and deviation over the population in
record order (NumPy's pairwise sums) and compares ``|x - mean| / std``
with ``z``; the moments here come from other sums, so the two sides'
cut-offs differ by rounding.  Every sum on either side adds at most ``n``
values of magnitude at most ``A``, so for ``n <= 2**20`` records each
side's mean lies within ``n * eps * A`` (1.2e-10 ``A``) of the exact one
and its deviation within ``2 n eps A`` plus ``n eps`` of itself (the
deviation is at most ``1.5 A``), up to a second-order term that rule 2
below keeps negligible; the detector's subtraction, division and
comparison add a few ulps of ``A + z * std``.  So the two sides' cut-offs
agree to within ``8.2e-10 * (1 + z) * A``, inside the error band
``1e-9 * (1 + z) * A``, which is widened in proportion beyond ``2**20``
records.  A population goes to the detector
(:meth:`~repro.outliers.base.OutlierDetector.outlier_positions` on its
values in record order, exactly as for any other detector) when

1. a member lies within the band of either cut-off, or
2. its deviation is at most ``1e3`` times ``1e-9 * A``: there the
   detector's own verdicts follow its rounding (a constant population's
   computed mean need not equal its values), and so does the second-order
   term the bound leaves out.  Zero, NaN (one member) and constant
   populations all land here; or
3. its deviation is at most ``1e-150`` or ``A`` at least ``1e150``, where
   squares may underflow or sums of squares overflow (like LOF's reach
   distance range).

Every other member's verdict is then the detector's, so the profile is
bit for bit the one :meth:`outlier_positions` gives.  On ordinary data
no condition fires: none of the ~21k profiles the served zscore workload
computes per run (seeds 1 and 2) goes to the detector.

The core entry point is batched: :meth:`OutlierVerifier.profiles` partitions
a batch of contexts into cached and uncached, evaluates all uncached
population masks in one table-driven pass through the bit-packed
:class:`~repro.data.masks.PredicateMaskIndex`, then runs the detector once
per distinct uncached full profile — on the population's values in metric
order, read off the metric-ordered mask layout, when the detector is
``sorted_input``, so it never sorts them — or once per read for
record-scoped ones; a ``std_cutoff`` detector runs only on the populations
its cut-offs cannot decide.  Each miss counts one ``f_M`` run whichever
way it is answered.  :meth:`is_matching_many` layers the paper's
matching-context test on top, short-circuiting non-containing contexts with
pure bit tests so they never touch the detector.  The scalar reads
(:meth:`~OutlierVerifier.context_profile`, :meth:`~OutlierVerifier.is_matching`
and the helpers on top of them) are batch-of-one calls of these two, so every
question reaches the store through one read and one write and counts the same
whichever API asks it.  Misses are always computed inline, on the thread that
asks: an execution backend (:mod:`repro.runtime`) runs whole releases in
parallel, never the profiles inside one.

The profile also powers both utility functions for free: population size is
the first profile component, and outlier-membership is a set lookup.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.bitops import ints_to_bool_matrix, popcount_rows, popcount_words
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
    ):
        self.detector = detector
        self.masks = mask_index if mask_index is not None else PredicateMaskIndex(dataset)
        if self.masks.dataset is not dataset:
            raise VerificationError("mask index was built for a different dataset")
        self.profile_store = profile_store if profile_store is not None else ProfileStore()
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self.fm_evaluations = 0  # number of *uncached* detector runs
        self.fm_queries = 0  # number of f_M questions asked (cached or not)

    @property
    def local_fm_evaluations(self) -> int:
        """Uncached detector runs charged by *this thread*.

        A release executes entirely on one thread (backends never split one
        request), so per-release cost deltas diff this counter instead of
        the shared :attr:`fm_evaluations` — which, when concurrent HTTP
        handler threads release on one engine, would attribute their
        releases' runs to each other.
        """
        return getattr(self._local, "fm_evaluations", 0)

    @property
    def dataset(self) -> Dataset:
        """The dataset the mask index currently serves, read at each access:
        it follows every append the index commits, at once."""
        return self.masks.dataset

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

    def _answer_misses(
        self, misses: List[int], record_id: Optional[int], version: int
    ) -> List[ContextProfile]:
        """Compute and store the distinct uncached contexts of one read.

        A record-bound read (``record_id`` set) of a detector with a
        ``locality`` gets record-scoped profiles, computed inline by
        :meth:`_record_chunk` and stored under ``(bits, record_id)``.
        Everything else gets full profiles, computed inline by
        :meth:`_profile_chunk` and stored under ``bits``, where any record
        can read them.  Each miss counts one ``f_M`` run either way.
        """
        scoped = record_id is not None and self.detector.locality is not None
        if scoped:
            snap = self.masks.snapshot()
            # Checked before counting: an unknown record runs no detector.
            if not snap.dataset.has_record(record_id):
                raise VerificationError(f"record {record_id} not in dataset")
            self._count_runs(len(misses))
            computed = self._record_chunk(misses, record_id, snap)
        else:
            self._count_runs(len(misses))
            computed = self._profile_chunk(misses)
        self.profile_store.put_many(
            zip(misses, computed),
            version=version,
            record_id=record_id if scoped else None,
        )
        return computed

    def _profile_chunk(self, misses: List[int]) -> List[ContextProfile]:
        """Full profiles of one chunk of uncached contexts.

        No verifier counters and no cache writes happen here; the caller,
        :meth:`_answer_misses`, does both.  The whole chunk is evaluated
        against one index snapshot — masks, positions, ids and metric
        values all describe the same dataset even if an append commits
        mid-chunk."""
        snap = self.masks.snapshot()
        dataset = snap.dataset
        detector = self.detector
        metric = dataset.metric
        id_list = dataset.id_list()
        z = detector.std_cutoff
        # Populations come in the metric-ordered mask layout, whose set bits
        # are ranks, ascending, when the detector sorts its input (so it
        # never sorts per population) or reads cut-offs as ranks.
        ordered = detector.sorted_input or z is not None
        order = dataset.metric_order() if ordered else None
        packed = self.masks.population_masks(misses, snapshot=snap, metric_order=ordered)
        pops = popcount_rows(packed)
        ranked: List[Optional[np.ndarray]] = [None] * len(misses)
        if z is not None:
            cells = snap.cells()
            ranked = _cutoff_ranks(
                packed,
                pops,
                cells.moments(ints_to_bool_matrix(misses, dataset.schema.t)),
                cells.sorted_metric,
                z,
                detector.min_population,
            )
        computed: List[ContextProfile] = []
        for row, pop, ranks in zip(packed, pops.tolist(), ranked):
            if pop == 0:
                computed.append((0, frozenset()))
                continue
            if ranks is not None:
                outliers = order[ranks]
            else:
                positions = self.masks.positions_from_packed(row, n_records=len(dataset))
                if order is not None:
                    positions = order[positions]
                    if not detector.sorted_input:
                        positions.sort()  # record order, as the detector asks
                outliers = positions[detector.outlier_positions(metric[positions])]
            computed.append((pop, frozenset(map(id_list.__getitem__, outliers.tolist()))))
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
        """Population size and outlier record ids of context ``bits``: a
        batch-of-one :meth:`profiles` read."""
        return self.profiles([bits])[0]

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
        dataset = self.dataset
        if not dataset.has_record(record_id):
            raise VerificationError(f"record {record_id} not in dataset")
        record_bits = dataset.record_bits(record_id)
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
        """The paper's matching-context test: ``V in D_C`` and ``f_M = true``,
        as a batch-of-one :meth:`is_matching_many`."""
        return bool(self.is_matching_many([bits], record_id)[0])

    # --------------------------------------------------------------- plumbing

    def reset_counters(self) -> None:
        """Zero this verifier's counters plus the mask/store counters.

        A store handed to several verifiers keeps one set of hit/miss/
        eviction counters: resetting here resets them for every verifier
        on that store.
        """
        self.fm_evaluations = 0
        self.fm_queries = 0
        self._local.fm_evaluations = 0  # calling thread's slice only
        self.masks.reset_counters()
        self.profile_store.reset_counters()


#: The error band around each cut-off is this many times ``(1 + z) *
#: max|x|`` of the population: a member inside it sends the population to
#: the detector.  The cut-offs from cell moments lie within 8.2e-10 of that
#: scale of the detector's own, in the worst case (see the module
#: docstring).
_CUTOFF_MARGIN = 1e-9
#: Beyond this many records the band grows in proportion, as the error
#: bound of a sequential float sum does.
_MARGIN_RECORDS = 1 << 20
#: A population whose standard deviation is at most this many times
#: ``_CUTOFF_MARGIN * max|x|`` goes to the detector too: zero and
#: single-value populations among them.
_STD_MARGINS = 1e3
#: Deviations at most the lower bound, or magnitudes at least the upper one,
#: go to the detector as well: outside this range a square may underflow
#: or a sum of squares overflow (for populations of up to 4e7 records),
#: where no relative error bound holds.
_STD_MIN, _MAGNITUDE_MAX = 1e-150, 1e150


def _cutoff_ranks(
    packed: np.ndarray,
    pops: np.ndarray,
    moments: Tuple[np.ndarray, ...],
    sorted_metric: np.ndarray,
    z: float,
    min_population: int,
) -> List[Optional[np.ndarray]]:
    """The ascending metric ranks of each population's outliers under a
    detector with :attr:`~repro.outliers.base.OutlierDetector.std_cutoff`
    ``z``, or ``None`` where only the detector can decide them exactly.

    ``packed`` holds ``(B, W)`` population masks in the metric-ordered
    layout, ``pops`` their sizes, and ``moments`` their ``(count, mean, m2,
    absmax)`` from :meth:`~repro.data.masks.CellTable.moments`.  The two
    ends of the error band around each cut-off ``mean -/+ z * std`` become
    ranks by one ``searchsorted`` on the ascending metric.  The outliers
    are the members ranked below the lower band or from the upper band on;
    a member inside a band declines the population, as do the deviations
    and magnitudes the module docstring lists.
    """
    count, mean, m2, absmax = moments
    error = _CUTOFF_MARGIN * max(1.0, sorted_metric.size / _MARGIN_RECORDS) * absmax
    std = np.sqrt(m2 / np.maximum(count - 1, 1))
    decided = (
        (std > _STD_MARGINS * error)
        & (std > _STD_MIN)
        & (absmax < _MAGNITUDE_MAX)
    ).tolist()
    spread, band = z * std, (1 + z) * error
    ends = sorted_metric.searchsorted(
        np.stack(
            [
                mean - spread - band,  # the lower cut-off's band
                mean - spread + band,
                mean + spread - band,  # the upper cut-off's band
                mean + spread + band,
            ],
            axis=1,
        )
    ).tolist()
    out: List[Optional[np.ndarray]] = []
    for row, pop, ok, (low, low_in, high_in, high) in zip(
        packed, pops.tolist(), decided, ends
    ):
        if pop < min_population:
            out.append(np.empty(0, dtype=np.int64))
            continue
        if ok:
            bits = np.unpackbits(row.view(np.uint8), bitorder="little").view(bool)
            ok = not (
                low < low_in and bits[low:low_in].any()
                or high_in < high and bits[high_in:high].any()
            )
        out.append(
            np.concatenate([bits[:low].nonzero()[0], bits[high:].nonzero()[0] + high])
            if ok else None
        )
    return out


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
