"""Bounded storage for context profiles.

A *context profile* — population size plus the full set of outlier record
ids — is the unit of work the verifier memoises: computing one costs a
population-mask pass plus an uncached detector run, the dominant cost of the
whole pipeline (the paper's ``f_M`` query).  :class:`ProfileStore` is a
bounded LRU map with hit/miss/eviction counters for the experiment harness.
It has one counting read, :meth:`ProfileStore.get_many`, and one write,
:meth:`ProfileStore.put_many`; a scalar read is a batch of one.

A store holds three kinds of entry, in one LRU order and under one
capacity:

* **full profiles** ``(population, outlier ids)``, keyed by the context
  bitmask ``bits``: every outlier of the population, so they answer any
  record's question and every record-free read;
* **cut-offs** ``(population, low, high)`` (:data:`CutoffProfile`), keyed
  by ``bits``: a member whose metric value is below ``low`` or at least
  ``high`` is an outlier.  The verifier writes them for detectors that
  declare ``std_cutoff`` (zscore), on every population their cell moments
  decide; they hold no dataset, snapshot or id set.  Any record's read
  answers from them, with the record's containment and metric value, and
  a record-free read turns them into outlier ids from the population's
  mask row (see :mod:`repro.core.verification`);
* **record-scoped profiles**, keyed ``(bits, record_id)``: the population
  size plus ``{record_id}`` if that record is an outlier there, else the
  empty set.  The verifier writes them for detectors with a finite
  ``locality`` (see :mod:`repro.core.verification`); they answer only
  their own record, through :meth:`ProfileStore.get_many` with a
  ``record_id``, which also reads an entry keyed ``bits`` of the same
  context.
  Record-free reads (``get_many`` without a record, ``in``,
  :meth:`ProfileStore.peek`) never see them.

The store returns entries as they were written; the verifier turns
cut-offs into the profiles its callers see.  Several verifiers over the
same dataset and detector may share one store (pass it as
``OutlierVerifier(profile_store=...)``): entries are immutable values keyed
by context (and record), so sharing cannot change any computed answer, only
skip recomputation.  :func:`detector_fingerprint` tells which
detector instances may share one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.outliers.base import OutlierDetector

#: (population size, frozenset of outlier record ids)
ContextProfile = Tuple[int, FrozenSet[int]]
#: (population size, low, high): a member whose metric value is below
#: ``low`` or at least ``high`` is an outlier.
CutoffProfile = Tuple[int, float, float]
#: What the store holds under a key: a profile or a population's cut-offs.
StoredProfile = Union[ContextProfile, CutoffProfile]
#: ``bits`` for a full profile, ``(bits, record_id)`` for a record-scoped one.
ProfileKey = Union[int, Tuple[int, int]]

#: Default bound on profiles kept per store.  An entry is a couple of
#: machine words plus at most a (usually tiny) frozenset, so the default
#: allows multi-hundred-MB caches before eviction starts — far beyond any of
#: the paper's workloads, while still bounding a long-lived server process.
DEFAULT_CAPACITY = 1_000_000


class ProfileStore:
    """Bounded LRU map from :data:`ProfileKey` to :data:`StoredProfile`.

    Thread-safe: every operation holds the store's lock, so concurrent
    engine callers (HTTP handler threads and a coalescer's flusher in
    particular) can never corrupt the LRU order, overshoot the capacity
    bound, or lose counter updates.  Profiles are immutable values keyed
    by context bitmask, so the worst a read/write race can do is recompute
    a profile both threads then agree on.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._profiles: "OrderedDict[ProfileKey, StoredProfile]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0  # profiles dropped by targeted invalidation
        self.stale_puts = 0  # writes rejected for carrying an old version
        self._version = 0

    # ------------------------------------------------------------------ core

    def get_many(
        self, keys: Sequence[int], record_id: Optional[int] = None
    ) -> List[Optional[StoredProfile]]:
        """The cached entry of every context of a batch, ``None`` for a
        miss, under one lock acquisition.

        Without ``record_id`` only entries keyed ``bits`` (full profiles
        and cut-offs) answer.  With it the read is record-bound: an entry
        keyed ``bits`` answers, else the record's own record-scoped one.
        Counts one hit per key answered and one miss per *distinct* key
        missed, so a key repeated in the batch costs one miss however often
        it repeats."""
        out: List[Optional[StoredProfile]] = []
        missed = set()
        hits = 0
        with self._lock:
            profiles = self._profiles
            for bits in keys:
                key: ProfileKey = bits
                profile = profiles.get(key)
                if profile is None and record_id is not None:
                    key = (bits, record_id)
                    profile = profiles.get(key)
                if profile is None:
                    missed.add(bits)
                else:
                    hits += 1
                    profiles.move_to_end(key)
                out.append(profile)
            self.hits += hits
            self.misses += len(missed)
        return out

    def peek(self, bits: int) -> Optional[StoredProfile]:
        """The cached entry keyed ``bits`` (a full profile or cut-offs) or
        ``None``, without touching counters or LRU order."""
        with self._lock:
            return self._profiles.get(bits)

    def put_many(
        self,
        entries: Iterable[Tuple[int, StoredProfile]],
        version: Optional[int] = None,
        record_id: Optional[int] = None,
    ) -> None:
        """Insert (or refresh) ``(bits, profile)`` entries in order under one
        lock acquisition, evicting the LRU entries beyond the capacity.

        With ``record_id`` the profiles are record-scoped: stored under
        ``(bits, record_id)`` and readable only by that record's reads
        (:meth:`get_many` with ``record_id``).

        ``version`` is the dataset version the profiles were computed
        against (see :meth:`invalidate_matching`); entries stamped with a
        version other than the store's current one are dropped and counted
        in ``stale_puts`` — they describe a dataset that no longer exists,
        and caching them would let a release that raced an append poison
        the store for every later caller.  Unstamped entries (``None``)
        always land, for callers on immutable datasets.
        """
        with self._lock:
            if version is not None and version != self._version:
                self.stale_puts += sum(1 for _ in entries)
                return
            profiles = self._profiles
            for bits, profile in entries:
                key: ProfileKey = bits if record_id is None else (bits, record_id)
                profiles[key] = profile
                profiles.move_to_end(key)
            while len(profiles) > self.capacity:
                profiles.popitem(last=False)
                self.evictions += 1

    @property
    def version(self) -> int:
        """Dataset version this store currently caches for (monotonic)."""
        with self._lock:
            return self._version

    def invalidate_matching(
        self, record_bits_seq: Sequence[int], version: int
    ) -> int:
        """Advance the store to ``version``, dropping affected profiles.

        ``record_bits_seq`` holds the exact-context bitmasks of the
        appended records.  A cached profile is stale iff its context's
        population could have changed — iff the context *contains* some
        appended record, i.e. ``(record_bits & bits) == record_bits`` for
        the context ``bits`` of its key (full or record-scoped alike).
        Every other profile (and there are typically vastly more) survives
        the append untouched, which is the point of incremental updates.

        One NumPy containment test covers every key against every appended
        record: on ``uint64`` when all the bits fit in 64, else on an
        ``object`` array of Python ints, because contexts may be wider.

        Returns the number of profiles dropped.  Also fences late writers:
        any in-flight :meth:`put_many` stamped with the pre-append version is
        rejected once this returns.
        """
        records = [int(b) for b in record_bits_seq]
        with self._lock:
            self._version = max(self._version, int(version))
            keys = list(self._profiles)
            if not keys or not records:
                return 0
            contexts = [key[0] if key.__class__ is tuple else key for key in keys]
            wide = max(max(contexts), max(records)).bit_length() > 64
            dtype = object if wide else np.uint64
            bits = np.array(contexts, dtype=dtype)[:, None]
            rbits = np.array(records, dtype=dtype)
            stale = np.flatnonzero(((bits & rbits) == rbits).any(axis=1))
            for index in stale.tolist():
                del self._profiles[keys[index]]
            self.invalidations += len(stale)
            return len(stale)

    # --------------------------------------------------------------- plumbing

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def __contains__(self, bits: int) -> bool:
        with self._lock:
            return bits in self._profiles

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0
            self.stale_puts = 0

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for the harness / reporting."""
        with self._lock:
            return {
                "size": len(self._profiles),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_puts": self.stale_puts,
                "version": self._version,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProfileStore(size={len(self)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )


class _IdentityKey:
    """Fingerprint wrapper hashing by wrapped-object identity.

    Used for configuration values with no value-like representation
    (callables, arbitrary objects).  It holds a strong reference, so while
    a fingerprint lives (as a key of a release engine's verifier map, say)
    the object's id cannot be recycled by another allocation — identity
    comparison stays sound.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _IdentityKey) and other.obj is self.obj


def _value_fingerprint(value: object) -> object:
    """Hashable fingerprint of one detector configuration value.

    Numpy arrays are fingerprinted by full contents (``repr`` elides large
    arrays), and values whose ``repr`` is address-based (default object or
    function reprs) fall back to identity so two *different* objects never
    collide on a recycled address.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    rep = repr(value)
    if " at 0x" in rep:
        return _IdentityKey(value)
    return rep


def detector_fingerprint(detector: OutlierDetector) -> Tuple:
    """Hashable configuration fingerprint of a detector instance.

    Profiles only depend on detector *behaviour*, and detectors are
    deterministic functions of their public configuration, so two instances
    of the same class with equal parameters may share a store.  The release
    engine keys its per-detector verifiers by the same fingerprint.
    """
    params = tuple(
        (k, _value_fingerprint(v))
        for k, v in sorted(vars(detector).items())
        if not k.startswith("_")
    )
    return (type(detector).__module__, type(detector).__qualname__, params)

