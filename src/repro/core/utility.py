"""Utility functions over contexts (Section 3.2), batched end to end.

A utility function scores a context for a fixed outlier ``V``; non-matching
contexts score ``-inf`` so the Exponential mechanism assigns them
probability zero — the mechanics behind PCOR's validity guarantee
(property (a) of Definition 3.2).

The primary entry point is :meth:`UtilityFunction.scores`, which evaluates a
whole batch of contexts through one :meth:`OutlierVerifier.is_matching_many`
pass and one vectorised ``_raw_scores`` call over the matching subset.  The
scalar :meth:`UtilityFunction.score` is a thin wrapper over the batch path,
so every caller exercises the same engine.

The two paper utilities are:

* :class:`PopulationSizeUtility` — ``|D_C|``; larger populations mean a more
  significant outlier (Section 3.2.1).  Sensitivity 1.
* :class:`OverlapUtility` — ``|D_C intersect D_{C_V}|`` for a chosen
  starting context ``C_V`` (Section 3.2.2).  Sensitivity 1.  The
  intersection is computed word-wise on bit-packed masks plus popcount.

Two extra utilities demonstrate the "compatible with any utility function"
claim: :class:`StartingDistanceUtility` (structural closeness to a chosen
context) and :class:`SparsityUtility` (shorter context descriptions).  Both
are data-independent given validity, hence sensitivity 0 under the OCDP
constraint — only the validity gate can change between f-neighbours, and
f-neighbours share it by definition.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.bitops import intersect_counts
from repro.core.verification import OutlierVerifier
from repro.exceptions import ContextError


class UtilityFunction(ABC):
    """Score contexts for one fixed outlier record.

    Instances are bound to a verifier and a record id; ``score(bits)``
    returns ``-inf`` for any context that is not a matching context of the
    record.
    """

    #: Registry/report name; subclasses override.
    name: str = "abstract"
    #: Sensitivity Delta_u of the matching-context score under add/remove.
    sensitivity: float = 1.0

    def __init__(self, verifier: OutlierVerifier, record_id: int):
        if not verifier.dataset.has_record(record_id):
            raise ContextError(f"record {record_id} not in dataset")
        self.verifier = verifier
        self.record_id = int(record_id)

    def scores(self, bits_seq: Sequence[int]) -> np.ndarray:
        """Vector of scores for a batch of context bitmasks.

        One batched matching pass; ``-inf`` for non-matching contexts, the
        (vectorised) raw score for the rest.
        """
        bits_list = list(bits_seq)
        out = np.full(len(bits_list), -np.inf, dtype=np.float64)
        matching = self.verifier.is_matching_many(bits_list, self.record_id)
        idx = np.flatnonzero(matching)
        if idx.size:
            out[idx] = self._raw_scores([bits_list[i] for i in idx])
        return out

    def score(self, bits: int) -> float:
        """Utility of context ``bits`` (``-inf`` when non-matching)."""
        return float(self.scores([bits])[0])

    @abstractmethod
    def _raw_score(self, bits: int) -> float:
        """Score of a context already known to be matching."""

    def _raw_scores(self, bits_list: List[int]) -> np.ndarray:
        """Scores of contexts already known to be matching (vectorisable).

        The default delegates to the scalar :meth:`_raw_score`; built-in
        utilities override with batch kernels.
        """
        return np.array([self._raw_score(b) for b in bits_list], dtype=np.float64)


class PopulationSizeUtility(UtilityFunction):
    """``u_V(D, C) = |D_C|`` for matching contexts (Section 3.2.1)."""

    name = "population_size"
    sensitivity = 1.0

    def _raw_score(self, bits: int) -> float:
        return float(self.verifier.population_size(bits))

    def _raw_scores(self, bits_list: List[int]) -> np.ndarray:
        # Matching contexts were just profiled by the matching pass, so this
        # is pure cache reads — record-bound, like that pass, so they also
        # hit record-scoped profiles.
        profiles = self.verifier.profiles(bits_list, record_id=self.record_id)
        return np.array([p[0] for p in profiles], dtype=np.float64)


class OverlapUtility(UtilityFunction):
    """``u_V(D, C) = |D_C intersect D_{C_V}|`` (Section 3.2.2).

    ``starting_bits`` is the chosen/starting context the analyst wants the
    released explanation to relate to.  Intersections are word-wise ANDs of
    bit-packed population masks plus a popcount, evaluated in batch.
    """

    name = "overlap"
    sensitivity = 1.0

    def __init__(self, verifier: OutlierVerifier, record_id: int, starting_bits: int):
        super().__init__(verifier, record_id)
        t = verifier.schema.t
        if starting_bits < 0 or starting_bits >> t:
            raise ContextError(f"starting_bits {starting_bits:#x} out of range for t={t}")
        self.starting_bits = int(starting_bits)
        self._starting_packed = verifier.masks.population_masks([starting_bits])[0]
        self._overlap_cache: Dict[int, int] = {}

    def overlap_sizes(self, bits_seq: Sequence[int]) -> np.ndarray:
        """``|D_C intersect D_{C_V}|`` for a batch, regardless of matching.

        The distinct uncached contexts, in first-seen order, share one
        population-mask pass; every context is then read from the cache.
        """
        keys = [int(b) for b in bits_seq]
        cache = self._overlap_cache
        misses = [b for b in dict.fromkeys(keys) if b not in cache]
        if misses:
            packed = self.verifier.masks.population_masks(misses)
            w = self._starting_packed.shape[0]
            if packed.shape[1] > w:
                # An append grew the matrix mid-release: records beyond the
                # starting snapshot cannot be in the starting population, so
                # the extra words contribute nothing to the intersection.
                packed = np.ascontiguousarray(packed[:, :w])
            counts = intersect_counts(packed, self._starting_packed)
            cache.update(zip(misses, counts.tolist()))
        return np.array([cache[b] for b in keys], dtype=np.int64)

    def overlap_size(self, bits: int) -> int:
        """``|D_C intersect D_{C_V}|`` regardless of matching status."""
        return int(self.overlap_sizes([bits])[0])

    def _raw_score(self, bits: int) -> float:
        return float(self.overlap_size(bits))

    def _raw_scores(self, bits_list: List[int]) -> np.ndarray:
        return self.overlap_sizes(bits_list).astype(np.float64)


class StartingDistanceUtility(UtilityFunction):
    """``u = -HammingDistance(C, C_V)``: prefer contexts structurally close
    to a chosen context.  Data-independent scores => sensitivity 0 under the
    OCDP constraint."""

    name = "starting_distance"
    sensitivity = 0.0

    def __init__(self, verifier: OutlierVerifier, record_id: int, starting_bits: int):
        super().__init__(verifier, record_id)
        self.starting_bits = int(starting_bits)

    def _raw_score(self, bits: int) -> float:
        return -float((bits ^ self.starting_bits).bit_count())

    def _raw_scores(self, bits_list: List[int]) -> np.ndarray:
        start = self.starting_bits
        return np.array(
            [-(b ^ start).bit_count() for b in bits_list], dtype=np.float64
        )


class SparsityUtility(UtilityFunction):
    """``u = t - HammingWeight(C)``: prefer short, human-readable contexts.

    Data-independent scores => sensitivity 0 under the OCDP constraint."""

    name = "sparsity"
    sensitivity = 0.0

    def _raw_score(self, bits: int) -> float:
        return float(self.verifier.schema.t - bits.bit_count())

    def _raw_scores(self, bits_list: List[int]) -> np.ndarray:
        t = self.verifier.schema.t
        return np.array([t - b.bit_count() for b in bits_list], dtype=np.float64)


# ------------------------------------------------------------------- registry

#: A utility spec: registry name, or a factory
#: ``(verifier, record_id, starting_bits) -> UtilityFunction``.
UtilitySpec = Union[str, Callable[..., UtilityFunction]]


@dataclass(frozen=True)
class UtilityInfo:
    """Registry entry: factory plus the metadata the service layer needs.

    ``needs_starting_context`` replaces the old hardcoded
    ``("overlap", "starting_distance")`` tuple: the engine consults it to
    decide whether a starting-context search must run before the utility can
    be built (the factory then receives ``starting_bits`` positionally).
    """

    name: str
    factory: Callable[..., UtilityFunction]
    needs_starting_context: bool


_UTILITIES: Dict[str, UtilityInfo] = {}


def register_utility(
    name: str,
    factory: Callable[..., UtilityFunction],
    *,
    needs_starting_context: bool = False,
) -> None:
    """Register a utility factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _UTILITIES:
        raise ContextError(f"utility {name!r} already registered")
    _UTILITIES[key] = UtilityInfo(
        name=key,
        factory=factory,
        needs_starting_context=bool(needs_starting_context),
    )


def utility_info(name: str) -> UtilityInfo:
    """The registry entry for ``name``."""
    key = name.lower()
    if key not in _UTILITIES:
        raise ContextError(
            f"unknown utility {name!r}; available: {sorted(_UTILITIES)}"
        )
    return _UTILITIES[key]


def available_utilities() -> List[str]:
    """Names of all registered utilities."""
    return sorted(_UTILITIES)


def utility_needs_starting_context(
    spec: UtilitySpec, explicit: Optional[bool] = None
) -> bool:
    """Does ``spec`` need a starting context before it can be built?

    ``explicit`` overrides everything (the escape hatch for callable specs).
    Named specs answer from registry metadata; callables from their
    ``needs_starting_context`` attribute, defaulting to ``False``.
    """
    if explicit is not None:
        return bool(explicit)
    if isinstance(spec, str):
        return utility_info(spec).needs_starting_context
    return bool(getattr(spec, "needs_starting_context", False))


def make_utility(
    spec: str,
    verifier: OutlierVerifier,
    record_id: int,
    starting_bits: int | None = None,
    **kwargs,
) -> UtilityFunction:
    """Instantiate a utility function from its registry name."""
    info = utility_info(spec)
    if info.needs_starting_context:
        if starting_bits is None:
            raise ContextError(f"utility {spec!r} requires a starting context")
        return info.factory(verifier, record_id, starting_bits, **kwargs)
    return info.factory(verifier, record_id, **kwargs)


register_utility("population_size", PopulationSizeUtility)
register_utility("overlap", OverlapUtility, needs_starting_context=True)
register_utility(
    "starting_distance", StartingDistanceUtility, needs_starting_context=True
)
register_utility("sparsity", SparsityUtility)
