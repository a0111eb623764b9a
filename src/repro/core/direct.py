"""Algorithm 1 — the direct (formulaic) approach.

Enumerate every matching context of ``V`` and apply the Exponential
mechanism once over all of them.  This is the gold standard for utility
(the whole ``COE_M`` is the candidate set) and the baseline every sampler
is compared against, but its cost is exponential in ``t``
(Theorem 4.2) — the paper's three-day reference computation.

Algorithm 1 is a :class:`DirectSampler`, whose candidate pool is all of
``COE_M(D, V)`` (:class:`~repro.core.enumeration.COEEnumerator`, which
enumerates only the ``2^(t-m)`` supersets of ``V``'s own bits).
:class:`DirectPCOR` submits it to a private
:class:`~repro.service.engine.ReleaseEngine` that adopts the caller's
verifier, so one budget split, select step and result assembly serve all
five algorithms.  The sampler is not registered by name, so that no spec
can make a server enumerate up to ``DEFAULT_ENUMERATION_LIMIT`` contexts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.context.space import DEFAULT_ENUMERATION_LIMIT
from repro.core.enumeration import COEEnumerator
from repro.core.result import PCORResult
from repro.core.sampling.base import Sampler, SamplingRun, SamplingStats
from repro.core.utility import UtilityFunction
from repro.core.verification import OutlierVerifier
from repro.exceptions import SamplingError
from repro.mechanisms.exponential import ExponentialMechanism
from repro.rng import RngLike
from repro.service.engine import ReleaseEngine, ReleaseRequest
from repro.service.spec import PipelineSpec


class DirectSampler(Sampler):
    """Algorithm 1's candidate pool: every matching context of the record."""

    name = "direct"
    accounting_name = "direct"
    requires_starting_context = False
    #: Algorithm 1 has no sample quota, and the direct budget split ignores
    #: this, so it is a class constant, not configuration.
    n_samples = 1

    def __init__(self, limit: Optional[int] = DEFAULT_ENUMERATION_LIMIT):
        self.limit = limit

    def sample(
        self,
        verifier: OutlierVerifier,
        utility: UtilityFunction,
        record_id: int,
        starting_bits: int | None,
        mechanism: ExponentialMechanism,
        rng: np.random.Generator,
    ) -> SamplingRun:
        candidates = list(COEEnumerator(verifier).iter_matching(record_id, self.limit))
        if not candidates:
            raise SamplingError(
                f"record {record_id} has no matching context; COE_M is empty"
            )
        # The enumeration examined every containing context: 2^(t - m).
        record_bits = verifier.dataset.record_bits(record_id)
        stats = SamplingStats(
            candidates_collected=len(candidates),
            contexts_examined=1 << (verifier.schema.t - record_bits.bit_count()),
        )
        return SamplingRun(candidates, stats)


class DirectPCOR:
    """Direct application of the Exponential mechanism over ``COE_M(D, V)``."""

    name = "direct"

    def __init__(
        self,
        verifier: OutlierVerifier,
        epsilon: float = 0.2,
        limit: Optional[int] = DEFAULT_ENUMERATION_LIMIT,
        half_sensitivity: bool = False,
    ):
        self.verifier = verifier
        self.epsilon = float(epsilon)
        self.limit = limit
        self.half_sensitivity = bool(half_sensitivity)
        self.engine = ReleaseEngine(verifier.dataset, mask_index=verifier.masks)
        self.engine.adopt_verifier(verifier)

    def close(self) -> None:
        """Release the engine's execution resources (pools, shared memory)."""
        self.engine.close()

    def release(
        self,
        utility: UtilityFunction,
        record_id: int,
        rng: RngLike = None,
    ) -> PCORResult:
        """Run Algorithm 1 for ``record_id`` with the given utility."""
        spec = PipelineSpec(
            detector=self.verifier.detector,
            sampler=DirectSampler(self.limit),
            utility=lambda verifier, record_id, starting_bits: utility,
            epsilon=self.epsilon,
            half_sensitivity=self.half_sensitivity,
            utility_needs_start=False,
        )
        return self.engine.submit(ReleaseRequest(record_id, spec, seed=rng))
