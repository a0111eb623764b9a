"""The PCOR facade — Definition 3.2 end to end.

Composes a dataset, a deterministic outlier detector, a utility function, a
sampling algorithm and a total privacy budget into a single
``release(record_id)`` call that returns a valid, differentially private,
high-utility context:

>>> from repro import PCOR, BFSSampler, LOFDetector, salary_reduced
>>> dataset = salary_reduced(n_records=2000, seed=7)
>>> pcor = PCOR(dataset, LOFDetector(k=10), utility="population_size",
...             epsilon=0.2, sampler=BFSSampler(n_samples=50))
>>> result = pcor.release(record_id=17, seed=42)   # doctest: +SKIP

Since the spec-driven redesign, ``PCOR`` is a thin wrapper over the service
layer: the constructor freezes its configuration into a
:class:`~repro.service.spec.PipelineSpec` and every release is a
:class:`~repro.service.engine.ReleaseRequest` submitted to a private,
unbudgeted :class:`~repro.service.engine.ReleaseEngine` that carries this
instance's verifier (and thus its context-profile cache).  Identical seeds
release identical contexts through either API.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.context.context import Context
from repro.core.profiles import detector_fingerprint
from repro.core.result import PCORResult
from repro.core.sampling.base import Sampler
from repro.core.sampling.bfs import BFSSampler
from repro.core.utility import UtilityFunction, UtilitySpec  # noqa: F401 (re-export)
from repro.core.verification import OutlierVerifier
from repro.data.table import Dataset
from repro.exceptions import SamplingError
from repro.outliers.base import OutlierDetector
from repro.rng import RngLike, ensure_rng
from repro.service.engine import ReleaseEngine, ReleaseRequest
from repro.service.spec import PipelineSpec


class PCOR:
    """Private contextual outlier release for one dataset + detector.

    Parameters
    ----------
    verifier:
        The :class:`~repro.core.verification.OutlierVerifier` to release
        against, built over ``dataset`` for an equally configured
        ``detector``; by default a fresh one with a private profile store.
        Instances given verifiers on one
        :class:`~repro.core.profiles.ProfileStore`
        (``OutlierVerifier(dataset, detector, profile_store=store)``) share
        detector work instead of each rebuilding the cache from scratch.
        Sharing only skips recomputation of deterministic profiles; it
        never changes a released context.
    utility_needs_starting_context:
        Explicit needs-a-starting-context flag for *callable* utility specs
        (named specs answer from registry metadata).  A callable may instead
        carry a truthy ``needs_starting_context`` attribute.  Without either,
        callables are assumed start-free — the engine then passes
        ``starting_bits=None`` unless the sampler searched anyway.
    backend / workers:
        Execution backend for :meth:`release_many` fan-out (``"serial"``,
        ``"process"``, or an
        :class:`~repro.runtime.base.ExecutionBackend` instance), passed to
        this instance's private engine.  ``None`` honours the
        ``PCOR_BACKEND``/``PCOR_WORKERS`` environment and defaults to
        serial.  Execution never changes a released context: any backend at
        any worker count is bit-identical to serial for the same seed.
    """

    def __init__(
        self,
        dataset: Dataset,
        detector: OutlierDetector,
        utility: UtilitySpec = "population_size",
        epsilon: float = 0.2,
        sampler: Optional[Sampler] = None,
        half_sensitivity: bool = False,
        verifier: Optional[OutlierVerifier] = None,
        utility_needs_starting_context: Optional[bool] = None,
        backend=None,
        workers: Optional[int] = None,
    ):
        self.dataset = dataset
        self.detector = detector
        self.utility_spec = utility
        self.epsilon = float(epsilon)
        self.sampler = sampler if sampler is not None else BFSSampler(n_samples=50)
        self.half_sensitivity = bool(half_sensitivity)
        if verifier is None:
            verifier = OutlierVerifier(dataset, detector)
        self.verifier = verifier
        if self.verifier.dataset is not dataset:
            raise SamplingError("verifier was built for a different dataset")
        if detector_fingerprint(self.verifier.detector) != detector_fingerprint(
            detector
        ):
            # Releases run against the verifier the engine resolves for the
            # *detector* argument; a mismatched explicit verifier would be
            # silently bypassed (cold cache, different detector) — refuse.
            raise SamplingError(
                "verifier was built for a different detector configuration; "
                "pass the same detector, or omit the explicit verifier"
            )
        self.spec = PipelineSpec(
            detector=detector,
            sampler=self.sampler,
            utility=utility,
            epsilon=self.epsilon,
            half_sensitivity=self.half_sensitivity,
            utility_needs_start=utility_needs_starting_context,
        )
        self.engine = ReleaseEngine(
            dataset,
            mask_index=self.verifier.masks,
            backend=backend,
            workers=workers,
        )
        self.engine.adopt_verifier(self.verifier)

    def close(self) -> None:
        """Release the engine's execution resources (pools, shared memory)."""
        self.engine.close()

    # ------------------------------------------------------------------ main

    def release(
        self,
        record_id: int,
        starting_context: Union[None, int, Context] = None,
        seed: RngLike = None,
    ) -> PCORResult:
        """Release one private context for ``record_id``.

        Parameters
        ----------
        record_id:
            The outlier ``V``.  Reporting the record itself is assumed to be
            permitted (paper Section 1); this call protects everyone else.
        starting_context:
            A valid context to start graph samplers from.  If omitted, a
            local search finds one (:func:`find_starting_context`).
        seed:
            RNG seed/generator for this release.
        """
        return self.engine.submit(
            ReleaseRequest(
                record_id=record_id,
                spec=self.spec,
                starting_context=starting_context,
                seed=seed,
            )
        )

    def release_many(
        self,
        record_ids: Sequence[int],
        starting_contexts: Optional[Sequence[Union[None, int, Context]]] = None,
        seed: RngLike = None,
    ) -> List[PCORResult]:
        """Release one private context per record, in one admitted batch.

        On the serial backend the batch is a loop of lone releases, each
        what :meth:`release` runs, against this instance's verifier and
        profile store; each result's ``fm_evaluations`` counts the detector
        runs its own release made (see :meth:`ReleaseEngine.execute_many`).
        Whether record ``j`` reads what record ``i`` cached depends on the
        detector: full profiles (every detector without a ``locality``)
        answer any record, while LOF's record-scoped verdicts answer only
        the record that asked (see :mod:`repro.core.verification`).

        Privacy accounting is unchanged from :meth:`release`: each record's
        release spends its own ``epsilon`` of OCDP budget.  **Caveat**: the
        per-release guarantees compose in the worst case *sequentially* —
        an individual appearing in the populations of several queried
        records is protected by ``k * epsilon`` over ``k`` releases, not
        ``epsilon``.  Only when the released contexts' populations are
        disjoint does parallel composition tighten the total back to
        ``epsilon``.  Budgeting across a multi-record release is the data
        owner's call, exactly as it is across repeated :meth:`release`
        calls.  *Parallel execution changes none of this*: the process
        backend reorders only the wall-clock schedule — the set of
        releases, their per-record charges, and the worst-case sequential
        composition across them are identical to a serial run, and the
        whole batch is admitted against the budget before any backend task
        starts.

        Parameters
        ----------
        record_ids:
            The queried outliers, one release each (order preserved).
        starting_contexts:
            Optional per-record starting contexts, aligned with
            ``record_ids``; ``None`` entries fall back to the automatic
            starting-context search.
        seed:
            RNG seed/generator; the engine spawns one independent substream
            per record from it (in record order), so a single seed
            reproduces the whole batch — bit-identically on every execution
            backend at any worker count.
        """
        ids = [int(r) for r in record_ids]
        if starting_contexts is None:
            starts: List[Union[None, int, Context]] = [None] * len(ids)
        else:
            starts = list(starting_contexts)
            if len(starts) != len(ids):
                raise SamplingError(
                    f"starting_contexts has {len(starts)} entries for "
                    f"{len(ids)} record ids"
                )
        gen = ensure_rng(seed)
        return self.engine.submit_many(
            [
                ReleaseRequest(
                    record_id=rid, spec=self.spec, starting_context=start, seed=gen
                )
                for rid, start in zip(ids, starts)
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PCOR(detector={self.detector.name}, sampler={self.sampler.name}, "
            f"utility={self.utility_spec!r}, epsilon={self.epsilon})"
        )
