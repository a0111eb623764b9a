"""The long-lived release engine: budgeted, multi-pipeline PCOR service.

The paper frames PCOR as a service a data owner runs for analysts — repeated
budgeted queries over one dataset (Sections 1 and 6.3).  This module is that
service layer:

* :class:`ReleaseRequest` — one structured query: record, pipeline spec,
  optional starting context, seed.
* :class:`ReleaseEngine` — a long-lived object bound to one dataset.  It
  owns the shared :class:`~repro.data.masks.PredicateMaskIndex`, one
  :class:`~repro.core.profiles.ProfileStore`-backed verifier per distinct
  detector configuration, and (optionally) a
  :class:`~repro.mechanisms.accounting.PrivacyAccountant` charged *before*
  any data is touched.  Because the spec travels with the request, one
  engine serves releases with different detectors, samplers, utilities and
  epsilons against one dataset without ever rebuilding caches.
* :class:`EngineMetrics` — aggregated service counters (profile hit/miss,
  uncached detector runs, per-phase wall time and backend task counts) for
  dashboards and logs.

Batch execution runs on a :mod:`repro.runtime` backend (``serial`` /
``process``).  Randomness is planned as one substream per request (spawned
from the request seeds in request order), so every backend at any worker
count releases bit-identical contexts to the serial path for the same
seeds.

The legacy entry points are thin wrappers over this engine:
:class:`repro.core.pcor.PCOR` submits requests carrying its fixed spec, and
:class:`repro.analysis.session.ReleaseSession` is a budgeted engine plus a
result log.  Identical seeds release identical contexts through every path.
"""

from __future__ import annotations

import math
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.context.context import Context
from repro.core.profiles import DEFAULT_CAPACITY, ProfileStore, detector_fingerprint
from repro.core.result import PCORResult
from repro.core.sampling.base import Sampler
from repro.core.starting import find_starting_context
from repro.core.verification import OutlierVerifier
from repro.data.masks import PredicateMaskIndex
from repro.data.table import Dataset
from repro.exceptions import (
    PrivacyBudgetError,
    ReproError,
    SamplingError,
    VerificationError,
)
from repro.mechanisms.accounting import PrivacyAccountant, epsilon_one_for
from repro.mechanisms.exponential import ExponentialMechanism
from repro.obs.trace import span
from repro.rng import RngLike, ensure_rng
from repro.runtime import (
    ExecutionBackend,
    plan_task_rngs,
    resolve_backend,
    rng_from_token,
)
from repro.service.spec import PipelineSpec


@dataclass(frozen=True)
class ReleaseRequest:
    """One structured release query against a :class:`ReleaseEngine`.

    Attributes
    ----------
    record_id:
        The queried outlier ``V``.
    spec:
        The pipeline to run — a :class:`PipelineSpec` (a plain mapping is
        coerced through :meth:`PipelineSpec.from_dict`).
    starting_context:
        Optional valid context to start graph samplers from; ``None`` lets
        the engine search for one.
    seed:
        RNG seed/generator for this release.  A single :meth:`submit` draws
        from it directly; :meth:`ReleaseEngine.submit_many` instead spawns
        one independent child substream per request carrying the same
        generator (in request order), so one seed still reproduces a whole
        batch — bit-identically on every execution backend at any worker
        count.
    trace:
        Optional :class:`~repro.obs.trace.Trace` context this release
        belongs to.  Excluded from equality/hash/repr: two requests with
        the same query are the same request regardless of who is
        watching.  Tracing never touches the RNG stream, so a traced
        release is bit-identical to an untraced one.
    """

    record_id: int
    spec: Union[PipelineSpec, Mapping]
    starting_context: Union[None, int, Context] = None
    seed: RngLike = None
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "record_id", int(self.record_id))
        if not isinstance(self.spec, PipelineSpec):
            object.__setattr__(self, "spec", PipelineSpec.from_dict(self.spec))


@dataclass
class EngineMetrics:
    """Service-level counters aggregated across an engine's verifiers.

    ``phase_wall_s`` / ``phase_tasks`` break the engine's time down by
    execution phase (``admission``, ``release``), and
    ``release_tasks`` counts the releases the execution backend actually
    fanned out, one task each.

    The ledger breakdown (``epsilon_budget`` / ``epsilon_remaining`` /
    ``ledger_charges``) mirrors the engine's accountant.  The HTTP server
    builds its engines unbudgeted and overwrites these fields, and fills
    ``spend_by_tenant``, from its own tenant ledger — the engine itself
    does not know analysts.  Batching counters (``batch_*``)
    describe a request coalescer layered in front of the engine (the HTTP
    server's :class:`~repro.server.batching.ReleaseCoalescer`); like
    ``spend_by_tenant`` they are filled by that caller — the engine itself
    does not queue.

    **Metric kinds.**  :data:`repro.obs.export.DATASET_METRICS` declares
    every exported field once: its kind (a counter never decreases within
    one server process and resets only on restart; a gauge moves both
    ways), its Prometheus name and its help text.  ``spend_by_tenant`` and
    ``backend_workers`` export as gauges; ``backend`` is a name, not a
    metric.  The phase fields are timed by trace-less
    :class:`~repro.obs.trace.span` blocks, counted on exit, so a phase
    that raises counts like one that returns.
    """

    requests_submitted: int = 0
    releases_completed: int = 0
    requests_rejected: int = 0
    epsilon_spent: float = 0.0
    epsilon_budget: Optional[float] = None
    epsilon_remaining: Optional[float] = None
    ledger_charges: int = 0
    spend_by_tenant: Dict[str, float] = field(default_factory=dict)
    profile_hits: int = 0
    profile_misses: int = 0
    profile_evictions: int = 0
    profiles_cached: int = 0
    fm_evaluations: int = 0
    fm_queries: int = 0
    n_verifiers: int = 0
    wall_time_s: float = 0.0
    backend: str = "serial"
    backend_workers: int = 1
    release_tasks: int = 0
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    phase_tasks: Dict[str, int] = field(default_factory=dict)
    batch_flushes: int = 0
    batch_requests: int = 0
    batch_queue_depth: int = 0
    batch_queue_wait_s: float = 0.0
    batch_size_min: Optional[int] = None
    batch_size_p50: Optional[float] = None
    batch_size_max: Optional[int] = None
    dataset_version: int = 0
    appends: int = 0
    profiles_invalidated: int = 0

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (JSON-able)."""
        return asdict(self)


class ReleaseEngine:
    """A long-lived PCOR service bound to one dataset.

    Parameters
    ----------
    dataset:
        The protected dataset all requests run against.
    budget:
        Optional total OCDP budget.  When set, every ``submit`` charges the
        engine's :class:`PrivacyAccountant` *before* resolving components or
        touching data, so an over-budget request fails without a single
        ``f_M`` evaluation.  ``None`` runs unbudgeted (the caller accounts).
    accountant:
        A pre-built :class:`PrivacyAccountant` *instance* to charge instead
        of constructing one from ``budget`` (mutually exclusive with it),
        so that several engines, or an engine and its embedder, can draw on
        one budget.  Give it a ``sink`` to make its charges durable, and
        ``restore`` it from that record on restart.
    profile_capacity:
        LRU bound of each per-detector profile store.
    mask_index:
        Optional pre-built predicate bitmap index (must belong to
        ``dataset``); shared by every verifier the engine creates.
    backend:
        Execution backend for every batch of releases this engine runs: an
        :class:`~repro.runtime.base.ExecutionBackend` instance, a backend
        name (``serial`` / ``process``), or ``None`` — resolved once by :func:`~repro.runtime.resolve_backend` (the
        ``PCOR_BACKEND`` environment variable, else process when
        ``workers > 1``, else serial).  Any backend at any worker count
        releases bit-identical contexts to serial for the same seed.
    workers:
        Worker count for a backend named here (``None`` reads
        ``PCOR_WORKERS``, then ``min(4, cpu_count)``).
    """

    def __init__(
        self,
        dataset: Dataset,
        budget: Optional[float] = None,
        profile_capacity: int = DEFAULT_CAPACITY,
        mask_index: Optional[PredicateMaskIndex] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        workers: Optional[int] = None,
        accountant: Optional[PrivacyAccountant] = None,
    ):
        self._dataset = dataset
        if accountant is not None:
            if budget is not None:
                raise PrivacyBudgetError(
                    "pass either budget= or accountant=, not both; an "
                    "injected accountant already carries its budget"
                )
            self.accountant = accountant
        else:
            self.accountant = PrivacyAccountant(budget) if budget is not None else None
        if mask_index is not None and mask_index.dataset is not dataset:
            raise VerificationError("mask index was built for a different dataset")
        self._masks = mask_index
        # Append counter of the served dataset; results and ledger charges
        # are stamped with it.  Worker engines inherit the parent's counter
        # through the shared-memory handle's version.
        self._dataset_version = (
            mask_index.dataset_version if mask_index is not None else 0
        )
        self._appends = 0
        self.profile_capacity = int(profile_capacity)
        self._verifiers: Dict[Tuple, OutlierVerifier] = {}
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend, workers)
        self._lock = threading.RLock()
        self._append_lock = threading.Lock()  # serialises dataset appends
        self._phase_wall: Dict[str, float] = defaultdict(float)
        self._phase_tasks: Dict[str, int] = defaultdict(int)
        self.requests_submitted = 0
        self.releases_completed = 0
        self.requests_rejected = 0
        self.wall_time_s = 0.0

    # -------------------------------------------------------------- plumbing

    @property
    def dataset(self) -> Dataset:
        """The served dataset: the mask index's once the index exists, read
        at each access, so it follows every append the index commits at
        once; the constructor's dataset before that."""
        masks = self._masks
        return self._dataset if masks is None else masks.dataset

    @property
    def masks(self) -> PredicateMaskIndex:
        """The dataset's predicate bitmap index, built on first use.

        Lazy so that engines serving only *adopted* verifiers (each carrying
        its own index) never pay the O(t*n) bit-pack pass twice.
        """
        if self._masks is None:
            self._masks = PredicateMaskIndex(self._dataset)
        return self._masks

    @property
    def dataset_version(self) -> int:
        """Append counter of the served dataset (0 until the first append)."""
        return self._dataset_version

    @property
    def spent(self) -> float:
        """Total OCDP budget charged so far (0.0 when unbudgeted)."""
        return self.accountant.spent if self.accountant is not None else 0.0

    @property
    def remaining(self) -> Optional[float]:
        """Remaining budget, or ``None`` when unbudgeted."""
        return self.accountant.remaining if self.accountant is not None else None

    def can_submit(self, epsilon: float) -> bool:
        """Would a release costing ``epsilon`` fit the remaining budget?"""
        if self.accountant is None:
            return True
        return float(epsilon) <= self.accountant.remaining * (1.0 + 1e-9)

    def verifier_for(self, detector) -> OutlierVerifier:
        """The engine's shared verifier for this detector configuration.

        Verifiers (and hence profile stores) are keyed by detector
        *fingerprint*, so two requests naming the same detector with equal
        kwargs share one cache even across different sampler/utility/epsilon
        choices.  Profiles depend on the detector, so distinct detector
        configurations get distinct stores.
        """
        key = detector_fingerprint(detector)
        with self._lock:
            verifier = self._verifiers.get(key)
            if verifier is None:
                verifier = OutlierVerifier(
                    self.dataset,
                    detector,
                    self.masks,
                    profile_store=ProfileStore(capacity=self.profile_capacity),
                )
                self._verifiers[key] = verifier
            return verifier

    def adopt_verifier(self, verifier: OutlierVerifier) -> OutlierVerifier:
        """Register a pre-built verifier (keeps its mask index and store).

        Requests whose detector fingerprint matches ``verifier.detector``
        will run against it — how the :class:`~repro.core.pcor.PCOR` facade
        delegates execution here while keeping its verifier, whether
        private or passed in (and so sharing that verifier's profile store
        with whoever else holds it).
        """
        if verifier.dataset is not self.dataset:
            raise VerificationError("verifier was built for a different dataset")
        with self._lock:
            self._verifiers[detector_fingerprint(verifier.detector)] = verifier
        return verifier

    def append(self, records: Sequence[Mapping]) -> Dict[str, object]:
        """Grow the served dataset in place: the live-append entry point.

        Builds the post-append index state (word-level mask updates, no
        O(t*n) rebuild), invalidates exactly the cached profiles whose
        contexts contain an appended record — stamping every verifier's
        store with the new version so profile writes racing this append are
        fenced out — then atomically publishes the new ``(dataset, masks,
        version)`` snapshot.  Concurrent releases see either the old or the
        new dataset, never a mix; each result records which via its
        ``dataset_version``.

        Returns a summary: appended count, new record ids, total records,
        the new dataset version, and how many cached profiles were dropped.
        """
        rows = list(records)
        masks = self.masks
        with self._append_lock:
            if not rows:
                return {
                    "appended": 0,
                    "record_ids": [],
                    "n_records": len(self.dataset),
                    "dataset_version": self._dataset_version,
                    "invalidated_profiles": 0,
                }
            with self._lock:
                verifiers = list(self._verifiers.values())
            for verifier in verifiers:
                if verifier.masks is not masks:
                    raise VerificationError(
                        "append requires every verifier to share the "
                        "engine's mask index (an adopted verifier carries "
                        "its own index and would silently diverge)"
                    )
            pending = masks.prepare_append(rows)
            dropped = 0
            for verifier in verifiers:
                dropped += verifier.profile_store.invalidate_matching(
                    pending.record_bits, pending.version
                )
            new_dataset = masks.commit_append(pending)
            with self._lock:
                self._dataset_version = pending.version
                self._appends += 1
        return {
            "appended": len(pending.record_ids),
            "record_ids": list(pending.record_ids),
            "n_records": len(new_dataset),
            "dataset_version": pending.version,
            "invalidated_profiles": dropped,
        }

    def metrics(self) -> EngineMetrics:
        """Aggregated counters across the engine and all its verifiers."""
        with self._lock:
            m = EngineMetrics(
                requests_submitted=self.requests_submitted,
                releases_completed=self.releases_completed,
                requests_rejected=self.requests_rejected,
                epsilon_spent=self.spent,
                n_verifiers=len(self._verifiers),
                wall_time_s=self.wall_time_s,
                backend=self.backend.name,
                backend_workers=self.backend.workers,
                phase_wall_s=dict(self._phase_wall),
                phase_tasks=dict(self._phase_tasks),
                dataset_version=self._dataset_version,
                appends=self._appends,
            )
            if self.accountant is not None:
                m.epsilon_budget = self.accountant.budget
                m.epsilon_remaining = self.accountant.remaining
                m.ledger_charges = self.accountant.charge_count
            verifiers = list(self._verifiers.values())
        for verifier in verifiers:
            store = verifier.profile_store
            stats = store.stats()
            m.profile_hits += stats["hits"]
            m.profile_misses += stats["misses"]
            m.profile_evictions += stats["evictions"]
            m.profiles_cached += stats["size"]
            m.profiles_invalidated += stats["invalidations"]
            m.fm_evaluations += verifier.fm_evaluations
            m.fm_queries += verifier.fm_queries
        m.release_tasks = self.backend.stats()["release_tasks"]
        return m

    @contextmanager
    def _phase(self, name: str, tasks: int = 0) -> Iterator[None]:
        """Time one engine phase as a trace-less :class:`span`, counted on
        exit: a phase that raises counts like one that returns."""
        phase = span(name)
        try:
            with phase:
                yield
        finally:
            with self._lock:
                self._phase_wall[name] += phase.elapsed
                if tasks:
                    self._phase_tasks[name] += tasks

    def close(self) -> None:
        """Release execution resources (worker pools, shared memory).

        Closes the backend if the engine created it, but not a backend
        *instance* the caller passed in (the caller owns its lifecycle).
        Safe to call more than once; the engine remains usable afterwards
        (backends respawn pools lazily).
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ReleaseEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ submission

    def submit(self, request: Union[ReleaseRequest, Mapping]) -> PCORResult:
        """Run one budgeted release.

        The ledger is charged *first* (even an aborted mechanism run may
        leak); over-budget requests raise :class:`PrivacyBudgetError` before
        any component is built or any ``f_M`` evaluation runs.
        """
        request = self._coerce(request)
        with self._lock:
            self.requests_submitted += 1
        self._charge(request)
        with self._phase("release", tasks=1):
            return self._execute(request)

    def execute(self, request: Union[ReleaseRequest, Mapping]) -> PCORResult:
        """Run one release whose budget was already admitted externally.

        Identical to :meth:`submit` except that the engine's own accountant
        (if any) is *not* charged — for callers that performed admission
        against their own ledger (the HTTP server admits each release
        through the dataset's :class:`~repro.server.tenants.TenantBudgets`,
        then executes here on an unbudgeted engine).  Calling this without
        external admission runs the release unaccounted — don't.
        """
        request = self._coerce(request)
        with self._lock:
            self.requests_submitted += 1
        with self._phase("release", tasks=1):
            return self._execute(request)

    def submit_many(
        self, requests: Sequence[Union[ReleaseRequest, Mapping]]
    ) -> List[PCORResult]:
        """Run a batch of releases as :meth:`execute_many` runs it, after
        admitting the whole batch at once.

        All requests are charged up front in one atomic ledger transaction —
        if any would overdraw the budget, the whole batch is rejected before
        a single ``f_M`` evaluation and nothing is charged.  The admitted
        batch then runs exactly as :meth:`execute_many` runs it, and the
        first failed request's error (in request order) is raised once
        every request has run.

        Privacy accounting is per-request, identical to :meth:`submit`; see
        :meth:`repro.core.pcor.PCOR.release_many` for the worst-case
        sequential-composition caveat across records.
        """
        reqs = self._accept(requests)
        if not reqs:
            return []
        with self._phase("admission"):
            if self.accountant is not None:
                # All-or-nothing admission, atomic on the accountant's lock:
                # a rejected batch leaves the ledger untouched, and no
                # concurrent submitter can slip a charge between the check
                # and the append.
                try:
                    self.accountant.charge_many(
                        [(self._charge_label(r), r.spec.epsilon) for r in reqs]
                    )
                except PrivacyBudgetError:
                    with self._lock:
                        self.requests_rejected += len(reqs)
                    total = math.fsum(r.spec.epsilon for r in reqs)
                    raise PrivacyBudgetError(
                        f"batch of {len(reqs)} requests needs "
                        f"epsilon={total:.6g} but only "
                        f"{self.accountant.remaining:.6g} of "
                        f"{self.accountant.budget:g} remains"
                    ) from None
        return self._raise_first_failure(self._execute_batch(reqs))

    def execute_many(
        self,
        requests: Sequence[Union[ReleaseRequest, Mapping]],
        return_exceptions: bool = False,
        on_outcome: Optional[Callable[[int, Any], None]] = None,
    ) -> List:
        """Run a batch of releases whose budgets were already admitted.

        The batch counterpart of :meth:`execute`: the engine's own
        accountant (if any) is *not* charged — the caller performed
        admission against its own ledger (the HTTP server's request
        coalescer admits each queued request through
        :class:`~repro.server.tenants.TenantBudgets` before flushing the
        admitted set here).  Calling this without external admission runs
        the batch unaccounted — don't.

        The batch runs on the engine's execution backend: one task per
        request, each drawing from its own RNG substream spawned from the
        request seeds in request order before any task runs — so serial
        and process backends release bit-identical contexts at any worker
        count, and no batching boundary a coalescer picks can change a
        release: every request releases bit-identically to a lone
        :meth:`submit`/:meth:`execute` with the same seed.

        Each request's outcome is reported as soon as it exists:
        ``on_outcome(index, outcome)``, when given, is called once per
        request, on the calling thread, right after that request's task
        finishes — the serial loop's task order, or the order process
        workers return them in.  ``index`` is the request's position in
        ``requests``.  Request order is only the order this method returns
        the outcomes in.  The HTTP server's coalescer answers each request
        from this callback, so a coalesced request does not wait for the
        releases behind it in its flush.

        On the serial backend a batch is a plain loop of lone releases:
        each task is the release :meth:`execute` would run, against the
        engine's verifiers and stores, so it reads what the releases before
        it cached and is charged every ``f_M`` run it makes.  A process
        worker runs the same release against its own engine and store.

        Every request runs, even after an earlier one failed (each was
        already charged).  With ``return_exceptions=True`` a request that
        fails mid-release (no matching context, record outside the
        dataset, ...) yields its :class:`~repro.exceptions.ReproError` *in
        place*; the caller dispatches on ``isinstance(outcome,
        ReproError)``.  Otherwise the first failed request's error, in
        request order, is raised.  A failure of the pool itself (a dead
        process worker) raises either way, after the outcomes that did
        finish were reported to ``on_outcome``; a spec that cannot be
        shipped to it raises before any request runs.
        """
        outcomes = self._execute_batch(self._accept(requests), on_outcome)
        return outcomes if return_exceptions else self._raise_first_failure(outcomes)

    def _accept(
        self, requests: Sequence[Union[ReleaseRequest, Mapping]]
    ) -> List[ReleaseRequest]:
        reqs = [self._coerce(r) for r in requests]
        with self._lock:
            self.requests_submitted += len(reqs)
        return reqs

    @staticmethod
    def _raise_first_failure(outcomes: List) -> List[PCORResult]:
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                raise outcome
        return outcomes

    def _execute_batch(
        self,
        reqs: Sequence[ReleaseRequest],
        on_outcome: Optional[Callable[[int, Any], None]] = None,
    ) -> List:
        """Run admitted requests on the engine's backend, reporting each
        outcome as it completes; returns them in request order (see
        :meth:`execute_many`)."""
        if not reqs:
            return []
        tokens = plan_task_rngs([r.seed for r in reqs])
        outcomes: List = [None] * len(reqs)
        pooled = self.backend.parallel and len(reqs) > 1

        def report(index: int, outcome) -> None:
            outcomes[index] = outcome
            if pooled and isinstance(outcome, PCORResult):
                # Pool tasks never pass through this process's _execute;
                # fold their results into the engine's counters here.
                with self._lock:
                    self.releases_completed += 1
                    self.wall_time_s += outcome.wall_time_s
            if on_outcome is not None:
                on_outcome(index, outcome)

        with self._phase("release", tasks=len(reqs)):
            if pooled:
                self.backend.run_releases(self, reqs, tokens, report)
            else:
                for index, (request, token) in enumerate(zip(reqs, tokens)):
                    report(index, self._outcome(request, rng_from_token(token)))
        return outcomes

    # ------------------------------------------------------------- internals

    @staticmethod
    def _coerce(request: Union[ReleaseRequest, Mapping]) -> ReleaseRequest:
        if isinstance(request, ReleaseRequest):
            return request
        if isinstance(request, Mapping):
            return ReleaseRequest(**dict(request))
        raise SamplingError(
            f"submit expects a ReleaseRequest or a mapping, "
            f"got {type(request).__name__}"
        )

    def _charge_label(self, request: ReleaseRequest) -> str:
        spec = request.spec
        sampler_name = (
            spec.sampler if isinstance(spec.sampler, str) else spec.sampler.name
        )
        # The version stamp in the ledger records which dataset snapshot the
        # charge was admitted against — an auditor replaying the WAL of an
        # append-only deployment can line charges up with appends.
        return (
            f"submit(record={request.record_id}, sampler={sampler_name}, "
            f"epsilon={spec.epsilon:g}, dataset_v{self._dataset_version})"
        )

    def _charge(self, request: ReleaseRequest) -> None:
        if self.accountant is None:
            return
        try:
            self.accountant.charge(self._charge_label(request), request.spec.epsilon)
        except PrivacyBudgetError:
            with self._lock:
                self.requests_rejected += 1
            raise

    def _outcome(
        self, request: ReleaseRequest, gen: np.random.Generator
    ) -> Union[PCORResult, ReproError]:
        """One batch task: the release, or the
        :class:`~repro.exceptions.ReproError` it raised.  Every backend runs
        its tasks through this, so one failed request never discards the
        releases batched alongside it."""
        try:
            return self._execute(request, gen)
        except ReproError as exc:
            return exc

    def _execute(
        self,
        request: ReleaseRequest,
        gen: Optional[np.random.Generator] = None,
    ) -> PCORResult:
        """The release core (Definition 3.2 end to end) — shared by every
        entry point, so identical seeds release identical contexts whether
        they arrive via ``submit``, ``PCOR.release``, a ``ReleaseSession``
        or an execution-backend task.  ``gen`` overrides the request seed
        with a pre-planned per-task substream (the batch fan-out path)."""
        spec = request.spec
        record_id = request.record_id
        if gen is None:
            gen = ensure_rng(request.seed)
        # Spans draw no randomness, so a traced release is bit-identical to
        # an untraced one.  They record into a sampled trace, and while a
        # sampling profiler is live (GET /v1/debug/profile) stacks from
        # this thread carry the innermost span's name as a synthetic frame.
        trace = request.trace
        with span("engine.execute", trace, record_id=record_id) as execute:
            with span("engine.starting_context", trace):
                verifier = self.verifier_for(spec.build_detector())
                sampler = spec.build_sampler()
                # Thread-local so concurrent releases on one verifier (HTTP
                # handler threads) don't attribute each other's detector runs.
                fm_before = verifier.local_fm_evaluations
                starting_bits = self._resolve_starting_bits(
                    verifier, sampler, request, gen
                )
                utility = spec.build_utility(verifier, record_id, starting_bits)

            with span("engine.sample", trace) as sample:
                eps1 = epsilon_one_for(
                    sampler.accounting_name, spec.epsilon, sampler.n_samples
                )
                mechanism = ExponentialMechanism(
                    eps1,
                    sensitivity=utility.sensitivity or 1.0,
                    half_sensitivity=spec.half_sensitivity,
                )
                run = sampler.sample(
                    verifier, utility, record_id, starting_bits, mechanism, gen
                )
                sample.attrs["n_candidates"] = len(run.candidates)
            if not run.candidates:
                raise SamplingError(
                    f"sampler {sampler.name!r} collected no candidates "
                    f"for record {record_id}"
                )

            with span("engine.select", trace):
                # At the release's last dataset version: a candidate an
                # append mid-release made non-matching scores -inf, so it
                # cannot win.
                scores = utility.scores(run.candidates)
                run.stats.mechanism_invocations += 1
                chosen, idx = mechanism.select(run.candidates, scores, gen)
            fm_evaluations = verifier.local_fm_evaluations - fm_before
            execute.attrs["fm_evaluations"] = fm_evaluations
            execute.attrs["pid"] = os.getpid()

        result = PCORResult(
            context=Context(verifier.schema, chosen),
            record_id=record_id,
            utility_value=float(scores[idx]),
            utility_name=utility.name,
            epsilon_total=spec.epsilon,
            epsilon_one=eps1,
            algorithm=sampler.name,
            n_candidates=len(run.candidates),
            starting_context=(
                Context(verifier.schema, starting_bits)
                if starting_bits is not None
                else None
            ),
            stats=run.stats,
            fm_evaluations=fm_evaluations,
            wall_time_s=execute.elapsed,
            dataset_version=self._dataset_version,
        )
        with self._lock:
            self.releases_completed += 1
            self.wall_time_s += result.wall_time_s
        return result

    def _resolve_starting_bits(
        self,
        verifier: OutlierVerifier,
        sampler: Sampler,
        request: ReleaseRequest,
        gen,
    ) -> Optional[int]:
        record_id = request.record_id
        starting_context = request.starting_context
        needs_start = (
            sampler.requires_starting_context
            or request.spec.utility_requires_starting_context()
        )
        if starting_context is None:
            if not needs_start:
                return None
            ctx = find_starting_context(verifier, record_id, gen)
            return ctx.bits
        bits = (
            starting_context.bits
            if isinstance(starting_context, Context)
            else int(starting_context)
        )
        if not verifier.is_matching(bits, record_id):
            raise SamplingError(
                f"starting context {bits:#x} is not a matching context for "
                f"record {record_id}; graph samplers must start from a valid "
                "context (Section 5.2)"
            )
        return bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = (
            f"budget={self.accountant.budget:g}, spent={self.spent:g}"
            if self.accountant is not None
            else "unbudgeted"
        )
        return (
            f"ReleaseEngine(n={len(self.dataset)}, {budget}, "
            f"backend={self.backend.name}:{self.backend.workers}, "
            f"verifiers={len(self._verifiers)}, "
            f"releases={self.releases_completed})"
        )

