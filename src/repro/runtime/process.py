"""The process backend: spawned worker pool over shared-memory datasets.

On first use with a dataset, the backend writes the record codes, ids,
metric column and the bit-packed mask matrix into one shared-memory segment
(:class:`~repro.runtime.sharing.SharedDatasetExport`) and spawns a
``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor` whose
initializer attaches the segment and builds a per-worker serial engine.
Tasks then carry only their own payload — a request spec rendered as data
plus a picklable RNG substream token — so per-task IPC stays tiny however
large the dataset is.

Live datasets: when the bound mask index reappears with a *new* dataset
snapshot (``ReleaseEngine.append`` committed between batches), the pool is
kept — a fresh export is published and each task carries its handle, so
workers re-attach lazily on their next task instead of paying a respawn.
The initargs segment stays alive for late-spawning workers; superseded
intermediate segments are unlinked immediately.

Release tasks are submitted one by one and each outcome is reported as its
worker returns it, so a finished release is answered while its batch is
still running.

Failure semantics: a release task's ``ReproError`` (``SamplingError``
etc.) is captured in the worker and comes back as that task's outcome,
carrying the task's trace spans like a result does.  A worker dying
mid-task raises a clear :class:`~repro.exceptions.ExecutionError` naming
this backend (never a raw ``BrokenProcessPool``) once the outcomes that
did come back have been reported, and the pool plus shared memory are torn
down immediately so nothing leaks even on a crash.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import threading
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ExecutionError
from repro.runtime.base import ExecutionBackend, SeedToken, chunk_evenly
from repro.runtime.sharing import SharedDatasetExport
from repro.runtime import worker as worker_mod


def _release_resources(exports: List[SharedDatasetExport], pool) -> None:
    """GC/close-time cleanup; must never reference the backend itself.

    The pool is joined *before* the segments are unlinked, so a worker still
    running its initializer can finish attaching; crashed workers are
    already gone and join immediately.  ``exports`` is the backend's live
    mutable list — read at call time, so exports added by live rebinds after
    the finalizer was registered are still reclaimed.
    """
    if pool is not None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    for export in list(exports):
        export.close()
    exports.clear()


class ProcessBackend(ExecutionBackend):
    """Fan tasks out across spawned worker processes."""

    name = "process"
    # Even one process worker executes out-of-process, so tasks always ship.
    parallel = True
    #: Smallest uncached-profile batch worth fanning out; below it the
    #: verifier computes inline, because every chunk pays a pickle round trip.
    min_profile_fanout = 256

    #: Bound on the validated-payload memo dicts (FIFO eviction): a
    #: long-lived service submitting many ad-hoc specs must not accumulate
    #: entries (and pinned specs/verifiers) without limit.
    payload_cache_size = 64

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers)
        # Guards the pool/export lifecycle and the payload memos so
        # concurrent submitters cannot double-spawn (leaking a pool + shm
        # segment) or unbind a pool out from under an in-flight map.
        self._lifecycle_lock = threading.RLock()
        self._export: Optional[SharedDatasetExport] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        # Strong reference to the bound dataset: identity is the bind key,
        # and holding the object keeps a recycled id from silently aliasing
        # a *different* dataset onto a stale shared-memory export.
        self._dataset: Optional[Any] = None
        # The mask index the pool was spawned against.  When the *same*
        # index reappears with a *new* dataset (an append swapped the
        # engine's snapshot), the pool is kept and only a fresh export is
        # published — workers re-attach per task instead of respawning.
        self._mask_index: Optional[Any] = None
        # Export the pool's initargs name: it must outlive every rebind,
        # because a worker the executor spawns late still runs its
        # initializer against this segment before any task re-attaches it.
        self._initial_export: Optional[SharedDatasetExport] = None
        #: dataset_version baked into the pool initargs; tasks ship a
        #: re-attach handle only while the current export is newer.
        self._pool_version: int = 0
        # Every un-closed export, shared (as one mutable list) with the
        # finalizer so rebind-published segments are reclaimed too.
        self._live_exports: List[SharedDatasetExport] = []
        self._finalizer: Optional[weakref.finalize] = None
        # spec -> validated payload; keyed by id with a strong reference to
        # the spec so a recycled id can never alias a different spec.
        self._spec_payloads: Dict[int, Tuple[Any, Dict[str, Any]]] = {}
        self._detector_payloads: Dict[int, Tuple[Any, Tuple]] = {}

    # -------------------------------------------------------------- binding

    def bind(self, dataset, mask_index=None, profile_capacity: Optional[int] = None) -> None:
        """Export ``dataset`` and spawn the worker pool now (idempotent).

        Binding otherwise happens lazily on the first fan-out; call this to
        pay the spawn + shared-memory export cost up front (e.g. at service
        start) so the first batch runs at steady-state speed.
        """
        if mask_index is None:
            from repro.data.masks import PredicateMaskIndex

            mask_index = PredicateMaskIndex(dataset)
        pool, _ = self._ensure_bound(dataset, mask_index, profile_capacity)
        # The executor spawns workers lazily on submission; pinging with one
        # short sleep per worker forces the whole pool (and every worker's
        # initializer) up now.
        self._map(pool, worker_mod.ping_task, [0.05] * self.workers)

    def _current_shm_ref(self) -> Optional[Dict[str, Any]]:
        """Re-attach handle to ride on task payloads, or ``None`` while the
        current export is still the one the pool initargs carry (the common
        no-append case pays zero extra payload bytes).  Callers hold the
        lifecycle lock."""
        if (
            self._export is None
            or self._export.handle.dataset_version == self._pool_version
        ):
            return None
        return {"handle": self._export.handle}

    def _ensure_bound(
        self, dataset, mask_index, profile_capacity: Optional[int] = None
    ) -> Tuple[ProcessPoolExecutor, Optional[Dict[str, Any]]]:
        """Export ``dataset``, spawn or rebind the pool, and return the pool
        *handle* the caller must ship its tasks through plus the shm
        re-attach reference (``None`` unless a live append superseded the
        segment the pool was spawned with).  Holding the pool handle (rather
        than re-reading ``self._pool`` later) keeps a concurrent rebind to a
        different dataset from silently swapping the pool under an in-flight
        batch.

        Rebind semantics: when the *same mask index* comes back carrying a
        *new* dataset snapshot (``ReleaseEngine.append`` committed between
        batches), the spawned workers are kept — only a fresh export is
        published, and tasks carry its handle so each worker re-attaches
        lazily on its next task.  Anything else (different dataset, different
        index) is a cold rebind: tear down and respawn.
        """
        with self._lifecycle_lock:
            if self._pool is not None and self._mask_index is mask_index:
                if self._dataset is dataset:
                    return self._pool, self._current_shm_ref()
                if mask_index.dataset is dataset:
                    # Live append: publish the new snapshot, keep the pool.
                    export = SharedDatasetExport(dataset, mask_index)
                    superseded, self._export = self._export, export
                    self._dataset = dataset
                    self._live_exports.append(export)
                    if superseded is not None and superseded is not self._initial_export:
                        # Intermediate generation: no future task ships its
                        # handle, and attached workers keep their own
                        # mapping alive — safe to unlink now.
                        superseded.close()
                        self._live_exports.remove(superseded)
                    return self._pool, self._current_shm_ref()
            self._unbind()
            export = SharedDatasetExport(dataset, mask_index)
            try:
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=mp.get_context("spawn"),
                    initializer=worker_mod.initialize_worker,
                    initargs=(
                        export.handle,
                        profile_capacity,
                    ),
                )
            except Exception:
                export.close()
                raise
            self._export = export
            self._initial_export = export
            self._pool_version = export.handle.dataset_version
            self._live_exports = [export]
            self._pool = pool
            self._dataset = dataset
            self._mask_index = mask_index
            self._finalizer = weakref.finalize(
                self, _release_resources, self._live_exports, pool
            )
            return pool, None

    def _unbind(self, expected_pool: Optional[ProcessPoolExecutor] = None) -> None:
        """Tear down the current binding.

        With ``expected_pool`` given, only tears down if that pool is still
        the bound one — a failing batch must not destroy a healthy pool the
        backend has since been rebound to.
        """
        with self._lifecycle_lock:
            if expected_pool is not None and self._pool is not expected_pool:
                return
            finalizer, self._finalizer = self._finalizer, None
            self._export = None
            self._initial_export = None
            self._pool = None
            self._dataset = None
            self._mask_index = None
            self._pool_version = 0
            self._live_exports = []
        if finalizer is not None:
            finalizer()  # runs _release_resources exactly once

    def close(self) -> None:
        self._unbind()
        with self._lifecycle_lock:
            self._spec_payloads.clear()
            self._detector_payloads.clear()

    # ------------------------------------------------------------ shipping

    def _map(self, pool: Optional[ProcessPoolExecutor], fn, payloads: Sequence) -> List:
        """Ordered map over ``pool`` with crash translation and teardown."""
        if pool is None:
            with self._lifecycle_lock:
                pool = self._pool
        if pool is None:
            raise ExecutionError(f"{self.name} backend is not bound to a dataset")
        with self._shipping(pool):
            return list(pool.map(fn, payloads))

    @contextmanager
    def _shipping(self, pool: ProcessPoolExecutor) -> Iterator[None]:
        """Translate a failure of ``pool`` itself, raised inside the block,
        into an :class:`ExecutionError` naming this backend."""
        try:
            yield
        except BrokenExecutor as exc:
            # The pool is unusable and its workers are gone; tear everything
            # down now (unless a rebind already replaced it) so the shared
            # segment cannot leak, then re-raise as a library error naming
            # the backend.
            self._unbind(expected_pool=pool)
            raise ExecutionError(
                f"{self.name} backend ({self.workers} workers) lost a worker "
                f"process mid-task ({type(exc).__name__}); the pool and its "
                "shared-memory segment were torn down — resubmit to respawn"
            ) from exc
        except RuntimeError as exc:
            # Only translate the executor's own shutdown complaint (a
            # concurrent close()/rebind mid-flight); any other RuntimeError
            # is an ordinary task exception and must propagate unchanged.
            if "after shutdown" not in str(exc):
                raise
            raise ExecutionError(
                f"{self.name} backend ({self.workers} workers) was shut down "
                f"while a batch was in flight: {exc}"
            ) from exc

    @staticmethod
    def _memoize(cache: Dict[int, Tuple[Any, Any]], key_obj: Any, value: Any, bound: int) -> None:
        """FIFO-bounded insert so long-lived services cannot accumulate
        entries (and the specs/verifiers they pin) without limit."""
        while len(cache) >= bound:
            cache.pop(next(iter(cache)))
        cache[id(key_obj)] = (key_obj, value)

    def _shippable_spec(self, spec) -> Dict[str, Any]:
        with self._lifecycle_lock:
            cached = self._spec_payloads.get(id(spec))
            if cached is not None and cached[0] is spec:
                return cached[1]
        payload = worker_mod.spec_payload(spec)
        self._validate_payload(payload, spec)
        with self._lifecycle_lock:
            self._memoize(self._spec_payloads, spec, payload, self.payload_cache_size)
        return payload

    def _validate_payload(self, payload: Dict[str, Any], spec) -> None:
        """Fail in the parent, with a clear error, before any task ships."""
        try:
            pickle.dumps(payload)
        except Exception as exc:
            raise ExecutionError(
                f"spec {spec!r} cannot be shipped to {self.name} workers: "
                f"{exc}; use registry-named components for process execution"
            ) from None
        rebuilt = worker_mod.rebuild_spec(payload)
        from repro.core.profiles import detector_fingerprint

        if detector_fingerprint(rebuilt.build_detector()) != detector_fingerprint(
            spec.build_detector()
        ):
            raise ExecutionError(
                f"detector {type(spec.build_detector()).__qualname__} does not "
                "round-trip through its public configuration; register it "
                f"(register_detector) to release via the {self.name} backend"
            )
        original_sampler = spec.build_sampler()
        rebuilt_sampler = rebuilt.build_sampler()
        if type(rebuilt_sampler) is not type(original_sampler) or vars(
            rebuilt_sampler
        ) != vars(original_sampler):
            raise ExecutionError(
                f"sampler {type(original_sampler).__qualname__} does not "
                "round-trip through its public configuration; register it "
                f"(register_sampler) to release via the {self.name} backend"
            )

    def _detector_payload_for(self, verifier) -> Tuple:
        with self._lifecycle_lock:
            cached = self._detector_payloads.get(id(verifier))
            if cached is not None and cached[0] is verifier:
                return cached[1]
        payload = worker_mod.detector_payload(verifier.detector)
        try:
            pickle.dumps(payload)
            rebuilt = worker_mod.rebuild_detector(payload)
            from repro.core.profiles import detector_fingerprint

            if detector_fingerprint(rebuilt) != detector_fingerprint(
                verifier.detector
            ):
                raise ExecutionError(
                    f"detector {type(verifier.detector).__qualname__} does not "
                    "round-trip through its public configuration"
                )
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"detector {type(verifier.detector).__qualname__} cannot be "
                f"shipped to {self.name} workers: {exc}"
            ) from None
        with self._lifecycle_lock:
            self._memoize(
                self._detector_payloads, verifier, payload, self.payload_cache_size
            )
        return payload

    # ------------------------------------------------------------- protocol

    def run_releases(
        self,
        engine,
        requests: Sequence,
        tokens: Sequence[SeedToken],
        report: Callable[[int, Any], None],
    ) -> None:
        """Execute one release per request, reporting each task's outcome
        as ``report(index, outcome)`` the moment its worker returns it.

        Outcomes arrive in completion order, on the calling thread; the
        index is the request's position.  An outcome is the task's
        :class:`~repro.core.result.PCORResult` or the
        :class:`~repro.exceptions.ReproError` raised inside it, so one
        failed request never discards its co-batched results.  A sampled
        task's worker spans are folded into its request's trace before
        the outcome is reported.  Failures of the pool itself (a dead
        worker, an unshippable spec) raise once every outcome that did come
        back has been reported; only the requests left without an outcome
        are lost with the pool.

        ``engine`` is the :class:`~repro.service.engine.ReleaseEngine` the
        batch was submitted to.  Each task ships as a self-contained
        payload to a worker whose own engine runs it; every task gets the
        batch's flag, ``engine._in_batch(requests)`` (see
        :meth:`ReleaseEngine.execute_many
        <repro.service.engine.ReleaseEngine.execute_many>`).
        """
        pool, shm_ref = self._ensure_bound(
            engine.dataset, engine.masks, engine.profile_capacity
        )
        payloads = self._release_payloads(
            requests, tokens, engine._in_batch(requests), shm_ref
        )
        with self._shipping(pool):
            futures = {
                pool.submit(worker_mod.run_release_task, payload): index
                for index, payload in enumerate(payloads)
            }
            lost: Optional[BrokenExecutor] = None
            try:
                for future in as_completed(futures):
                    try:
                        outcome = future.result()
                    except BrokenExecutor as exc:
                        lost = exc  # report every outcome that came back first
                        continue
                    index = futures[future]
                    trace = getattr(requests[index], "trace", None)
                    if trace is not None:
                        trace.extend(getattr(outcome, "trace_spans", None))
                    report(index, outcome)
            finally:
                for future in futures:
                    future.cancel()
            if lost is not None:
                raise lost
        self._count(releases=len(payloads))

    def _release_payloads(
        self,
        requests: Sequence,
        tokens: Sequence[SeedToken],
        in_batch: bool,
        shm_ref: Optional[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """One self-contained task payload per request, in request order."""
        payloads = []
        for request, token in zip(requests, tokens):
            start = request.starting_context
            starting_bits = (
                None if start is None else int(getattr(start, "bits", start))
            )
            trace = getattr(request, "trace", None)
            payloads.append(
                {
                    "record_id": request.record_id,
                    "spec": self._shippable_spec(request.spec),
                    "starting_bits": starting_bits,
                    "seed": token,
                    "in_batch": in_batch,
                    # Sampled traces ship id + clock origin so worker spans
                    # land on the parent's timeline (CLOCK_MONOTONIC is
                    # system-wide); unsampled requests ship nothing.
                    "trace": (
                        {"trace_id": trace.trace_id, "t0": trace.t0}
                        if trace is not None and trace.sampled
                        else None
                    ),
                    "shm": shm_ref,
                }
            )
        return payloads

    def run_profiles(self, verifier, misses: List[int]) -> List:
        """Profile a batch of uncached contexts, reduced in input order."""
        pool, shm_ref = self._ensure_bound(
            verifier.dataset, verifier.masks, verifier.profile_store.capacity
        )
        detector = self._detector_payload_for(verifier)
        payloads = [
            {"detector": detector, "bits": chunk, "shm": shm_ref}
            for chunk in chunk_evenly(misses, self.workers)
        ]
        profiles: List = []
        for part in self._map(pool, worker_mod.run_profile_task, payloads):
            profiles.extend(part)
        self._count(profiles=len(misses))
        return profiles
