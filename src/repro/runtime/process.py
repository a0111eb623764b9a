"""The process backend: spawned worker pool over shared-memory datasets.

On first use with a mask index, the backend writes one snapshot of it —
the record codes, ids, metric column and the bit-packed mask matrix — into
one shared-memory segment
(:class:`~repro.runtime.sharing.SharedDatasetExport`) and spawns a
``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor` whose
initializer attaches the segment and builds a per-worker serial engine.
Tasks then carry only their own payload — the request's
:class:`~repro.service.spec.PipelineSpec`, pickled with the rest of the
payload, plus a picklable RNG substream token — so per-task IPC stays tiny
however large the dataset is.  Before anything is exported or spawned, each
distinct spec of a batch is pickled once in the parent, so a spec that
cannot be (a lambda utility, a class local to a function) fails the batch
with a clear :class:`~repro.exceptions.ExecutionError`.

Live datasets: when the bound mask index holds a *new* snapshot
(``ReleaseEngine.append`` committed between batches), the pool is kept — a
fresh export is published and each task carries its handle, so workers
re-attach lazily on their next task instead of paying a respawn.  The
initargs segment stays alive for late-spawning workers; superseded
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
from repro.runtime.base import ExecutionBackend, SeedToken
from repro.runtime.sharing import SharedDatasetExport, SharedDatasetHandle
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
    """Fan a batch's releases out across spawned worker processes, one
    whole release per task."""

    name = "process"
    # Even one process worker executes out-of-process, so tasks always ship.
    parallel = True

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers)
        # Guards the pool/export lifecycle so concurrent submitters cannot
        # double-spawn (leaking a pool + shm segment) or unbind a pool out
        # from under an in-flight batch.
        self._lifecycle_lock = threading.RLock()
        self._export: Optional[SharedDatasetExport] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        # The mask index the pool was spawned against, and the dataset of
        # its snapshot the current export holds.  Identity is the bind key;
        # holding the objects keeps a recycled id from silently aliasing a
        # *different* index or dataset onto a stale shared-memory export.
        # When the *same* index holds a *new* snapshot (an append
        # committed), the pool is kept and only a fresh export is published
        # — workers re-attach per task instead of respawning.
        self._mask_index: Optional[Any] = None
        self._dataset: Optional[Any] = None
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

    # -------------------------------------------------------------- binding

    def bind(self, mask_index, profile_capacity: Optional[int] = None) -> None:
        """Export ``mask_index``'s current snapshot and spawn the worker pool
        now (idempotent).

        Binding otherwise happens lazily on the first pooled batch; call
        this with the engine's index (``engine.masks``) to pay the spawn +
        shared-memory export cost up front (e.g. at service start) so the
        first batch runs at steady-state speed.
        """
        pool, _ = self._ensure_bound(mask_index, profile_capacity)
        # The executor spawns workers lazily on submission; pinging with one
        # short sleep per worker forces the whole pool (and every worker's
        # initializer) up now.
        with self._shipping(pool):
            list(pool.map(worker_mod.ping_task, [0.05] * self.workers))

    def _current_handle(self) -> Optional[SharedDatasetHandle]:
        """Re-attach handle to ride on task payloads, or ``None`` while the
        current export is still the one the pool initargs carry (the common
        no-append case pays zero extra payload bytes).  Callers hold the
        lifecycle lock."""
        if self._export.handle.dataset_version == self._pool_version:
            return None
        return self._export.handle

    def _ensure_bound(
        self, mask_index, profile_capacity: Optional[int] = None
    ) -> Tuple[ProcessPoolExecutor, Optional[SharedDatasetHandle]]:
        """Export ``mask_index``'s current snapshot, spawn or rebind the
        pool, and return the pool *handle* the caller must ship its tasks
        through plus the shm re-attach handle (``None`` unless a live append
        superseded the segment the pool was spawned with).  Holding the pool
        handle (rather than re-reading ``self._pool`` later) keeps a
        concurrent rebind to a different index from silently swapping the
        pool under an in-flight batch.

        Rebind semantics: when the *same mask index* comes back holding a
        snapshot of a *new* dataset (``ReleaseEngine.append`` committed
        between batches), the spawned workers are kept — only a fresh export
        is published, and tasks carry its handle so each worker re-attaches
        lazily on its next task.  A different index is a cold rebind: tear
        down and respawn.
        """
        with self._lifecycle_lock:
            # Taken under the lock: binds are serialised and appends only
            # move an index forward, so an export never goes back a version.
            snapshot = mask_index.snapshot()
            if self._pool is not None and self._mask_index is mask_index:
                if self._dataset is not snapshot.dataset:
                    # Live append: publish the new snapshot, keep the pool.
                    export = SharedDatasetExport(snapshot)
                    superseded, self._export = self._export, export
                    self._dataset = snapshot.dataset
                    self._live_exports.append(export)
                    if superseded is not self._initial_export:
                        # Intermediate generation: no future task ships its
                        # handle, and attached workers keep their own
                        # mapping alive — safe to unlink now.
                        superseded.close()
                        self._live_exports.remove(superseded)
                return self._pool, self._current_handle()
            self._unbind()
            export = SharedDatasetExport(snapshot)
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
            self._dataset = snapshot.dataset
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

    # ------------------------------------------------------------ shipping

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
        the outcome is reported.  A failure of the pool itself (a dead
        worker) raises once every outcome that did come back has been
        reported; only the requests left without an outcome are lost with
        the pool.  A spec that cannot be pickled raises before any task
        ships, and before anything is exported or spawned.

        ``engine`` is the :class:`~repro.service.engine.ReleaseEngine` the
        batch was submitted to; the workers run on the current snapshot of
        its mask index.  Each task ships as a self-contained payload to a
        worker whose own engine runs it as a lone release.
        """
        for spec in {id(r.spec): r.spec for r in requests}.values():
            try:
                pickle.dumps(spec)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ExecutionError(
                    f"spec {spec!r} cannot be shipped to {self.name} workers: "
                    f"{exc}; use registry names, or module-level classes and "
                    "functions, for process execution"
                ) from None
        pool, handle = self._ensure_bound(engine.masks, engine.profile_capacity)
        payloads = self._release_payloads(requests, tokens, handle)
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
        handle: Optional[SharedDatasetHandle],
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
                    "spec": request.spec,
                    "starting_bits": starting_bits,
                    "seed": token,
                    # Sampled traces ship id + clock origin so worker spans
                    # land on the parent's timeline (CLOCK_MONOTONIC is
                    # system-wide); unsampled requests ship nothing.
                    "trace": (
                        {"trace_id": trace.trace_id, "t0": trace.t0}
                        if trace is not None and trace.sampled
                        else None
                    ),
                    "shm": handle,
                }
            )
        return payloads
