"""Worker-process runtime and the release task of the process backend.

A worker is initialised once per process: it attaches the shared-memory
dataset segment, rebuilds the dataset and the zero-copy mask index, and
keeps a private, unbudgeted, strictly-serial
:class:`~repro.service.engine.ReleaseEngine` for the pool's lifetime.
Verifiers (and hence profile stores) persist across tasks, so a worker
amortises detector runs over every task it is handed.

A task's :class:`~repro.service.spec.PipelineSpec` arrives pickled, as it
is: registry names and kwargs, or detector, sampler and utility objects,
which pickle by class or function reference plus their attributes.  An
unpickled detector has the parent's
:func:`~repro.core.profiles.detector_fingerprint`, so it keys the verifier
and profile store a serial release of the same spec would use.

Heavyweight imports (the service engine) happen lazily inside functions:
this module is imported by the backend in the parent process too, and must
not create an import cycle with :mod:`repro.service.engine`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.exceptions import ExecutionError
from repro.runtime.base import rng_from_token
from repro.runtime.sharing import SharedDatasetHandle, attach_shared_dataset

_RUNTIME: Optional[Dict[str, Any]] = None


# ------------------------------------------------------------- initialisation


def _build_runtime(
    handle: SharedDatasetHandle, profile_capacity: Optional[int]
) -> Dict[str, Any]:
    """Attach ``handle`` and stand up a fresh serial engine over it."""
    from repro.core.profiles import DEFAULT_CAPACITY
    from repro.runtime.serial import SerialBackend
    from repro.service.engine import ReleaseEngine

    dataset, masks, shm = attach_shared_dataset(handle)
    # Workers are leaves: an explicit serial backend ignores any inherited
    # PCOR_BACKEND/PCOR_WORKERS environment, so a worker can never spawn
    # its own pool.
    engine = ReleaseEngine(
        dataset,
        mask_index=masks,
        backend=SerialBackend(),
        profile_capacity=(
            DEFAULT_CAPACITY if profile_capacity is None else int(profile_capacity)
        ),
    )
    return {
        "engine": engine,
        "shm": shm,
        "version": handle.dataset_version,
        "profile_capacity": profile_capacity,
    }


def initialize_worker(
    handle: SharedDatasetHandle, profile_capacity: Optional[int] = None
) -> None:
    """Process-pool initializer: attach shared memory, build the engine.

    ``profile_capacity`` carries the parent engine's profile-store bound so
    worker caches (which persist across tasks by design) respect the same
    memory ceiling the caller configured.
    """
    global _RUNTIME
    _RUNTIME = _build_runtime(handle, profile_capacity)


def _engine(handle: Optional[SharedDatasetHandle]):
    """The worker's engine, re-attached first if the task carries a newer
    shared segment (a live dataset append republished the export).

    Versions are monotone and superseded segments are unlinked by the
    parent, so a worker only ever moves forward: a stale ``handle`` (task
    queued before a newer rebind was observed) is simply ignored.  The
    rebuilt engine starts with empty profile caches — correct by
    construction, since cached profiles describe the previous snapshot.
    """
    global _RUNTIME
    if _RUNTIME is None:
        raise ExecutionError(
            "worker runtime not initialised; tasks may only run on a pool "
            "started by ProcessBackend"
        )
    if handle is not None and handle.dataset_version > _RUNTIME["version"]:
        old = _RUNTIME
        _RUNTIME = _build_runtime(handle, old["profile_capacity"])
        old_shm = old.pop("shm")
        old.clear()  # drop the old engine (and its zero-copy views) now
        try:
            old_shm.close()
        except BufferError:  # pragma: no cover - view pinned by a cycle
            # mmap refuses to close while a numpy view is exported; the
            # collector will release it — the mapping lingers until then
            # (bounded: one superseded mapping per rebind, not a leak of
            # the segment itself, which the parent already unlinked).
            pass
    return _RUNTIME["engine"]


# -------------------------------------------------------------------- tasks


def run_release_task(payload: Dict[str, Any]):
    """One whole release, end to end, against the worker's engine.

    Returns the task's outcome: the result, or the
    :class:`~repro.exceptions.ReproError` the release raised.

    A sampled trace ships as ``{"trace_id", "t0"}``: the worker rebuilds
    a local :class:`~repro.obs.trace.Trace` on the parent's clock origin,
    records its spans, and rides them back on the (pickled) outcome as a
    ``trace_spans`` instance attribute — :class:`~repro.core.result.PCORResult`
    is frozen, but instance attributes set via ``object.__setattr__``
    live in ``__dict__``, survive pickling (an exception's ``__dict__``
    pickles too), and leave ``to_dict()`` and equality untouched.

    The task is the release a lone :meth:`ReleaseEngine.execute
    <repro.service.engine.ReleaseEngine.execute>` would run, against the
    worker's own engine and profile store, so it releases exactly what the
    serial loop releases for the same token.
    """
    from repro.service.engine import ReleaseRequest

    engine = _engine(payload["shm"])
    trace = None
    trace_ref = payload.get("trace")
    if trace_ref is not None:
        from repro.obs.trace import Trace

        trace = Trace(trace_ref["trace_id"], sampled=True, t0=trace_ref["t0"])
    request = ReleaseRequest(
        record_id=payload["record_id"],
        spec=payload["spec"],
        starting_context=payload["starting_bits"],
        trace=trace,
    )
    outcome = engine._outcome(request, rng_from_token(payload["seed"]))
    if trace is not None:
        object.__setattr__(outcome, "trace_spans", trace.spans())
    return outcome


def ping_task(delay: float) -> int:
    """Warm-up no-op used by ``ProcessBackend.bind`` to force worker spawn.

    The short sleep keeps each already-spawned worker busy so the pool's
    lazy spawner brings up a fresh process for every queued ping.
    """
    import time

    time.sleep(float(delay))
    return os.getpid()


def crash_task(_payload) -> None:  # pragma: no cover - kills the process
    """Test hook: die abruptly, simulating a worker crash."""
    os._exit(13)
