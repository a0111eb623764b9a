"""Worker-process runtime and task payloads for the process backend.

A worker is initialised once per process: it attaches the shared-memory
dataset segment, rebuilds the dataset and the zero-copy mask index, and
keeps a private, unbudgeted, strictly-serial
:class:`~repro.service.engine.ReleaseEngine` for the pool's lifetime.
Verifiers (and hence profile stores) persist across tasks, so a worker
amortises detector runs over every task it is handed.

Components cross the process boundary as *specs*, never as pickled
instances:

* named registry components travel as ``(name, kwargs)`` and rebuild
  through the registries;
* detector / sampler **instances** travel as their configuration
  fingerprint — class path plus public constructor parameters — and are
  re-validated against the original's
  :func:`~repro.core.profiles.detector_fingerprint` *before* shipping, so a
  class whose constructor cannot round-trip its configuration fails in the
  parent with a clear :class:`~repro.exceptions.ExecutionError` instead of
  crashing a worker.

Heavyweight imports (the service engine) happen lazily inside functions:
this module is imported by the backend in the parent process too, and must
not create an import cycle with :mod:`repro.service.engine`.
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import Any, Dict, Optional, Tuple

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


def _engine(shm_ref: Optional[Dict[str, Any]] = None):
    """The worker's engine, re-attached first if the task carries a newer
    shared segment (a live dataset append republished the export).

    Versions are monotone and superseded segments are unlinked by the
    parent, so a worker only ever moves forward: a stale ``shm_ref`` (task
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
    if shm_ref is not None:
        handle: SharedDatasetHandle = shm_ref["handle"]
        if handle.dataset_version > _RUNTIME["version"]:
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


# ----------------------------------------------------------- component specs


def _resolve_class(module: str, qualname: str):
    obj: Any = import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _instance_payload(obj: object) -> Tuple:
    """Class path + public configuration of a detector/sampler instance."""
    params = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    return ("class", type(obj).__module__, type(obj).__qualname__, params)


def _rebuild_instance(payload: Tuple, what: str):
    _, module, qualname, params = payload
    try:
        cls = _resolve_class(module, qualname)
    except (ImportError, AttributeError) as exc:
        raise ExecutionError(
            f"cannot import {what} class {module}.{qualname}: {exc}"
        ) from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ExecutionError(
            f"cannot rebuild {what} {qualname} from its public configuration "
            f"{sorted(params)}: {exc}; use a registry-named {what} (its spec "
            "ships as data) or give the class a constructor that accepts its "
            "public attributes"
        ) from None


def rebuild_detector(payload: Tuple):
    return _rebuild_instance(payload, "detector")


def rebuild_sampler(payload: Tuple):
    if payload[0] == "named":
        from repro.core.sampling.base import make_sampler

        name, kwargs, n_samples = payload[1], payload[2], payload[3]
        return make_sampler(name, n_samples=n_samples, **kwargs)
    return _rebuild_instance(payload, "sampler")


def spec_payload(spec) -> Dict[str, Any]:
    """Shippable rendering of a :class:`~repro.service.spec.PipelineSpec`.

    Fully registry-named specs ship as their ``to_dict()`` form.  Specs
    carrying live components decompose into per-component payloads; callable
    utilities ship by pickle reference (the backend pre-validates
    picklability before any task is submitted).
    """
    if spec.is_serializable:
        return {"kind": "dict", "data": spec.to_dict()}
    if isinstance(spec.detector, str):
        det = ("named", spec.detector, dict(spec.detector_kwargs))
    else:
        det = _instance_payload(spec.detector)
    if isinstance(spec.sampler, str):
        smp: Tuple = ("named", spec.sampler, dict(spec.sampler_kwargs), spec.n_samples)
    else:
        smp = _instance_payload(spec.sampler)
    if isinstance(spec.utility, str):
        util: Tuple = ("named", spec.utility, dict(spec.utility_kwargs))
    else:
        util = ("callable", spec.utility, dict(spec.utility_kwargs))
    return {
        "kind": "parts",
        "detector": det,
        "sampler": smp,
        "utility": util,
        "epsilon": spec.epsilon,
        "n_samples": spec.n_samples,
        "half_sensitivity": spec.half_sensitivity,
        "utility_needs_start": spec.utility_needs_start,
    }


def rebuild_spec(payload: Dict[str, Any]):
    from repro.service.spec import PipelineSpec

    if payload["kind"] == "dict":
        return PipelineSpec.from_dict(payload["data"])
    det_p, smp_p, util_p = payload["detector"], payload["sampler"], payload["utility"]
    detector = det_p[1] if det_p[0] == "named" else rebuild_detector(det_p)
    detector_kwargs = det_p[2] if det_p[0] == "named" else {}
    sampler = smp_p[1] if smp_p[0] == "named" else rebuild_sampler(smp_p)
    sampler_kwargs = smp_p[2] if smp_p[0] == "named" else {}
    utility = util_p[1]
    utility_kwargs = util_p[2]
    return PipelineSpec(
        detector=detector,
        sampler=sampler,
        utility=utility,
        epsilon=payload["epsilon"],
        n_samples=payload["n_samples"],
        half_sensitivity=payload["half_sensitivity"],
        detector_kwargs=detector_kwargs,
        sampler_kwargs=sampler_kwargs,
        utility_kwargs=utility_kwargs,
        utility_needs_start=payload["utility_needs_start"],
    )


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

    engine = _engine(payload.get("shm"))
    spec = rebuild_spec(payload["spec"])
    trace = None
    trace_ref = payload.get("trace")
    if trace_ref is not None:
        from repro.obs.trace import Trace

        trace = Trace(trace_ref["trace_id"], sampled=True, t0=trace_ref["t0"])
    request = ReleaseRequest(
        record_id=payload["record_id"],
        spec=spec,
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
