"""Parallel execution runtime: the worker backends for PCOR.

Two backends execute the engine's fan-out points
(``submit_many``/``execute_many`` request batches and uncached
context-profile batches):

* ``serial`` — :class:`SerialBackend`, inline execution (the default and
  the determinism reference);
* ``process`` — :class:`ProcessBackend`, spawned workers over a
  shared-memory copy of the dataset and its bit-packed mask matrix.

Every backend produces **bit-identical releases** for the same seed at any
worker count: randomness is planned as per-task substreams
(:func:`plan_task_rngs`) keyed by request order before any task runs, so
the order tasks finish in decides only when each outcome is reported.

Each engine runs every batch on one backend, picked once by
:func:`resolve_backend` — the only place a name, a worker count and the
environment become a backend: ``ReleaseEngine(backend=...)`` /
``PCOR(backend=...)`` (``pcor release --backend/--workers`` passes straight
through), else the ``PCOR_BACKEND`` environment variable, else process when
more than one worker is asked for, else serial.  ``PCOR_WORKERS`` sets the
default worker count.
"""

import os
from typing import List, Optional, Union

from repro.exceptions import ExecutionError
from repro.runtime.base import (
    DEFAULT_MAX_WORKERS,
    ExecutionBackend,
    chunk_evenly,
    default_workers,
    plan_task_rngs,
    rng_from_token,
)
from repro.runtime.process import ProcessBackend
from repro.runtime.serial import SerialBackend
from repro.runtime.sharing import (
    SharedDatasetExport,
    SharedDatasetHandle,
    attach_shared_dataset,
)

_BACKENDS = {"process": ProcessBackend, "serial": SerialBackend}


def make_backend(name: str, workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by name (case-insensitive)."""
    key = str(name).lower()
    if key not in _BACKENDS:
        raise ExecutionError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    return _BACKENDS[key](workers=workers)


def available_backends() -> List[str]:
    """Names of the execution backends."""
    return sorted(_BACKENDS)


def resolve_backend(
    backend: Union[None, str, ExecutionBackend] = None,
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Normalise a backend argument into an :class:`ExecutionBackend`.

    ``None`` consults the ``PCOR_BACKEND`` environment variable; absent
    that, ``workers > 1`` implies the process backend (asking for workers
    must never silently run serial — the CLI's ``--workers N`` promotes the
    same way) and otherwise serial is used.  A string goes through
    :func:`make_backend`; an instance is returned unchanged (``workers``
    must then be omitted or match).
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None and int(workers) != backend.workers:
            raise ExecutionError(
                f"workers={workers} conflicts with the supplied "
                f"{backend.name} backend's workers={backend.workers}"
            )
        return backend
    if backend is None:
        backend = os.environ.get("PCOR_BACKEND")
    if backend is None:
        backend = "process" if workers is not None and int(workers) > 1 else "serial"
    return make_backend(backend, workers=workers)


__all__ = [
    "DEFAULT_MAX_WORKERS",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "SharedDatasetExport",
    "SharedDatasetHandle",
    "attach_shared_dataset",
    "available_backends",
    "chunk_evenly",
    "default_workers",
    "make_backend",
    "plan_task_rngs",
    "resolve_backend",
    "rng_from_token",
]
