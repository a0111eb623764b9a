"""Parallel execution runtime: pluggable worker backends for PCOR.

Three registered backends execute the engine's fan-out points
(``submit_many``/``execute_many`` request batches and uncached
context-profile batches):

* ``serial`` — :class:`SerialBackend`, inline execution (the default and
  the determinism reference);
* ``thread`` — :class:`ThreadBackend`, an in-process pool sharing the
  engine's lock-protected profile stores;
* ``process`` — :class:`ProcessBackend`, spawned workers over a
  shared-memory copy of the dataset and its bit-packed mask matrix.

Every backend produces **bit-identical releases** for the same seed at any
worker count: randomness is planned as per-task substreams
(:func:`plan_task_rngs`) keyed by request order, and results are always
reduced in that canonical order.

Each engine runs every batch on one backend, picked once by
:func:`resolve_backend` — the only place a name, a worker count and the
environment become a backend: ``ReleaseEngine(backend=...)`` /
``PCOR(backend=...)`` (``pcor release --backend/--workers`` passes straight
through), else the ``PCOR_BACKEND`` environment variable, else process when
more than one worker is asked for, else serial.  ``PCOR_WORKERS`` sets the
default worker count.
"""

from repro.runtime.base import (
    DEFAULT_MAX_WORKERS,
    ExecutionBackend,
    available_backends,
    chunk_evenly,
    default_workers,
    make_backend,
    plan_task_rngs,
    register_backend,
    resolve_backend,
    rng_from_token,
)
from repro.runtime.process import ProcessBackend
from repro.runtime.serial import SerialBackend
from repro.runtime.sharing import (
    SharedDatasetExport,
    SharedDatasetHandle,
    attach_shared_dataset,
)
from repro.runtime.threads import ThreadBackend

register_backend("serial", SerialBackend)
register_backend("thread", ThreadBackend)
register_backend("process", ProcessBackend)

__all__ = [
    "DEFAULT_MAX_WORKERS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SharedDatasetExport",
    "SharedDatasetHandle",
    "attach_shared_dataset",
    "available_backends",
    "chunk_evenly",
    "default_workers",
    "make_backend",
    "plan_task_rngs",
    "register_backend",
    "resolve_backend",
    "rng_from_token",
]
