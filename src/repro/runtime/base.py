"""Execution backend protocol and deterministic task seeding.

PCOR's cost is dominated by repeated detector runs over candidate contexts;
the work is embarrassingly parallel at two granularities — whole releases in
a ``release_many``/``submit_many`` batch, and batches of uncached context
profiles inside one release.  A *parallel* backend
(:attr:`ExecutionBackend.parallel`, i.e.
:class:`~repro.runtime.process.ProcessBackend`) executes both task shapes:

* ``run_releases`` — one task per release request, fanned out across
  workers, reduced in request order to one outcome per task: the result,
  or the ``ReproError`` that task raised.
* ``run_profiles`` — one task per contiguous chunk of uncached context
  bitmasks, reduced in input order.  Every caller of
  ``OutlierVerifier.is_matching_many`` / ``UtilityFunction.scores`` — the
  samplers' child expansion included — funnels through this path.

A serial backend runs neither: the engine's batch loop and the verifier's
inline profile path are the serial execution, on the calling thread.

**Determinism contract.**  Profiles are deterministic functions of the
context, so their fan-out cannot change any answer.  Releases draw
randomness, so :func:`plan_task_rngs` derives one *independent substream
per task* from the release seeds — spawned in request order (the stable
task key) — and results are always reduced in that canonical order.  Any
backend at any worker count therefore produces bit-identical releases to
:class:`~repro.runtime.serial.SerialBackend` for the same seed.

Backends are named ``serial`` and ``process``
(:func:`repro.runtime.make_backend`); :func:`repro.runtime.resolve_backend`
also honours the ``PCOR_BACKEND`` and ``PCOR_WORKERS`` environment
variables so a whole test suite or deployment can be switched without code
changes.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ExecutionError
from repro.rng import RngLike

#: Default worker-count ceiling when neither the caller nor the
#: ``PCOR_WORKERS`` environment variable names one.
DEFAULT_MAX_WORKERS = 4

#: A per-task seed token: either a spawned child generator (shared-generator
#: seeds) or a :class:`numpy.random.SeedSequence` (int / fresh-entropy
#: seeds).  Both are picklable, so tokens travel to process workers as-is.
SeedToken = Union[np.random.Generator, np.random.SeedSequence]


def default_workers() -> int:
    """Worker count from ``PCOR_WORKERS``, else ``min(4, cpu_count)``."""
    env = os.environ.get("PCOR_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ExecutionError(
                f"PCOR_WORKERS must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ExecutionError(f"PCOR_WORKERS must be >= 1, got {workers}")
        return workers
    return max(1, min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1))


def chunk_evenly(items: Sequence, n_chunks: int) -> List[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-equal chunks.

    Contiguity keeps the reduce order canonical: concatenating the chunk
    results in chunk order reproduces the input order exactly.
    """
    n = len(items)
    if n == 0:
        return []
    n_chunks = max(1, min(int(n_chunks), n))
    quotient, remainder = divmod(n, n_chunks)
    out: List[list] = []
    start = 0
    for i in range(n_chunks):
        size = quotient + (1 if i < remainder else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


def plan_task_rngs(seeds: Sequence[RngLike]) -> List[SeedToken]:
    """One independent RNG substream token per task, by stable task key.

    The task key is the position in ``seeds`` (request order).  Seeds map to
    tokens as:

    * ``None`` — a fresh-entropy :class:`~numpy.random.SeedSequence` (the
      caller asked for nondeterminism);
    * ``int`` — ``SeedSequence(seed)``, which is exactly the stream
      ``default_rng(seed)`` would produce, so per-request integer seeds
      behave as they always did;
    * a shared :class:`~numpy.random.Generator` — one child spawned per
      occurrence, in order.  Spawning (rather than handing tasks the live
      object) is what makes the plan independent of execution order and
      worker count: the parent generator advances identically however the
      tasks are later scheduled.
    """
    tokens: List[SeedToken] = []
    for seed in seeds:
        if seed is None:
            tokens.append(np.random.SeedSequence())
        elif isinstance(seed, np.random.Generator):
            tokens.append(seed.spawn(1)[0])
        elif isinstance(seed, (int, np.integer)):
            tokens.append(np.random.SeedSequence(int(seed)))
        else:
            raise TypeError(
                f"seed must be None, an int, or a numpy Generator; got {type(seed)!r}"
            )
    return tokens


def rng_from_token(token: SeedToken) -> np.random.Generator:
    """Materialise the generator a task should draw from."""
    if isinstance(token, np.random.Generator):
        return token
    return np.random.default_rng(token)


class ExecutionBackend:
    """Where an engine runs its batches: inline, or over a pool of workers.

    Parameters
    ----------
    workers:
        Worker count; ``None`` reads ``PCOR_WORKERS`` and falls back to
        ``min(4, cpu_count)``.

    Class attributes
    ----------------
    parallel:
        True when tasks execute on a pool outside the calling thread: the
        engine then hands every batch of several requests to its
        ``run_releases``, and its verifiers fan uncached-profile batches of
        at least its ``min_profile_fanout`` contexts out to its
        ``run_profiles``.
    """

    name: str = "abstract"
    parallel: bool = False

    def __init__(self, workers: Optional[int] = None):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {self.workers}")
        self._stats_lock = threading.Lock()
        self.release_tasks = 0
        self.profile_tasks = 0

    def close(self) -> None:
        """Release pools and shared-memory resources (idempotent)."""

    # ------------------------------------------------------------- plumbing

    def _count(self, *, releases: int = 0, profiles: int = 0) -> None:
        with self._stats_lock:
            self.release_tasks += releases
            self.profile_tasks += profiles

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for :class:`~repro.service.engine.EngineMetrics`."""
        with self._stats_lock:
            return {
                "backend": self.name,
                "workers": self.workers,
                "release_tasks": self.release_tasks,
                "profile_tasks": self.profile_tasks,
            }

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"
