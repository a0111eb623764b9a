"""The thread backend: a shared-memory-by-construction worker pool.

Threads share the engine's verifiers, so the whole batch amortises one
profile store (the :class:`~repro.core.profiles.ProfileStore` and
:class:`~repro.mechanisms.accounting.PrivacyAccountant` are lock-protected
for exactly this).  The GIL limits the speedup to whatever fraction of the
work NumPy releases it for, but there is zero shipping cost and no second
copy of anything — the right trade for cache-heavy batches and modest
datasets.  Determinism is inherited from the per-task RNG substream plan;
thread scheduling cannot reorder anything because results are gathered by
task key.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

from repro.runtime.base import (
    ExecutionBackend,
    SeedToken,
    chunk_evenly,
    rng_from_token,
)


class ThreadBackend(ExecutionBackend):
    """Fan tasks out over a lazily created :class:`ThreadPoolExecutor`."""

    name = "thread"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._busy = threading.local()

    # ------------------------------------------------------------- plumbing

    @property
    def pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="pcor-worker"
                )
            return self._pool

    def inner_fanout_allowed(self) -> bool:
        # A release already running on this pool must not fan its profile
        # misses back onto the same (bounded) pool: with every worker busy
        # the inner tasks would never start.  Such tasks compute inline.
        return not getattr(self._busy, "active", False)

    def _guarded(self, fn: Callable, *args):
        self._busy.active = True
        try:
            return fn(*args)
        finally:
            self._busy.active = False

    # ------------------------------------------------------------- protocol

    def run_releases(self, engine, requests: Sequence, tokens: Sequence[SeedToken]) -> List:
        t0 = time.perf_counter()
        in_batch = engine._in_batch(requests)
        futures = [
            self.pool.submit(
                self._guarded, engine._outcome, request, rng_from_token(token), in_batch
            )
            for request, token in zip(requests, tokens)
        ]
        outcomes = [future.result() for future in futures]
        self._count(releases=len(outcomes), wall=time.perf_counter() - t0)
        return outcomes

    def run_profiles(self, verifier, misses: List[int]) -> List:
        t0 = time.perf_counter()
        chunks = chunk_evenly(misses, self.workers)
        futures = [
            self.pool.submit(self._guarded, verifier._profile_chunk, chunk)
            for chunk in chunks
        ]
        profiles: List = []
        for future in futures:
            profiles.extend(future.result())
        self._count(profiles=len(misses), wall=time.perf_counter() - t0)
        return profiles

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
