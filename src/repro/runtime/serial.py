"""The serial backend: in-process, single-worker execution (the default).

This is the reference implementation of the determinism contract — every
other backend must produce bit-identical releases to it for the same seed.
It executes tasks inline in task-key order, so there is no pool, no
shipping, and no cleanup.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.runtime.base import ExecutionBackend, SeedToken, rng_from_token


class SerialBackend(ExecutionBackend):
    """Run every task inline, in canonical order, on the calling thread."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None):
        # A serial backend has exactly one (implicit) worker regardless of
        # what was asked for; accepting the argument keeps make_backend's
        # constructor call uniform.
        super().__init__(workers=1)

    def run_releases(self, engine, requests: Sequence, tokens: Sequence[SeedToken]) -> List:
        t0 = time.perf_counter()
        in_batch = engine._in_batch(requests)
        outcomes = [
            engine._outcome(request, rng_from_token(token), in_batch)
            for request, token in zip(requests, tokens)
        ]
        self._count(releases=len(outcomes), wall=time.perf_counter() - t0)
        return outcomes

    def run_profiles(self, verifier, misses: List[int]) -> List:
        t0 = time.perf_counter()
        profiles = verifier._profile_chunk(misses)
        self._count(profiles=len(misses), wall=time.perf_counter() - t0)
        return profiles
