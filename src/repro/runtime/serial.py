"""The serial backend: in-process, single-worker execution (the default).

This is the reference implementation of the determinism contract — every
other backend must produce bit-identical releases to it for the same seed.
It is not parallel, so it runs no task itself: the engine executes a batch
inline in task-key order, so there is no pool, no shipping, and no
cleanup.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.base import ExecutionBackend


class SerialBackend(ExecutionBackend):
    """Run every task inline, in canonical order, on the calling thread."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None):
        # A serial backend has exactly one (implicit) worker regardless of
        # what was asked for; accepting the argument keeps make_backend's
        # constructor call uniform.
        super().__init__(workers=1)
