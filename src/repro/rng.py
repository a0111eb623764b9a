"""Randomness plumbing.

All stochastic behaviour in the library flows through
:class:`numpy.random.Generator` objects.  Public entry points accept either a
``Generator``, an integer seed, or ``None`` and normalise through
:func:`ensure_rng`; internal components receive the resulting generator
explicitly so that every experiment is reproducible from a single seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` (fresh non-deterministic generator), an ``int`` seed, or an
        existing ``Generator`` (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"rng must be None, an int seed, or a numpy Generator; got {type(rng)!r}"
    )


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Used by the experiment harness so that repetition ``i`` of an experiment
    sees the same random stream regardless of how many repetitions run.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]
