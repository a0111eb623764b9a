"""Batched read-through memoisation for the engine's cache layers.

The overlap utility (intersection sizes in a plain dict) answers batches of
keyed queries this way: serve cached keys, deduplicate the distinct misses,
compute those in one batched pass, then fan the results back out to every
slot that asked.  :func:`gather_batched` is that coordination loop.  The
verifier follows the same steps but reads its :class:`ProfileStore` in one
locked batch (:meth:`ProfileStore.get_many`) instead of key by key.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TypeVar

K = TypeVar("K")
V = TypeVar("V")


def gather_batched(
    keys: Sequence[K],
    lookup: Callable[[K], Optional[V]],
    store: Callable[[K, V], None],
    compute_many: Callable[[List[K]], Sequence[V]],
) -> List[V]:
    """Answer a batch of queries through a memo, computing misses together.

    ``lookup`` returns the cached value or ``None``; each *distinct* missing
    key is looked up exactly once (so cache hit/miss counters see one miss
    per distinct key, however often it repeats in the batch), then
    ``compute_many`` receives the distinct misses in first-seen order and
    its results are ``store``d and fanned out.  Returns values aligned with
    ``keys``.
    """
    out: List[Optional[V]] = [None] * len(keys)
    miss_slots: Dict[K, List[int]] = {}
    for i, key in enumerate(keys):
        slots = miss_slots.get(key)
        if slots is not None:
            slots.append(i)
            continue
        value = lookup(key)
        if value is None:
            miss_slots[key] = [i]
        else:
            out[i] = value
    if miss_slots:
        misses = list(miss_slots)
        for key, value in zip(misses, compute_many(misses)):
            store(key, value)
            for slot in miss_slots[key]:
                out[slot] = value
    return out  # type: ignore[return-value]
