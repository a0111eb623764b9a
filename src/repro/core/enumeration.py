"""Contextual Outlier Enumeration ``COE_M`` (Definition 3.1).

``COE_M(D, V)`` is the set of *all* matching contexts of ``V``: contexts
containing ``V`` in which the detector flags ``V``.  It defines both the
candidate set of the direct approach (Algorithm 1) and the constraint
function of OCDP (f-neighbours share the same ``COE_M`` output).

The enumeration is exponential in ``t - m`` by nature — that's the paper's
whole complexity argument — so it is only runnable at reduced schema sizes,
guarded by the context-space enumeration limits.

Every enumeration of the context space reaches the verifier in chunks of
:data:`CHUNK_SIZE` contexts (:func:`chunked`), in enumeration order:
``COE_M`` here, and with it Algorithm 1's pool (:mod:`repro.core.direct`),
asks one ``is_matching_many`` per chunk, and the reference file
(:mod:`repro.core.reference`) one ``profiles``.  The verifier computes and
counts each context as a per-context loop would.
"""

from __future__ import annotations

from itertools import compress, islice
from typing import FrozenSet, Iterable, Iterator, List, Optional

from repro.context.context import Context
from repro.context.space import DEFAULT_ENUMERATION_LIMIT, ContextSpace
from repro.core.verification import OutlierVerifier
from repro.exceptions import VerificationError

#: Contexts per batched verifier call; a chunk's packed population masks
#: stay a few MB at n = 20k.
CHUNK_SIZE = 1024


def chunked(contexts: Iterable[Context]) -> Iterator[List[int]]:
    """The bitmasks of ``contexts``, in order, in lists of :data:`CHUNK_SIZE`."""
    it = iter(contexts)
    while chunk := [ctx.bits for ctx in islice(it, CHUNK_SIZE)]:
        yield chunk


class COEEnumerator:
    """Full enumeration of matching contexts for records of one dataset."""

    def __init__(self, verifier: OutlierVerifier):
        self.verifier = verifier
        self.space = ContextSpace(verifier.schema)

    def iter_matching(
        self, record_id: int, limit: Optional[int] = DEFAULT_ENUMERATION_LIMIT
    ) -> Iterator[int]:
        """Yield the bitmask of every matching context of ``record_id``, in
        enumeration order.

        Only supersets of the record's own bits are enumerated — a context
        that does not contain ``V`` cannot match — which cuts the loop from
        ``2^t`` to ``2^(t-m)`` without changing the result.  Each chunk of
        them is tested in one :meth:`OutlierVerifier.is_matching_many` call.
        """
        if not self.verifier.dataset.has_record(record_id):
            raise VerificationError(f"record {record_id} not in dataset")
        record_bits = self.verifier.dataset.record_bits(record_id)
        containing = self.space.enumerate_containing(record_bits, limit=limit)
        for chunk in chunked(containing):
            yield from compress(chunk, self.verifier.is_matching_many(chunk, record_id))

    def coe(
        self, record_id: int, limit: Optional[int] = DEFAULT_ENUMERATION_LIMIT
    ) -> FrozenSet[int]:
        """``COE_M(D, V)`` as a frozen set of context bitmasks."""
        return frozenset(self.iter_matching(record_id, limit=limit))

    def matching_contexts(
        self, record_id: int, limit: Optional[int] = DEFAULT_ENUMERATION_LIMIT
    ) -> List[int]:
        """Matching contexts in deterministic (ascending bitmask) order."""
        return sorted(self.iter_matching(record_id, limit=limit))
