"""The reference file of Section 6.2.

The paper's evaluation normalises every PCOR output against the *maximum*
achievable utility, read from a precomputed reference file: "all possible
contexts in attr(R) accompanied with their associated utility, and the list
of outliers for each context".  Building it is exactly the cost of the
direct approach (three days at the paper's scale), so this module guards
enumeration size and supports JSON round-tripping so a build can be reused
across experiments.

A build profiles the valid contexts with one batched ``profiles`` call per
chunk (:mod:`repro.core.enumeration`), and ``max_utility`` scores a
record's matching contexts with one ``scores`` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.context.space import DEFAULT_ENUMERATION_LIMIT, ContextSpace
from repro.core.enumeration import chunked
from repro.core.utility import UtilityFunction
from repro.core.verification import OutlierVerifier
from repro.exceptions import EnumerationError
from repro.schema import Schema

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ContextEntry:
    """Reference data for one structurally valid context."""

    bits: int
    population_size: int
    outlier_ids: Tuple[int, ...]


class ReferenceFile:
    """Per-context population sizes and outlier sets for one dataset+detector."""

    def __init__(self, schema: Schema, entries: Dict[int, ContextEntry]):
        self.schema = schema
        self._entries = entries
        self._matching_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        verifier: OutlierVerifier,
        limit: Optional[int] = DEFAULT_ENUMERATION_LIMIT,
    ) -> "ReferenceFile":
        """Enumerate every structurally valid context and profile it, one
        :meth:`OutlierVerifier.profiles` call per chunk of contexts
        (:func:`~repro.core.enumeration.chunked`), in enumeration order."""
        space = ContextSpace(verifier.schema)
        entries: Dict[int, ContextEntry] = {}
        for chunk in chunked(space.enumerate_valid(limit=limit)):
            for bits, (pop, outliers) in zip(chunk, verifier.profiles(chunk)):
                entries[bits] = ContextEntry(
                    bits=bits,
                    population_size=pop,
                    outlier_ids=tuple(sorted(outliers)),
                )
        return cls(verifier.schema, entries)

    # ------------------------------------------------------------------ query

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bits: int) -> bool:
        return bits in self._entries

    def entry(self, bits: int) -> ContextEntry:
        try:
            return self._entries[bits]
        except KeyError:
            raise EnumerationError(
                f"context {bits:#x} not in reference (not structurally valid?)"
            ) from None

    def population_size(self, bits: int) -> int:
        return self.entry(bits).population_size

    def outlier_records(self) -> List[int]:
        """Record ids that are outliers in at least one context, sorted."""
        seen = set()
        for entry in self._entries.values():
            seen.update(entry.outlier_ids)
        return sorted(seen)

    def matching_contexts(self, record_id: int) -> Tuple[int, ...]:
        """All contexts whose outlier list contains ``record_id`` (= COE_M)."""
        cached = self._matching_cache.get(record_id)
        if cached is None:
            cached = tuple(
                sorted(
                    bits
                    for bits, entry in self._entries.items()
                    if record_id in entry.outlier_ids
                )
            )
            self._matching_cache[record_id] = cached
        return cached

    def coe(self, record_id: int) -> FrozenSet[int]:
        return frozenset(self.matching_contexts(record_id))

    def max_population_utility(self, record_id: int) -> float:
        """Maximum-context population size for ``record_id`` (Definition 3.3)."""
        matching = self.matching_contexts(record_id)
        if not matching:
            return 0.0
        return float(max(self._entries[b].population_size for b in matching))

    def max_utility(self, record_id: int, utility: UtilityFunction) -> float:
        """Maximum of an arbitrary utility over ``record_id``'s matching contexts."""
        matching = self.matching_contexts(record_id)
        if not matching:
            return float("-inf")
        return float(utility.scores(matching).max())

    # ------------------------------------------------------------------- I/O

    def to_json(self, path: PathLike) -> None:
        """Serialise to a JSON file (schema + entries)."""
        payload = {
            "schema": self.schema.to_dict(),
            "entries": [
                {
                    "bits": e.bits,
                    "population_size": e.population_size,
                    "outlier_ids": list(e.outlier_ids),
                }
                for e in self._entries.values()
            ],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: PathLike) -> "ReferenceFile":
        payload = json.loads(Path(path).read_text())
        schema = Schema.from_dict(payload["schema"])
        entries = {
            int(e["bits"]): ContextEntry(
                bits=int(e["bits"]),
                population_size=int(e["population_size"]),
                outlier_ids=tuple(int(r) for r in e["outlier_ids"]),
            )
            for e in payload["entries"]
        }
        return cls(schema, entries)
