"""A small column-store relational table.

The paper treats the dataset as a relation with categorical attributes and
one numeric metric column.  PCOR only ever touches the data through two
operations — filter records by a context, and read the metric values of the
filtered population — so the substrate is a column store:

* each categorical column is an ``int16`` array of domain-value codes,
* the metric column is a ``float64`` array,
* per-predicate boolean masks (see :mod:`repro.data.masks`) make context
  filtering a handful of vectorised OR/AND passes.

Records are identified by *stable record ids* (the ``ids`` array) which
survive record removal/addition; positions (row indices) do not.  Everything
that crosses dataset versions — neighbouring datasets in particular — speaks
record ids, never positions.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DatasetError, SchemaError
from repro.schema import Schema


class Dataset:
    """An immutable dataset instance ``D`` of a schema ``R``.

    Parameters
    ----------
    schema:
        The relational schema (categorical attributes + metric).
    columns:
        Mapping from categorical attribute name to a sequence of values.
    metric_values:
        The numeric metric column, same length as every categorical column.
    ids:
        Optional stable record ids.  Defaults to ``0..n-1``.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, Sequence[str]],
        metric_values: Sequence[float],
        ids: Optional[Sequence[int]] = None,
    ):
        self.schema = schema
        metric = self._coerce_metric(metric_values)
        n = metric.shape[0]

        codes: Dict[str, np.ndarray] = {}
        for attr in schema.attributes:
            if attr.name not in columns:
                raise DatasetError(f"missing column for attribute {attr.name!r}")
            raw = columns[attr.name]
            if len(raw) != n:
                raise DatasetError(
                    f"column {attr.name!r} has {len(raw)} rows, metric has {n}"
                )
            col = np.empty(n, dtype=np.int16)
            lookup = {v: j for j, v in enumerate(attr.domain)}
            for row, value in enumerate(raw):
                try:
                    col[row] = lookup[str(value)]
                except KeyError:
                    raise DatasetError(
                        f"row {row}: value {value!r} not in domain of {attr.name!r}"
                    ) from None
            codes[attr.name] = col

        self._finish_init(codes, metric, ids)

    @staticmethod
    def _coerce_metric(metric_values: Sequence[float]) -> np.ndarray:
        """Validated *fresh copy* of the metric column (never aliases input)."""
        metric = np.array(metric_values, dtype=np.float64)
        if metric.ndim != 1:
            raise DatasetError("metric column must be one-dimensional")
        if not np.all(np.isfinite(metric)):
            raise DatasetError("metric column contains non-finite values")
        return metric

    def _finish_init(
        self,
        codes: Dict[str, np.ndarray],
        metric: np.ndarray,
        ids: Optional[Sequence[int]],
    ) -> None:
        """Shared tail of construction once code arrays exist."""
        n = metric.shape[0]
        if ids is None:
            id_arr = np.arange(n, dtype=np.int64)
        else:
            # Fresh copy: the ids array must not alias caller memory either.
            id_arr = np.array(ids, dtype=np.int64)
            if id_arr.shape != (n,):
                raise DatasetError("ids must have one entry per record")
            if len(np.unique(id_arr)) != n:
                raise DatasetError("record ids must be unique")

        self._codes = codes
        self._metric = metric
        self._ids = id_arr
        self._id_to_pos = {int(rid): pos for pos, rid in enumerate(id_arr)}
        # Smallest id guaranteed never to have been used. Propagated through
        # without_records/with_records so removed ids are never resurrected
        # (record identity must be stable across neighbouring datasets).
        self._id_ceiling = int(id_arr.max()) + 1 if n else 0
        # Precompute per-record "exact context" bits and the metric order
        # lazily.
        self._record_bits_cache: Optional[np.ndarray] = None
        self._metric_order: Optional[np.ndarray] = None
        self._metric_ranks: Optional[np.ndarray] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_codes(
        cls,
        schema: Schema,
        codes: Mapping[str, np.ndarray],
        metric_values: Sequence[float],
        ids: Optional[Sequence[int]] = None,
    ) -> "Dataset":
        """Build a dataset directly from integer domain-code arrays.

        The fast constructor behind every dataset rebuild
        (:meth:`without_positions`, :meth:`with_records`): no per-cell
        string round-trip, just vectorised range checks on the code arrays.
        """
        obj = cls.__new__(cls)
        obj.schema = schema
        metric = cls._coerce_metric(metric_values)
        n = metric.shape[0]
        checked: Dict[str, np.ndarray] = {}
        for attr in schema.attributes:
            if attr.name not in codes:
                raise DatasetError(f"missing column for attribute {attr.name!r}")
            raw = np.asarray(codes[attr.name])
            if raw.shape != (n,):
                raise DatasetError(
                    f"column {attr.name!r} has "
                    f"{raw.shape[0] if raw.ndim == 1 else raw.shape} rows, "
                    f"metric has {n}"
                )
            if raw.size and not np.issubdtype(raw.dtype, np.integer):
                raise DatasetError(
                    f"column {attr.name!r} codes must be an integer array, "
                    f"got dtype {raw.dtype}"
                )
            # Validate on the original values *before* the int16 cast, so
            # out-of-range codes fail loudly instead of wrapping into valid
            # ones; astype then yields a fresh copy (datasets are immutable,
            # so the caller's array must never alias our column).
            if n and ((raw < 0) | (raw >= len(attr))).any():
                raise DatasetError(
                    f"column {attr.name!r} has codes outside domain of size {len(attr)}"
                )
            checked[attr.name] = raw.astype(np.int16)
        obj._finish_init(checked, metric, ids)
        return obj

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Iterable[Mapping[str, object]],
        ids: Optional[Sequence[int]] = None,
    ) -> "Dataset":
        """Build a dataset from row dictionaries including the metric column."""
        rows = list(records)
        columns: Dict[str, List[str]] = {a.name: [] for a in schema.attributes}
        metric: List[float] = []
        for row in rows:
            for attr in schema.attributes:
                if attr.name not in row:
                    raise DatasetError(f"record missing attribute {attr.name!r}")
                columns[attr.name].append(str(row[attr.name]))
            if schema.metric.name not in row:
                raise DatasetError(f"record missing metric {schema.metric.name!r}")
            metric.append(float(row[schema.metric.name]))  # type: ignore[arg-type]
        return cls(schema, columns, metric, ids=ids)

    # ----------------------------------------------------------------- basics

    def __len__(self) -> int:
        return int(self._metric.shape[0])

    @property
    def n_records(self) -> int:
        return len(self)

    @property
    def ids(self) -> np.ndarray:
        """Stable record ids, aligned with row positions (read-only view)."""
        view = self._ids.view()
        view.flags.writeable = False
        return view

    @property
    def metric(self) -> np.ndarray:
        """The metric column (read-only view)."""
        view = self._metric.view()
        view.flags.writeable = False
        return view

    def codes(self, attribute: str) -> np.ndarray:
        """Domain-value codes of a categorical column (read-only view)."""
        if attribute not in self._codes:
            raise DatasetError(f"no categorical column {attribute!r}")
        view = self._codes[attribute].view()
        view.flags.writeable = False
        return view

    def position_of(self, record_id: int) -> int:
        """Row position of a stable record id."""
        try:
            return self._id_to_pos[int(record_id)]
        except KeyError:
            raise DatasetError(f"no record with id {record_id}") from None

    def has_record(self, record_id: int) -> bool:
        return int(record_id) in self._id_to_pos

    def record(self, record_id: int) -> Dict[str, object]:
        """Materialise one record (attribute values + metric) by id."""
        pos = self.position_of(record_id)
        row: Dict[str, object] = {}
        for attr in self.schema.attributes:
            row[attr.name] = attr.domain[int(self._codes[attr.name][pos])]
        row[self.schema.metric.name] = float(self._metric[pos])
        return row

    def iter_records(self) -> Iterable[Tuple[int, Dict[str, object]]]:
        """Yield ``(record_id, record_dict)`` pairs in row order."""
        for rid in self._ids:
            yield int(rid), self.record(int(rid))

    # ----------------------------------------------------------- context bits

    def record_bits(self, record_id: int) -> int:
        """Exact-context bitmask of record ``record_id`` (see Schema.record_bits)."""
        all_bits = self.all_record_bits()
        return int(all_bits[self.position_of(record_id)])

    def all_record_bits(self) -> np.ndarray:
        """Exact-context bitmask of every record as an ``object`` array of ints.

        One shift-table lookup plus one OR per attribute; the per-record
        loop happens inside NumPy's object-array dispatch, never in Python.
        (``object`` dtype because ``t`` can exceed 64 bits.)
        """
        if self._record_bits_cache is None:
            bits = np.zeros(len(self), dtype=np.object_)
            for off, attr in zip(self.schema.offsets, self.schema.attributes):
                shifts = np.array(
                    [1 << (off + j) for j in range(len(attr))], dtype=np.object_
                )
                bits = bits | shifts[self._codes[attr.name]]
            self._record_bits_cache = bits
        return self._record_bits_cache

    def metric_order(self) -> np.ndarray:
        """Row positions in ascending metric order (stable: ties keep row
        order), computed once per dataset object (read-only).

        Restricted to any population, this is the stable sort of that
        population's values in record order, so detectors that want sorted
        input (``OutlierDetector.sorted_input``) can be handed their
        populations already sorted, with no per-population sort.
        """
        if self._metric_order is None:
            order = np.argsort(self._metric, kind="stable")
            order.flags.writeable = False
            self._metric_order = order
        return self._metric_order

    def metric_rank(self, record_id: int) -> int:
        """The record's index in :meth:`metric_order` (O(1) after the
        inverse order is computed, once per dataset object)."""
        ranks = self._metric_ranks
        if ranks is None:
            ranks = np.empty(len(self), dtype=np.int64)
            ranks[self.metric_order()] = np.arange(len(self))
            self._metric_ranks = ranks
        return int(ranks[self.position_of(record_id)])

    # ------------------------------------------------------------- mutations
    # Datasets are immutable; "mutations" return new Dataset objects that
    # preserve stable ids. These back the neighbouring-dataset machinery.

    def without_positions(self, positions: Sequence[int]) -> "Dataset":
        """A new dataset with the given row positions removed."""
        drop = set(int(p) for p in positions)
        for p in drop:
            if not 0 <= p < len(self):
                raise DatasetError(f"position {p} out of range")
        keep_mask = np.ones(len(self), dtype=bool)
        keep_mask[list(drop)] = False
        keep = np.flatnonzero(keep_mask)
        out = Dataset.from_codes(
            self.schema,
            {name: col[keep] for name, col in self._codes.items()},
            self._metric[keep],
            ids=self._ids[keep],
        )
        out._id_ceiling = max(out._id_ceiling, self._id_ceiling)
        return out

    def without_records(self, record_ids: Sequence[int]) -> "Dataset":
        """A new dataset with the given stable record ids removed."""
        return self.without_positions([self.position_of(r) for r in record_ids])

    def with_records(
        self, records: Iterable[Mapping[str, object]], start_id: Optional[int] = None
    ) -> "Dataset":
        """A new dataset with extra records appended (fresh stable ids)."""
        rows = list(records)
        if not rows:
            return self
        next_id = self._id_ceiling
        if start_id is not None:
            next_id = max(next_id, int(start_id))
        # Only the appended rows go through domain-value lookup; the existing
        # records are carried over as raw code arrays.
        new_codes: Dict[str, np.ndarray] = {}
        for attr in self.schema.attributes:
            lookup = {v: j for j, v in enumerate(attr.domain)}
            col = np.empty(len(rows), dtype=np.int16)
            for i, row in enumerate(rows):
                if attr.name not in row:
                    raise DatasetError(f"record missing attribute {attr.name!r}")
                value = str(row[attr.name])
                try:
                    col[i] = lookup[value]
                except KeyError:
                    raise DatasetError(
                        f"row {i}: value {value!r} not in domain of {attr.name!r}"
                    ) from None
            new_codes[attr.name] = np.concatenate([self._codes[attr.name], col])
        new_metric = np.array(
            [float(row[self.schema.metric.name]) for row in rows],  # type: ignore[arg-type]
            dtype=np.float64,
        )
        new_ids = np.arange(next_id, next_id + len(rows), dtype=np.int64)
        return Dataset.from_codes(
            self.schema,
            new_codes,
            np.concatenate([self._metric, new_metric]),
            ids=np.concatenate([self._ids, new_ids]),
        )

    #: Appends stack one small id-map layer per call; past this depth the
    #: layers are flattened into one dict so lookups stay O(1).
    _ID_MAP_MAX_DEPTH = 8

    def append(self, records: Iterable[Mapping[str, object]]) -> "Dataset":
        """O(k) append for the live pipeline — bit-identical to
        :meth:`with_records`, without its O(n) re-validation.

        Datasets are immutable: appending returns a *new* dataset sharing
        the schema, with fresh stable ids for the new rows.  Only the ``k``
        appended rows are validated (domain lookup, finite metric); the
        base's columns are carried over by concatenation, its id index is
        *shared* through a chained mapping (appended ids are fresh by the
        id-ceiling invariant, so layers can never collide), and a warmed
        record-bits cache is extended rather than recomputed.  The live path
        (:meth:`repro.service.engine.ReleaseEngine.append`) rides on this to
        grow the served dataset without O(n) per-append work.
        """
        rows = list(records)
        if not rows:
            return self
        k = len(rows)
        old_n = len(self)
        next_id = self._id_ceiling

        tail_codes: Dict[str, np.ndarray] = {}
        for attr in self.schema.attributes:
            lookup = {v: j for j, v in enumerate(attr.domain)}
            col = np.empty(k, dtype=np.int16)
            for i, row in enumerate(rows):
                if attr.name not in row:
                    raise DatasetError(f"record missing attribute {attr.name!r}")
                value = str(row[attr.name])
                try:
                    col[i] = lookup[value]
                except KeyError:
                    raise DatasetError(
                        f"row {i}: value {value!r} not in domain of {attr.name!r}"
                    ) from None
            tail_codes[attr.name] = col
        metric_name = self.schema.metric.name
        for i, row in enumerate(rows):
            if metric_name not in row:
                raise DatasetError(f"row {i}: record missing metric {metric_name!r}")
        tail_metric = np.array(
            [float(row[metric_name]) for row in rows],  # type: ignore[arg-type]
            dtype=np.float64,
        )
        if not np.all(np.isfinite(tail_metric)):
            raise DatasetError("metric column contains non-finite values")
        tail_ids = np.arange(next_id, next_id + k, dtype=np.int64)

        out = Dataset.__new__(Dataset)
        out.schema = self.schema
        out._codes = {
            name: np.concatenate([self._codes[name], tail_codes[name]])
            for name in self._codes
        }
        out._metric = np.concatenate([self._metric, tail_metric])
        out._ids = np.concatenate([self._ids, tail_ids])
        tail_map = {int(rid): old_n + i for i, rid in enumerate(tail_ids)}
        base_map = self._id_to_pos
        if isinstance(base_map, ChainMap):
            if len(base_map.maps) >= self._ID_MAP_MAX_DEPTH:
                flat = dict(base_map)
                flat.update(tail_map)
                out._id_to_pos = flat
            else:
                out._id_to_pos = ChainMap(tail_map, *base_map.maps)
        else:
            out._id_to_pos = ChainMap(tail_map, base_map)
        out._id_ceiling = next_id + k
        if self._record_bits_cache is not None:
            tail_bits = np.zeros(k, dtype=np.object_)
            for off, attr in zip(self.schema.offsets, self.schema.attributes):
                shifts = np.array(
                    [1 << (off + j) for j in range(len(attr))], dtype=np.object_
                )
                tail_bits = tail_bits | shifts[tail_codes[attr.name]]
            out._record_bits_cache = np.concatenate(
                [self._record_bits_cache, tail_bits]
            )
        else:
            out._record_bits_cache = None
        # Appended values land anywhere in the order: recompute on demand.
        out._metric_order = None
        out._metric_ranks = None
        return out

    # ------------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(n={len(self)}, attrs="
            f"{[a.name for a in self.schema.attributes]}, "
            f"metric={self.schema.metric.name!r})"
        )
