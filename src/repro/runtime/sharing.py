"""Shared-memory transport of a dataset and its packed mask matrix.

The process backend must not pickle the dataset into every task: the record
codes, ids, metric column and the bit-packed ``t x ceil(n/64)`` uint64
predicate-mask matrix are written into **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment per index
snapshot: at pool start, and again after a live append.  Workers attach the
segment in their initializer (or on the first task carrying a newer one) and
rebuild a :class:`~repro.data.table.Dataset` plus a
:class:`~repro.data.masks.PredicateMaskIndex` whose packed matrix is a
zero-copy read-only view straight into the segment — the single largest
shared structure never exists twice per worker.

Ownership: the exporting (parent) process is the only one that ever
unlinks.  Workers unregister their attachment from the resource tracker so
a worker crash or exit cannot tear the segment down under its siblings;
:meth:`SharedDatasetExport.close` is idempotent and also runs via a
``weakref.finalize`` on the owning backend, so segments are reclaimed even
when ``close()`` is never called explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from repro.data.masks import IndexSnapshot, PredicateMaskIndex
from repro.data.table import Dataset
from repro.schema import Schema

#: layout entry: (byte offset, shape, dtype string)
ArraySpec = Tuple[int, Tuple[int, ...], str]


@dataclass(frozen=True)
class SharedDatasetHandle:
    """Everything a worker needs to attach: segment name, layout, schema.

    ``dataset_version`` is the append counter of the mask index the export
    snapshotted; workers use it to decide whether a task's handle is newer
    than the segment they are currently attached to (live rebind after a
    dataset append) — versions are monotone, so a plain ``>`` suffices.
    """

    shm_name: str
    layout: Dict[str, ArraySpec]
    schema: Schema
    dataset_version: int = 0


def _codes_key(attr_name: str) -> str:
    return f"codes:{attr_name}"


class SharedDatasetExport:
    """Parent-side owner of one index snapshot's shared-memory segment.

    Rows, packed matrix and version all come from the one ``snapshot``, so
    an append committed after it was taken cannot pair new rows with an old
    matrix or version, or old rows with a new one.
    """

    def __init__(self, snapshot: IndexSnapshot):
        dataset = snapshot.dataset
        schema = dataset.schema
        arrays: Dict[str, np.ndarray] = {
            _codes_key(attr.name): dataset.codes(attr.name)
            for attr in schema.attributes
        }
        arrays["ids"] = dataset.ids
        arrays["metric"] = dataset.metric
        arrays["masks"] = snapshot.packed

        layout: Dict[str, ArraySpec] = {}
        offset = 0
        for name, arr in arrays.items():
            offset = -(-offset // 8) * 8  # 8-byte alignment for every block
            layout[name] = (offset, tuple(arr.shape), arr.dtype.str)
            offset += arr.nbytes

        self.shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for name, arr in arrays.items():
            off, shape, dtype = layout[name]
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.shm.buf, offset=off)
            view[...] = arr

        self.handle = SharedDatasetHandle(
            shm_name=self.shm.name,
            layout=layout,
            schema=schema,
            dataset_version=snapshot.version,
        )
        self.nbytes = max(1, offset)
        self._closed = False

    def close(self) -> None:
        """Unlink the segment (idempotent; safe while workers are attached —
        POSIX keeps the memory alive until the last attachment closes)."""
        if self._closed:
            return
        self._closed = True
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedDatasetExport(name={self.shm.name!r}, bytes={self.nbytes}, "
            f"closed={self._closed})"
        )


def attach_shared_dataset(
    handle: SharedDatasetHandle,
) -> Tuple[Dataset, PredicateMaskIndex, shared_memory.SharedMemory]:
    """Worker-side rebuild of the dataset and mask index from a handle.

    The returned :class:`SharedMemory` must stay referenced for as long as
    the mask index lives: its packed matrix is a zero-copy view into the
    segment.  (The dataset's own columns are validated copies.)

    Tracker note: spawned workers share the parent's resource tracker, and
    the tracker's registry is a *set*, so every worker's attach-time
    registration dedupes against the exporter's own.  The single unregister
    in :meth:`SharedDatasetExport.close` therefore balances them all —
    workers never unlink and never unregister.
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)

    def view(name: str) -> np.ndarray:
        off, shape, dtype = handle.layout[name]
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
        arr.flags.writeable = False
        return arr

    schema = handle.schema
    codes = {attr.name: view(_codes_key(attr.name)) for attr in schema.attributes}
    dataset = Dataset.from_codes(schema, codes, view("metric"), ids=view("ids"))
    masks = PredicateMaskIndex.from_packed(
        dataset, view("masks"), dataset_version=handle.dataset_version
    )
    return dataset, masks, shm
