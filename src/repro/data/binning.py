"""Discretisation of numeric attributes into categorical context attributes.

The paper's contexts range over predicates on "categorical or numerical"
attributes (Section 3) — its motivating example contains the numeric
predicate ``|Employees| < 2000``.  The context machinery here is
categorical, so numeric context attributes enter through *binning*: a
numeric column is converted into an ordered categorical attribute whose
domain values are interval labels (``"[0, 2000)"`` ...), after which every
piece of the pipeline (bitmaps, graph search, utilities) applies unchanged.

Because a context selects an arbitrary *subset* of bins (disjunction within
the attribute), binned numeric attributes express unions of intervals —
strictly more general than the paper's single-threshold example.

Two strategies:

* ``equal_width`` — fixed-width intervals over [min, max];
* ``quantile``   — equal-population intervals (robust to skew).

Bin edges are part of the *schema*, not the data: like categorical domains
(Section 4), they must be chosen from public knowledge or a sanitised prior
release, not tuned per-dataset, or the edges themselves leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.data.table import Dataset
from repro.exceptions import DatasetError, SchemaError
from repro.schema import CategoricalAttribute, Schema


def _format_edge(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


@dataclass(frozen=True)
class BinSpec:
    """An ordered set of interval bins for one numeric column.

    ``edges`` has ``n_bins + 1`` strictly increasing entries; bin ``j``
    covers ``[edges[j], edges[j+1])`` except the last bin, which is closed
    on the right so the maximum value belongs somewhere.
    """

    name: str
    edges: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise SchemaError(f"bin spec {self.name!r} needs at least 2 edges")
        diffs = np.diff(np.asarray(self.edges, dtype=np.float64))
        if not (diffs > 0).all():
            raise SchemaError(
                f"bin spec {self.name!r} edges must be strictly increasing"
            )

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def labels(self) -> List[str]:
        """Human-readable interval labels, in bin order."""
        out = []
        for j in range(self.n_bins):
            lo, hi = _format_edge(self.edges[j]), _format_edge(self.edges[j + 1])
            closer = "]" if j == self.n_bins - 1 else ")"
            out.append(f"[{lo}, {hi}{closer}")
        return out

    def assign(self, values: Sequence[float]) -> np.ndarray:
        """Bin index per value; raises if any value falls outside the edges."""
        arr = np.asarray(values, dtype=np.float64)
        lo, hi = self.edges[0], self.edges[-1]
        if ((arr < lo) | (arr > hi)).any():
            bad = arr[(arr < lo) | (arr > hi)][0]
            raise DatasetError(
                f"value {bad} outside bin range [{lo}, {hi}] of {self.name!r}"
            )
        idx = np.searchsorted(np.asarray(self.edges), arr, side="right") - 1
        return np.clip(idx, 0, self.n_bins - 1).astype(np.int64)

    def to_attribute(self) -> CategoricalAttribute:
        """The categorical attribute this spec induces."""
        return CategoricalAttribute(self.name, self.labels())

    # ----------------------------------------------------------- constructors

    @classmethod
    def equal_width(
        cls, name: str, low: float, high: float, n_bins: int
    ) -> "BinSpec":
        """Fixed-width bins over a *publicly known* range."""
        if n_bins < 1:
            raise SchemaError(f"n_bins must be >= 1, got {n_bins}")
        if not low < high:
            raise SchemaError(f"need low < high, got [{low}, {high}]")
        edges = np.linspace(low, high, n_bins + 1)
        return cls(name, tuple(float(e) for e in edges))

    @classmethod
    def quantile(
        cls, name: str, values: Sequence[float], n_bins: int
    ) -> "BinSpec":
        """Equal-population bins fit on ``values``.

        Privacy note: fitting edges on the private data itself leaks; use
        this on public/sanitised data, or treat the resulting schema as part
        of the privacy budget.
        """
        if n_bins < 1:
            raise SchemaError(f"n_bins must be >= 1, got {n_bins}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.size < n_bins + 1:
            raise SchemaError(
                f"need at least {n_bins + 1} values to fit {n_bins} quantile bins"
            )
        qs = np.linspace(0.0, 1.0, n_bins + 1)
        edges = np.quantile(arr, qs)
        edges = np.unique(edges)
        if len(edges) < 2:
            raise SchemaError("values are constant; cannot fit quantile bins")
        return cls(name, tuple(float(e) for e in edges))


def bin_numeric_column(
    dataset: Dataset,
    column_values: Sequence[float],
    spec: BinSpec,
) -> Dataset:
    """Extend ``dataset`` with a binned numeric column as a new attribute.

    Returns a new dataset over an extended schema: the original categorical
    attributes plus ``spec``'s interval attribute (appended last, so
    existing context bit layouts are prefixes of the new one).
    """
    if len(column_values) != len(dataset):
        raise DatasetError(
            f"column has {len(column_values)} values, dataset has {len(dataset)}"
        )
    for attr in dataset.schema.attributes:
        if attr.name == spec.name:
            raise SchemaError(f"attribute {spec.name!r} already exists in schema")

    idx = spec.assign(column_values)
    labels = spec.labels()
    new_schema = Schema(
        attributes=list(dataset.schema.attributes) + [spec.to_attribute()],
        metric=dataset.schema.metric,
    )
    columns = {
        attr.name: [
            attr.domain[int(c)] for c in dataset.codes(attr.name)
        ]
        for attr in dataset.schema.attributes
    }
    columns[spec.name] = [labels[int(j)] for j in idx]
    return Dataset(new_schema, columns, dataset.metric, ids=dataset.ids)
