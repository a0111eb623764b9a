"""Neighbouring-dataset generation for OCDP experiments (Section 6.7).

Differential privacy reasons about datasets differing in one record
(add/remove).  The COE-match and group-privacy experiments of Section 6.7
need neighbours at Hamming distances Delta-D of 1, 5, 10 and 25, optionally
protecting the queried outlier record from removal (it must exist in both
datasets for ``COE_M(D, V)`` to be defined on both sides).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.data.table import Dataset
from repro.exceptions import DatasetError
from repro.rng import RngLike, ensure_rng


def remove_random_records(
    dataset: Dataset,
    delta: int,
    rng: RngLike = None,
    protected_ids: Sequence[int] = (),
) -> Dataset:
    """Remove ``delta`` uniformly random records, never touching ``protected_ids``."""
    gen = ensure_rng(rng)
    protected = {int(r) for r in protected_ids}
    candidates = [int(r) for r in dataset.ids if int(r) not in protected]
    if delta < 0:
        raise DatasetError(f"delta must be non-negative, got {delta}")
    if delta > len(candidates):
        raise DatasetError(
            f"cannot remove {delta} records: only {len(candidates)} unprotected"
        )
    chosen = gen.choice(len(candidates), size=delta, replace=False)
    return dataset.without_records([candidates[int(i)] for i in chosen])


def add_random_records(
    dataset: Dataset,
    delta: int,
    rng: RngLike = None,
) -> Dataset:
    """Append ``delta`` plausible records resampled from the dataset itself.

    Each new record copies the categorical values of a random existing record
    and draws its metric from a normal fit of that record's exact-context
    population (falling back to the global distribution when the context is
    tiny).  This keeps the neighbour realistic rather than adversarial.
    """
    gen = ensure_rng(rng)
    if delta < 0:
        raise DatasetError(f"delta must be non-negative, got {delta}")
    if delta == 0:
        return dataset
    if len(dataset) == 0:
        raise DatasetError("cannot resample records from an empty dataset")

    metric = dataset.metric
    global_mu = float(metric.mean())
    global_sd = float(metric.std()) or 1.0

    new_rows: List[Dict[str, object]] = []
    template_positions = gen.integers(0, len(dataset), size=delta)
    for pos in template_positions:
        rid = int(dataset.ids[int(pos)])
        template = dataset.record(rid)
        # Metric values of records sharing all categorical values.
        same = np.ones(len(dataset), dtype=bool)
        for attr in dataset.schema.attributes:
            codes = dataset.codes(attr.name)
            same &= codes == codes[int(pos)]
        local = metric[same]
        if local.size >= 5:
            mu, sd = float(local.mean()), float(local.std()) or global_sd
        else:
            mu, sd = global_mu, global_sd
        row: Dict[str, object] = {
            attr.name: template[attr.name] for attr in dataset.schema.attributes
        }
        row[dataset.schema.metric.name] = float(gen.normal(mu, sd))
        new_rows.append(row)
    return dataset.with_records(new_rows)


def neighboring_dataset(
    dataset: Dataset,
    delta: int = 1,
    mode: str = "remove",
    rng: RngLike = None,
    protected_ids: Sequence[int] = (),
) -> Dataset:
    """One neighbour at distance ``delta``: ``mode`` in {remove, add, mixed}."""
    gen = ensure_rng(rng)
    if mode == "remove":
        return remove_random_records(dataset, delta, gen, protected_ids)
    if mode == "add":
        return add_random_records(dataset, delta, gen)
    if mode == "mixed":
        n_remove = int(gen.integers(0, delta + 1))
        out = remove_random_records(dataset, n_remove, gen, protected_ids)
        return add_random_records(out, delta - n_remove, gen)
    raise DatasetError(f"unknown neighbour mode {mode!r}")
