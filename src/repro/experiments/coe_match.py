"""Tables 12 & 13 — COE match between a dataset and its neighbours (§6.7).

OCDP's constraint is ``COE_M(D1, V) = COE_M(D2, V)``; this experiment
measures how often it actually holds.  For each group-privacy distance
``Delta-D`` we draw random neighbouring datasets (removing ``Delta-D``
records, never the queried outliers), rebuild the full context reference on
the neighbour, and report the mean set-match between ``COE_M(D, V)`` and
``COE_M(D', V)`` over random outliers — quantified as Jaccard similarity,
expressed as a percentage like the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.reference import ReferenceFile
from repro.core.verification import OutlierVerifier
from repro.data.neighbors import remove_random_records
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.harness import Workbench
from repro.experiments.tables import DETECTOR_KWARGS, TableResult
from repro.mechanisms.ocdp import set_match_fraction
from repro.rng import RngLike, ensure_rng, spawn


@dataclass
class COEMatchResult:
    """Match percentages per detector per Delta-D."""

    dataset_name: str
    deltas: Sequence[int]
    #: detector -> list of mean match fractions aligned with ``deltas``.
    match_by_detector: Dict[str, List[float]] = field(default_factory=dict)

    def to_table(self, table_id: str, notes: str = "") -> TableResult:
        headers = ["Algorithm"] + [f"dD = {d}" for d in self.deltas]
        rows = []
        for detector, fractions in self.match_by_detector.items():
            rows.append([detector] + [f"{100 * f:.1f}%" for f in fractions])
        title = f"COE Match - {self.dataset_name}"
        return TableResult(table_id, title, headers, rows, notes)


def coe_match_for_detector(
    bench: Workbench,
    deltas: Sequence[int],
    n_neighbors: int,
    n_outliers: int,
    rng: RngLike = None,
) -> List[float]:
    """Mean COE match fraction per Delta-D for one dataset + detector."""
    gen = ensure_rng(rng)
    outliers = bench.pick_outliers(n_outliers, gen, min_matching_contexts=1)
    fractions: List[float] = []
    for delta in deltas:
        neighbor_rngs = spawn(gen, n_neighbors)
        per_neighbor: List[float] = []
        for nb_rng in neighbor_rngs:
            neighbor = remove_random_records(
                bench.dataset, delta, nb_rng, protected_ids=outliers
            )
            nb_verifier = OutlierVerifier(neighbor, bench.detector)
            nb_reference = ReferenceFile.build(nb_verifier)
            matches = [
                set_match_fraction(
                    bench.reference.coe(rid), nb_reference.coe(rid)
                )
                for rid in outliers
            ]
            per_neighbor.append(float(np.mean(matches)))
        fractions.append(float(np.mean(per_neighbor)))
    return fractions


def table_12(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    deltas: Sequence[int] = (1, 5, 10, 25),
) -> TableResult:
    """COE match on the reduced salary dataset, three detectors."""
    return _coe_match_table(
        "12", "salary_reduced", "Salary dataset", scale, seed, deltas
    )


def table_13(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    deltas: Sequence[int] = (1, 5, 10, 25),
) -> TableResult:
    """COE match on the reduced homicide dataset, three detectors."""
    return _coe_match_table(
        "13", "homicide_reduced", "Homicide dataset", scale, seed, deltas
    )


def _coe_match_table(
    table_id: str,
    dataset_name: str,
    display_name: str,
    scale: str | ExperimentScale,
    seed: RngLike,
    deltas: Sequence[int],
) -> TableResult:
    cfg = get_scale(scale)
    gen = ensure_rng(seed)
    n_records = (
        cfg.salary_reduced_records
        if dataset_name == "salary_reduced"
        else cfg.homicide_reduced_records
    )
    result = COEMatchResult(dataset_name=display_name, deltas=list(deltas))
    for det_label, det_name in [
        ("Grubbs", "grubbs"),
        ("LOF", "lof"),
        ("Histogram", "histogram"),
    ]:
        bench = Workbench.get(
            dataset_name, n_records, 7, det_name, DETECTOR_KWARGS[det_name]
        )
        result.match_by_detector[det_label] = coe_match_for_detector(
            bench, deltas, cfg.coe_neighbors, cfg.coe_outliers, gen
        )
    notes = (
        f"scale={cfg.name}: n={n_records} records, {cfg.coe_neighbors} "
        f"neighbours per dD, {cfg.coe_outliers} outliers; match = Jaccard "
        "similarity of COE sets (paper: 50 neighbours, 100 outliers)"
    )
    return result.to_table(table_id, notes)
