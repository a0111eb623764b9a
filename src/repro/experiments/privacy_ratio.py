"""Section 6.7, objective (ii): empirical privacy when the OCDP constraint fails.

When ``COE_M(D1, V) != COE_M(D2, V)`` for one-record neighbours, OCDP makes
no formal promise.  The paper measures, over the contexts in the
*intersection* of the two COE sets, the maximum ratio of the (direct,
Exponential-mechanism) selection probability under ``D1`` to the probability
of the same context under ``D2`` — and finds it below ``e^epsilon`` in every
instance.  This module reproduces the measurement exactly: the direct
mechanism's probabilities are computable in closed form from the two
reference files, no sampling noise involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.reference import ReferenceFile
from repro.core.verification import OutlierVerifier
from repro.data.neighbors import remove_random_records
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.harness import Workbench
from repro.experiments.tables import DETECTOR_KWARGS, TableResult
from repro.mechanisms.accounting import epsilon_one_for
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.ocdp import ocdp_ratio_bound
from repro.rng import RngLike, ensure_rng, spawn


@dataclass
class PrivacyRatioResult:
    """Per-detector maximum observed probability ratio vs the epsilon bound."""

    epsilon: float
    bound: float
    #: detector -> (max ratio over all sampled outlier/neighbour/context
    #: triples, number of triples measured, number of COE mismatches seen)
    by_detector: Dict[str, tuple]

    def to_table(self, notes: str = "") -> TableResult:
        rows = []
        for det, (max_ratio, n_measured, n_mismatch) in self.by_detector.items():
            rows.append(
                [
                    det,
                    f"{max_ratio:.4f}",
                    f"{self.bound:.4f}",
                    "yes" if max_ratio <= self.bound else "NO",
                    str(n_measured),
                    str(n_mismatch),
                ]
            )
        return TableResult(
            "6.7(ii)",
            f"Empirical privacy ratio vs e^eps (eps={self.epsilon:g})",
            ["Algorithm", "max ratio", "e^eps", "within bound", "contexts", "COE mismatches"],
            rows,
            notes,
        )


def max_probability_ratio(
    reference_1: ReferenceFile,
    reference_2: ReferenceFile,
    record_id: int,
    epsilon: float,
) -> tuple[float, int, bool]:
    """Max selection-probability ratio over the COE intersection.

    Returns ``(max ratio, contexts compared, coe sets differed?)``; the
    ratio is 0.0 when the intersection is empty.
    """
    coe1 = reference_1.matching_contexts(record_id)
    coe2 = reference_2.matching_contexts(record_id)
    set1, set2 = set(coe1), set(coe2)
    intersection = sorted(set1 & set2)
    if not intersection or not coe1 or not coe2:
        return 0.0, 0, set1 != set2

    eps1 = epsilon_one_for("direct", epsilon)
    mech = ExponentialMechanism(eps1, sensitivity=1.0)
    p1 = mech.probabilities([float(reference_1.population_size(b)) for b in coe1])
    p2 = mech.probabilities([float(reference_2.population_size(b)) for b in coe2])
    prob1 = dict(zip(coe1, p1))
    prob2 = dict(zip(coe2, p2))

    max_ratio = 0.0
    for bits in intersection:
        a, b = prob1[bits], prob2[bits]
        if a == 0.0 or b == 0.0:  # pragma: no cover - softmax is never 0 here
            continue
        max_ratio = max(max_ratio, a / b, b / a)
    return max_ratio, len(intersection), set1 != set2


def privacy_ratio_experiment(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    epsilon: float = 0.2,
    detectors: Sequence[str] = ("grubbs", "lof", "histogram"),
    dataset_name: str = "salary_reduced",
) -> PrivacyRatioResult:
    """Reproduce the Section 6.7 (ii) measurement on one dataset."""
    cfg = get_scale(scale)
    gen = ensure_rng(seed)
    n_records = (
        cfg.salary_reduced_records
        if dataset_name == "salary_reduced"
        else cfg.homicide_reduced_records
    )

    by_detector: Dict[str, tuple] = {}
    for det_name in detectors:
        bench = Workbench.get(
            dataset_name, n_records, 7, det_name, DETECTOR_KWARGS[det_name]
        )
        outliers = bench.pick_outliers(cfg.coe_outliers, gen, min_matching_contexts=1)
        neighbor_rngs = spawn(gen, cfg.coe_neighbors)
        max_ratio = 0.0
        n_measured = 0
        n_mismatch = 0
        for nb_rng in neighbor_rngs:
            neighbor = remove_random_records(
                bench.dataset, 1, nb_rng, protected_ids=outliers
            )
            nb_reference = ReferenceFile.build(OutlierVerifier(neighbor, bench.detector))
            for rid in outliers:
                ratio, measured, mismatched = max_probability_ratio(
                    bench.reference, nb_reference, rid, epsilon
                )
                max_ratio = max(max_ratio, ratio)
                n_measured += measured
                n_mismatch += int(mismatched)
        by_detector[det_name] = (max_ratio, n_measured, n_mismatch)

    return PrivacyRatioResult(
        epsilon=epsilon,
        bound=ocdp_ratio_bound(epsilon),
        by_detector=by_detector,
    )
