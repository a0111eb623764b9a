"""The locality hypothesis (Section 5.2) — an ablation experiment.

The graph samplers rest on one empirical claim: *if V is an outlier in
context C, then a context connected to C is more likely to be matching than
a uniformly random context.*  The paper asserts the hypothesis holds for
all three detector categories but does not quantify it; this experiment
does, producing the match rate at each Hamming radius around known matching
contexts next to the global matching density (the rate a random context
would achieve).

A strong locality signal — radius-1 match rate far above the global
density — is what makes RandomWalk/DFS/BFS find candidates in O(t) steps
while uniform sampling needs O(2^t / N) draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.context.context import Context
from repro.context.graph import ContextGraph
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.harness import Workbench
from repro.experiments.tables import DETECTOR_KWARGS, TableResult
from repro.rng import RngLike, ensure_rng


@dataclass
class LocalityResult:
    """Mean match rate per Hamming radius, plus the global baseline."""

    detector: str
    radii: List[int]
    match_rate_by_radius: List[float]
    global_density: float

    @property
    def locality_gain(self) -> float:
        """Radius-1 match rate over the global matching density."""
        if self.global_density == 0.0:
            return float("inf")
        return self.match_rate_by_radius[1] / self.global_density


def locality_experiment(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    detectors: Sequence[str] = ("grubbs", "lof", "histogram"),
    max_radius: int = 3,
    n_centers: int = 10,
) -> List[LocalityResult]:
    """Measure the locality profile for each detector on the salary data."""
    cfg = get_scale(scale)
    gen = ensure_rng(seed)
    results: List[LocalityResult] = []
    for det_name in detectors:
        bench = Workbench.get(
            "salary_reduced",
            cfg.salary_reduced_records,
            7,
            det_name,
            DETECTOR_KWARGS[det_name],
        )
        graph = ContextGraph(bench.dataset.schema)
        space_size = 1 << bench.dataset.schema.t
        outliers = bench.pick_outliers(
            min(n_centers, cfg.n_outlier_records), gen, min_matching_contexts=5
        )

        profiles: List[List[float]] = []
        densities: List[float] = []
        for rid in outliers:
            matching = bench.reference.matching_contexts(rid)
            center_bits = matching[int(gen.integers(0, len(matching)))]
            center = Context(bench.dataset.schema, center_bits)
            matching_set = set(matching)
            profile = graph.locality_profile(
                lambda bits: bits in matching_set, center, max_radius
            )
            profiles.append(profile)
            densities.append(len(matching_set) / space_size)

        mean_profile = np.mean(np.asarray(profiles), axis=0)
        results.append(
            LocalityResult(
                detector=det_name,
                radii=list(range(max_radius + 1)),
                match_rate_by_radius=[float(x) for x in mean_profile],
                global_density=float(np.mean(densities)),
            )
        )
    return results


def locality_table(results: Sequence[LocalityResult]) -> TableResult:
    """Render locality results as an ASCII table."""
    radii = results[0].radii if results else []
    headers = (
        ["Detector"]
        + [f"match@r={r}" for r in radii]
        + ["global density", "r=1 gain"]
    )
    rows = []
    for res in results:
        rows.append(
            [res.detector]
            + [f"{x:.3f}" for x in res.match_rate_by_radius]
            + [f"{res.global_density:.4f}", f"{res.locality_gain:.1f}x"]
        )
    return TableResult(
        "locality",
        "Locality of matching contexts in the context graph (Section 5.2)",
        headers,
        rows,
        "match@r = probability that a context at Hamming distance r from a "
        "matching context is itself matching; gain = match@r=1 / global density",
    )
