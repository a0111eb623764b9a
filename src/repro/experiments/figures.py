"""Figures 1-5 (appendix): utility and runtime distribution histograms.

The paper's appendix shows, for each configuration, the histogram of the
per-repetition utility ratios (range [0, 1], 1.0 = the direct approach's
accuracy) and of the per-repetition runtimes.  Each ``figure_N`` function
reuses the corresponding table experiment's repetitions and returns a
:class:`FigureResult` whose panels carry the raw series plus histogram
``(counts, edges)`` — exactly the data needed to redraw the paper's plots —
and renders them as ASCII bar charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.harness import RunSummary, run_pcor_experiment
from repro.experiments.reporting import render_histogram
from repro.experiments.stats import histogram_series
from repro.experiments.tables import _salary_bench, table_2_3, table_8_9, table_10_11
from repro.rng import RngLike, ensure_rng


@dataclass
class FigurePanel:
    """One histogram panel: (a), (b), ... of a paper figure."""

    label: str
    kind: str  # "utility" or "time"
    values: List[float]

    def histogram(self, bins: int = 10) -> Tuple[np.ndarray, np.ndarray]:
        value_range = (0.0, 1.0) if self.kind == "utility" else None
        return histogram_series(self.values, bins=bins, value_range=value_range)

    def render(self, bins: int = 10) -> str:
        value_range = (0.0, 1.0) if self.kind == "utility" else None
        return render_histogram(
            self.values, bins=bins, value_range=value_range, label=self.label
        )


@dataclass
class FigureResult:
    """A full paper figure: several labelled histogram panels."""

    figure_id: str
    title: str
    panels: List[FigurePanel] = field(default_factory=list)
    notes: str = ""

    def render(self, bins: int = 10) -> str:
        parts = [f"Figure {self.figure_id}: {self.title}", "=" * 60]
        for panel in self.panels:
            parts.append(panel.render(bins=bins))
            parts.append("")
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


def _panels_from_summaries(
    summaries: Dict[str, RunSummary], kinds: Sequence[str] = ("utility", "time")
) -> List[FigurePanel]:
    panels: List[FigurePanel] = []
    if "utility" in kinds:
        for label, summary in summaries.items():
            panels.append(
                FigurePanel(f"{label} - Utility", "utility", summary.utility_ratios)
            )
    if "time" in kinds:
        for label, summary in summaries.items():
            panels.append(
                FigurePanel(f"{label} - Time (s)", "time", summary.wall_times)
            )
    return panels


# -------------------------------------------------------------------- figures


def figure_1(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    summaries: Optional[Dict[str, RunSummary]] = None,
) -> FigureResult:
    """Utility + runtime histograms for the four samplers (LOF, eps=0.2)."""
    if summaries is None:
        perf, _ = table_2_3(scale, seed)
        summaries = perf.summaries
    return FigureResult(
        "1",
        "Utility and Performance of PCORs for different sampling candidates "
        "(population-size utility, LOF, eps=0.2)",
        _panels_from_summaries(summaries),
    )


def figure_2(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    epsilon: float = 0.1,
) -> FigureResult:
    """DFS/BFS histograms under the overlap utility (paper caption: eps=0.1)."""
    cfg = get_scale(scale)
    gen = ensure_rng(seed)
    bench = _salary_bench(cfg.salary_records)
    summaries: Dict[str, RunSummary] = {}
    for name, label in [("dfs", "DFS"), ("bfs", "BFS")]:
        summaries[label] = run_pcor_experiment(
            bench,
            sampler=name,
            utility_name="overlap",
            epsilon=epsilon,
            n_samples=cfg.n_samples,
            repetitions=cfg.repetitions,
            n_outlier_records=cfg.n_outlier_records,
            rng=gen,
            label=label,
        )
    return FigureResult(
        "2",
        f"DFS/BFS under overlap-with-C_V utility (LOF, eps={epsilon:g})",
        _panels_from_summaries(summaries),
    )


def figure_3(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    epsilon: float = 0.1,
) -> FigureResult:
    """Grubbs/Histogram histograms with BFS (paper caption: eps=0.1)."""
    cfg = get_scale(scale)
    gen = ensure_rng(seed)
    summaries: Dict[str, RunSummary] = {}
    for det, label in [("grubbs", "Grubbs"), ("histogram", "Histogram")]:
        summaries[label] = run_pcor_experiment(
            _salary_bench(cfg.salary_reduced_records, det),
            sampler="bfs",
            utility_name="population_size",
            epsilon=epsilon,
            n_samples=cfg.n_samples,
            repetitions=cfg.repetitions,
            n_outlier_records=cfg.n_outlier_records,
            rng=gen,
            label=label,
        )
    return FigureResult(
        "3",
        f"Grubbs and Histogram detectors with BFS sampling (eps={epsilon:g})",
        _panels_from_summaries(summaries),
    )


def figure_4(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    summaries: Optional[Dict[str, RunSummary]] = None,
) -> FigureResult:
    """Privacy-parameter sweep histograms (BFS + LOF)."""
    if summaries is None:
        perf, _ = table_8_9(scale, seed)
        summaries = perf.summaries
    labeled = {f"eps={k}": v for k, v in summaries.items()}
    return FigureResult(
        "4",
        "Effect of the privacy parameter (BFS sampling, LOF)",
        _panels_from_summaries(labeled),
    )


def figure_5(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    summaries: Optional[Dict[str, RunSummary]] = None,
) -> FigureResult:
    """Sample-count sweep histograms (BFS + LOF, eps=0.2)."""
    if summaries is None:
        perf, _ = table_10_11(scale, seed)
        summaries = perf.summaries
    labeled = {f"n={k}": v for k, v in summaries.items()}
    return FigureResult(
        "5",
        "Effect of the number of samples (BFS sampling, LOF, eps=0.2)",
        _panels_from_summaries(labeled),
    )


FIGURE_RUNNERS = {
    "1": figure_1,
    "2": figure_2,
    "3": figure_3,
    "4": figure_4,
    "5": figure_5,
}
