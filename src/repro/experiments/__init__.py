"""Experiment harness reproducing every table and figure of Section 6."""

from repro.experiments.ablations import (
    mechanism_parameterisation_ablation,
    random_walk_restart_ablation,
    starting_context_ablation,
)
from repro.experiments.coe_match import coe_match_for_detector, table_12, table_13
from repro.experiments.config import SCALES, ExperimentScale, get_scale
from repro.experiments.figures import FIGURE_RUNNERS, FigureResult, figure_1, figure_2, figure_3, figure_4, figure_5
from repro.experiments.harness import (
    RepetitionResult,
    RunSummary,
    Workbench,
    run_pcor_experiment,
)
from repro.experiments.locality import locality_experiment, locality_table
from repro.experiments.privacy_ratio import privacy_ratio_experiment
from repro.experiments.reporting import render_histogram, render_table
from repro.experiments.stats import RuntimeSummary, UtilitySummary, summarize_runtimes, summarize_utilities
from repro.experiments.tables import (
    TABLE_RUNNERS,
    TableResult,
    table_2_3,
    table_4_5,
    table_6_7,
    table_8_9,
    table_10_11,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "Workbench",
    "RepetitionResult",
    "RunSummary",
    "run_pcor_experiment",
    "UtilitySummary",
    "RuntimeSummary",
    "summarize_utilities",
    "summarize_runtimes",
    "render_table",
    "render_histogram",
    "TableResult",
    "TABLE_RUNNERS",
    "table_2_3",
    "table_4_5",
    "table_6_7",
    "table_8_9",
    "table_10_11",
    "table_12",
    "table_13",
    "coe_match_for_detector",
    "FigureResult",
    "FIGURE_RUNNERS",
    "figure_1",
    "figure_2",
    "figure_3",
    "figure_4",
    "figure_5",
    "privacy_ratio_experiment",
    "locality_experiment",
    "locality_table",
    "starting_context_ablation",
    "random_walk_restart_ablation",
    "mechanism_parameterisation_ablation",
]
