"""Regeneration of Tables 2-11 (Section 6.3-6.6).

Every public function returns :class:`TableResult` objects whose rows mirror
the paper's columns; ``render()`` prints them as ASCII.  Experiments run at
a named scale (see :mod:`repro.experiments.config`) — `small` is the bench
default, `paper` reproduces the original record counts and 200 repetitions.

A hardware-independent cost column (mean uncached detector runs, ``f_M``)
is added to every performance table: wall-clock at laptop scale is noisy,
but the detector-run counts directly expose the complexity separation the
paper's runtime tables demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.harness import RunSummary, Workbench, run_pcor_experiment
from repro.experiments.reporting import render_table
from repro.rng import RngLike, ensure_rng


#: Detector parameters used throughout the evaluation.  The histogram floor
#: of 2 records keeps the paper's sparse-bin rule meaningful at laptop-scale
#: populations (see the module docstring of repro.outliers.histogram).
DETECTOR_KWARGS: Dict[str, Dict] = {
    "lof": {"k": 10, "threshold": 1.5},
    "grubbs": {"alpha": 0.05},
    "histogram": {"frequency_fraction": 2.5e-3, "min_count_floor": 2.0},
}


def _salary_bench(n_records: int, detector: str = "lof") -> Workbench:
    """The salary workbench the Section 6 experiments run on."""
    return Workbench.get(
        "salary_reduced", n_records, 7, detector, DETECTOR_KWARGS[detector]
    )


@dataclass
class TableResult:
    """One regenerated paper table."""

    table_id: str
    title: str
    headers: List[str]
    rows: List[Sequence[object]]
    notes: str = ""
    summaries: Dict[str, RunSummary] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(
            f"Table {self.table_id}: {self.title}", self.headers, self.rows, self.notes
        )


# ---------------------------------------------------------- shared builders


def _run_arms(
    cfg: ExperimentScale, seed: RngLike, arms: Dict[str, Dict], **common
) -> Dict[str, RunSummary]:
    """One :func:`run_pcor_experiment` per labelled arm.

    ``arms`` maps each row label to the arguments that set its arm apart,
    and ``common`` holds the ones every arm shares; both override the
    scale's sample count, repetitions and outlier pool.  ``seed`` yields one
    row seed, and each arm runs with its own fresh ``default_rng`` of it, so
    all arms see the SAME outlier pool, starting contexts and repetition
    streams — a paired comparison, which is what the paper's
    per-configuration tables imply.
    """
    row_seed = int(ensure_rng(seed).integers(0, 2**63 - 1))
    scaled = {
        "n_samples": cfg.n_samples,
        "repetitions": cfg.repetitions,
        "n_outlier_records": cfg.n_outlier_records,
    }
    return {
        label: run_pcor_experiment(
            **{**scaled, **common, **arm},
            rng=np.random.default_rng(row_seed),
            label=label,
        )
        for label, arm in arms.items()
    }


def _paired_tables(
    ids: Tuple[str, str],
    titles: Tuple[str, str],
    first_header: str,
    trailer: Dict[str, str],
    summaries: Dict[str, RunSummary],
    notes: str,
) -> Tuple[TableResult, TableResult]:
    """The performance and utility tables of one experiment.

    One row per arm, headed by its label under ``first_header``; the
    ``trailer`` columns (header -> the value every row shows) close each
    row.
    """
    tail = list(trailer.values())
    perf_rows = [
        [label, *s.runtime_summary().as_row(), f"{s.mean_fm_evaluations():.0f}", *tail]
        for label, s in summaries.items()
    ]
    util_rows = [
        [label, *s.utility_summary().as_row(), *tail] for label, s in summaries.items()
    ]
    perf_headers = [first_header, "Tmin", "Tmax", "Tavg", "f_M runs", *trailer]
    util_headers = [first_header, "Utility", "CI (90%)", *trailer]
    return (
        TableResult(ids[0], titles[0], perf_headers, perf_rows, notes, summaries),
        TableResult(ids[1], titles[1], util_headers, util_rows, notes, summaries),
    )


# ------------------------------------------------------------------- tables


def table_2_3(
    scale: str | ExperimentScale = "small", seed: RngLike = 0
) -> Tuple[TableResult, TableResult]:
    """Sampling-method comparison: performance (T2) and utility (T3).

    Uniform / RandomWalk / DFS / BFS with LOF, population-size utility,
    epsilon = 0.2, n = scale.n_samples.
    """
    cfg = get_scale(scale)
    samplers = [
        ("Uniform", "uniform"),
        ("Random Walk", "random_walk"),
        ("DFS", "dfs"),
        ("BFS", "bfs"),
    ]
    summaries = _run_arms(
        cfg,
        seed,
        {label: {"sampler": name} for label, name in samplers},
        bench=_salary_bench(cfg.salary_records),
        epsilon=0.2,
    )
    return _paired_tables(
        ("2", "3"),
        ("Sampling Methods Comparison - Performance",
         "Sampling Methods Comparison - Utility"),
        "Algorithm",
        {"epsilon": "0.2", "Outlier": "LOF"},
        summaries,
        f"scale={cfg.name}: salary dataset n={cfg.salary_records}, "
        f"{cfg.repetitions} repetitions, {cfg.n_samples} samples "
        "(paper: 51k records, 200 reps, n=50)",
    )


def table_4_5(
    scale: str | ExperimentScale = "small", seed: RngLike = 0
) -> Tuple[TableResult, TableResult]:
    """Intersection-overlap utility: performance (T4) and utility (T5).

    DFS vs BFS under the overlap-with-starting-context utility, LOF,
    epsilon = 0.2.
    """
    cfg = get_scale(scale)
    summaries = _run_arms(
        cfg,
        seed,
        {"DFS": {"sampler": "dfs"}, "BFS": {"sampler": "bfs"}},
        bench=_salary_bench(cfg.salary_records),
        utility_name="overlap",
        epsilon=0.2,
    )
    return _paired_tables(
        ("4", "5"),
        ("Intersection Overlap Utility - Performance",
         "Intersection Overlap Utility - Utility"),
        "Algorithm",
        {"epsilon": "0.2", "Outlier": "LOF"},
        summaries,
        f"scale={cfg.name}: utility = |D_C intersect D_C_V|, "
        f"salary dataset n={cfg.salary_records}, {cfg.repetitions} repetitions",
    )


def table_6_7(
    scale: str | ExperimentScale = "small", seed: RngLike = 0
) -> Tuple[TableResult, TableResult]:
    """Other detectors with BFS: performance (T6) and utility (T7).

    Grubbs and Histogram on the reduced salary dataset (paper: 11k records,
    14 attribute values), BFS sampling, population-size utility,
    epsilon = 0.2.
    """
    cfg = get_scale(scale)
    detectors = {"Grubbs": "grubbs", "Histogram": "histogram"}
    summaries = _run_arms(
        cfg,
        seed,
        {
            label: {"bench": _salary_bench(cfg.salary_reduced_records, det)}
            for label, det in detectors.items()
        },
        sampler="bfs",
        epsilon=0.2,
    )
    return _paired_tables(
        ("6", "7"),
        ("Outlier Detection Algorithms - Performance",
         "Outlier Detection Algorithms - Utility"),
        "Algorithm",
        {"epsilon": "0.2", "Sampling": "BFS"},
        summaries,
        f"scale={cfg.name}: reduced salary dataset "
        f"n={cfg.salary_reduced_records}, 14 attribute values "
        "(paper: 11k records)",
    )


def table_8_9(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    epsilons: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
) -> Tuple[TableResult, TableResult]:
    """Privacy-parameter sweep: performance (T8) and utility (T9).

    BFS + LOF, population-size utility, n = scale.n_samples.
    """
    cfg = get_scale(scale)
    summaries = _run_arms(
        cfg,
        seed,
        {f"{eps:g}": {"epsilon": eps} for eps in epsilons},
        bench=_salary_bench(cfg.salary_records),
        sampler="bfs",
    )
    return _paired_tables(
        ("8", "9"),
        ("Effect of privacy parameter on performance",
         "Effect of privacy parameter on utility"),
        "epsilon",
        {"Sampling": "BFS", "Outlier": "LOF"},
        summaries,
        f"scale={cfg.name}: n={cfg.n_samples} samples, salary dataset "
        f"n={cfg.salary_records}, {cfg.repetitions} repetitions",
    )


def table_10_11(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    sample_sizes: Sequence[int] = (25, 50, 100, 200),
) -> Tuple[TableResult, TableResult]:
    """Sample-count sweep: performance (T10) and utility (T11).

    BFS + LOF, population-size utility, epsilon = 0.2.
    """
    cfg = get_scale(scale)
    summaries = _run_arms(
        cfg,
        seed,
        {str(n): {"n_samples": n} for n in sample_sizes},
        bench=_salary_bench(cfg.salary_records),
        sampler="bfs",
        epsilon=0.2,
    )
    return _paired_tables(
        ("10", "11"),
        ("Effect of # of samples on performance", "Effect of # of samples on utility"),
        "# Samples",
        {"Sampling": "BFS", "Outlier": "LOF"},
        summaries,
        f"scale={cfg.name}: epsilon=0.2, salary dataset "
        f"n={cfg.salary_records}, {cfg.repetitions} repetitions; "
        "epsilon_1 = 0.2/(2n+2) shrinks as n grows",
    )


#: Table id -> callable returning the (perf, util) pair that contains it.
TABLE_RUNNERS = {
    "2": table_2_3,
    "3": table_2_3,
    "4": table_4_5,
    "5": table_4_5,
    "6": table_6_7,
    "7": table_6_7,
    "8": table_8_9,
    "9": table_8_9,
    "10": table_10_11,
    "11": table_10_11,
}
