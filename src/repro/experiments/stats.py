"""Statistics used by the evaluation (Section 6.2).

The paper reports, over 200 repetitions per configuration:

* utility as the mean ratio to the maximum achievable utility, with a 90%
  confidence interval, and
* performance as the (min, max, average) runtime.

The CI uses the normal approximation ``mean +- z * s / sqrt(n)``; at the
paper's repetition counts the difference from a t-interval is negligible,
but we use the t quantile anyway so small smoke-scale runs stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class UtilitySummary:
    """Mean utility ratio with a confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    n: int
    confidence: float

    def as_row(self) -> Tuple[str, str]:
        return (f"{self.mean:.2f}", f"({self.ci_low:.2f}, {self.ci_high:.2f})")


@dataclass(frozen=True)
class RuntimeSummary:
    """Min / max / average wall-clock runtime in seconds."""

    t_min: float
    t_max: float
    t_avg: float
    n: int

    def as_row(self) -> Tuple[str, str, str]:
        return (
            format_duration(self.t_min),
            format_duration(self.t_max),
            format_duration(self.t_avg),
        )


def summarize_utilities(
    ratios: Sequence[float], confidence: float = 0.90
) -> UtilitySummary:
    """Mean and t-interval of utility ratios (paper: 90% CI)."""
    arr = np.asarray(ratios, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty utility sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return UtilitySummary(mean, mean, mean, 1, confidence)
    # Imported here, not at module load: `repro.cli` imports this module, and
    # every CLI, server and worker process starts there.
    from scipy import stats as scipy_stats

    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    tq = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, arr.size - 1))
    half = tq * sem
    return UtilitySummary(mean, mean - half, mean + half, int(arr.size), confidence)


def summarize_runtimes(times: Sequence[float]) -> RuntimeSummary:
    """Min / max / average of wall-clock times."""
    arr = np.asarray(times, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty runtime sample")
    return RuntimeSummary(
        t_min=float(arr.min()),
        t_max=float(arr.max()),
        t_avg=float(arr.mean()),
        n=int(arr.size),
    )


def format_duration(seconds: float) -> str:
    """Adaptive human-readable duration: us / ms / s / m."""
    if seconds < 0:
        raise ValueError(f"duration must be >= 0, got {seconds}")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60.0:.1f}m"


def histogram_series(
    values: Sequence[float],
    bins: int = 10,
    value_range: Tuple[float, float] | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, edges)`` for the appendix-style histograms (Figures 1-5)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    return np.histogram(arr, bins=bins, range=value_range)
