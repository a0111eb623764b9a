"""Grubbs' test for outliers (Grubbs 1969) — hypothesis-testing detector.

The two-sided Grubbs statistic for a sample of size ``N`` is

    G = max_i |x_i - mean| / std      (std with ddof=1)

and the null hypothesis "no outlier" is rejected at significance ``alpha``
when

    G > ((N-1)/sqrt(N)) * sqrt( tq^2 / (N - 2 + tq^2) )

with ``tq`` the upper ``alpha/(2N)`` critical value of Student's t with
``N-2`` degrees of freedom.  Grubbs' test flags one observation at a time,
so — as is standard (generalised ESD, Rosner 1983) — we apply it
iteratively: remove the most deviant point while the test rejects, up to
``max_outliers`` removals.
"""

from __future__ import annotations

import math

import numpy as np

from repro.outliers.base import OutlierDetector, register_detector


def grubbs_critical_value(n: int, alpha: float) -> float:
    """Two-sided Grubbs critical value for sample size ``n``."""
    if n < 3:
        return math.inf  # the test is undefined; reject nothing
    from scipy import stats  # imported here so `import repro` does not load scipy

    tq = stats.t.ppf(1.0 - alpha / (2.0 * n), n - 2)
    return ((n - 1) / math.sqrt(n)) * math.sqrt(tq * tq / (n - 2 + tq * tq))


class GrubbsDetector(OutlierDetector):
    """Iterative two-sided Grubbs test.

    Parameters
    ----------
    alpha:
        Significance level of each individual test (default 0.05).
    max_outliers:
        Upper bound on removals; ``None`` means at most 10% of the sample,
        which keeps the iterative procedure honest (Grubbs' test loses power
        when a large fraction of the data is removed).
    min_population:
        See :class:`OutlierDetector`.
    """

    name = "grubbs"

    def __init__(
        self,
        alpha: float = 0.05,
        max_outliers: int | None = None,
        min_population: int = 10,
    ):
        super().__init__(min_population=min_population)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_outliers is not None and max_outliers < 1:
            raise ValueError(f"max_outliers must be >= 1, got {max_outliers}")
        self.alpha = float(alpha)
        self.max_outliers = max_outliers

    def _outlier_positions(self, values: np.ndarray) -> np.ndarray:
        remaining = np.arange(values.shape[0], dtype=np.int64)
        data = values.copy()
        flagged = []
        budget = (
            self.max_outliers
            if self.max_outliers is not None
            else max(1, values.shape[0] // 10)
        )
        while len(flagged) < budget and data.shape[0] >= 3:
            mean = data.mean()
            std = data.std(ddof=1)
            if std == 0.0:
                break  # all remaining values identical: nothing deviates
            deviations = np.abs(data - mean) / std
            worst = int(np.argmax(deviations))
            if deviations[worst] <= grubbs_critical_value(data.shape[0], self.alpha):
                break
            flagged.append(int(remaining[worst]))
            keep = np.ones(data.shape[0], dtype=bool)
            keep[worst] = False
            data = data[keep]
            remaining = remaining[keep]
        return np.asarray(flagged, dtype=np.int64)


register_detector("grubbs", GrubbsDetector)
