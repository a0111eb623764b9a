"""Z-score detector — the simplest statistics-based baseline.

Not evaluated in the paper, but included to exercise the paper's claim that
PCOR composes with *any* deterministic outlier detection algorithm.

Its outliers are the values below ``mean - z * std`` or above
``mean + z * std``, so it declares :attr:`ZScoreDetector.std_cutoff`: the
verifier answers its full profiles from per-cell moments and reads only the
members beyond the two cut-offs, and calls :meth:`outlier_positions` only
on the populations it cannot decide exactly that way (a member within the
error band of a cut-off, or a deviation not well above that band; see
:mod:`repro.core.verification`).  A subclass that overrides
``outlier_positions`` or ``_outlier_positions`` declares no cut-off, so its
own method decides every population.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.outliers.base import OutlierDetector, register_detector


class ZScoreDetector(OutlierDetector):
    """Flag values more than ``z_threshold`` sample standard deviations out."""

    name = "zscore"

    def __init__(self, z_threshold: float = 3.0, min_population: int = 10):
        super().__init__(min_population=min_population)
        if z_threshold <= 0.0:
            raise ValueError(f"z_threshold must be positive, got {z_threshold}")
        self.z_threshold = float(z_threshold)

    @property
    def std_cutoff(self) -> Optional[float]:
        """The cut-off in standard deviations, :attr:`z_threshold`; ``None``
        for a subclass that overrides ``outlier_positions`` or
        ``_outlier_positions``, whose verdicts the cut-offs need not give."""
        for cls in type(self).__mro__:
            if cls is ZScoreDetector:
                return self.z_threshold
            if "outlier_positions" in vars(cls) or "_outlier_positions" in vars(cls):
                return None
        return None  # pragma: no cover - ZScoreDetector is always in the MRO

    def _outlier_positions(self, values: np.ndarray) -> np.ndarray:
        dev, std = deviations_and_std(values)
        if std == 0.0:
            return np.empty(0, dtype=np.int64)
        z = np.abs(dev) / std
        return np.flatnonzero(z > self.z_threshold).astype(np.int64)


def deviations_and_std(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values - values.mean()`` and ``values.std(ddof=1)``, bit for bit,
    from one pass over the deviations.

    ``np.std(ddof=1)`` takes the same mean, squares the same deviations,
    sums them with the same pairwise ``add.reduce`` and divides by
    ``n - 1`` before the square root; doing those steps here lets the
    z-scores reuse the deviations instead of subtracting the mean again.
    Like ``np.std``, a single value gives a NaN ``std`` (0 / 0).
    """
    dev = values - values.mean()
    return dev, np.sqrt(np.add.reduce(np.square(dev)) / (values.shape[0] - 1))


register_detector("zscore", ZScoreDetector)
