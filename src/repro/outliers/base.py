"""Detector interface and registry.

The PCOR framework only requires a *deterministic* function from a
population's metric values to the set of outlier positions (Definition 3.1
embeds the detector inside the verification function ``f_M``).  All
detectors therefore implement a single method,
:meth:`OutlierDetector.outlier_positions`, over a 1-d ``float64`` array.

Determinism matters: the privacy analysis conditions on
``COE_M(D1, V) = COE_M(D2, V)``, which is only meaningful when the detector
itself has no randomness.  Detectors must not read any RNG.

A detector may also declare a finite :attr:`OutlierDetector.locality`: the
verdict on one value then depends only on the ``locality`` values on each
side of it in metric order.  The verifier uses that to answer a
record-bound question ("is V an outlier here?") from V's window of the
population instead of the whole population, batching the windows of many
populations into one :meth:`OutlierDetector.outlier_centres` call.

A detector whose outliers are the values more than ``z`` standard
deviations from the mean declares :attr:`OutlierDetector.std_cutoff`
``z``: the verifier then profiles populations from their moments, without
gathering their values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import ReproError


class OutlierDetector(ABC):
    """A deterministic unsupervised outlier detector on 1-d metric values.

    Parameters
    ----------
    min_population:
        Populations with fewer records than this are declared outlier-free.
        This keeps small-sample statistics (Grubbs needs n >= 3, LOF needs
        n > k) well-defined and mirrors the practical requirement that a
        context must cover a non-trivial population to *explain* anything.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: True when the detector is cheaper on values in ascending order: the
    #: verifier then delivers every population in metric order (stable, so
    #: equal values keep record order).  Detectors whose answer depends on
    #: element order (floating-point ``mean``/``std``) must leave it False.
    sorted_input: bool = False

    #: ``s`` when whether a value is an outlier depends only on the ``s``
    #: nearest population members on each side of it in metric order, so
    #: that ``outlier_positions`` over a population's ascending values and
    #: over the slice reaching ``max(s, min_population)`` positions either
    #: side of a value agree on that value.  ``None`` (the default): the
    #: verdict may depend on the whole population.
    locality: Optional[int] = None

    #: ``z`` when the outliers of a population of at least ``min_population``
    #: values whose sample standard deviation ``std`` (``ddof=1``) is
    #: positive are exactly its values below ``mean - z * std`` or above
    #: ``mean + z * std``, with the mean and deviation taken over the values
    #: in record order.  The verifier then answers full profiles from cell
    #: moments and cut-off ranks, and calls :meth:`outlier_positions` only
    #: on the populations those cannot decide exactly (see
    #: :mod:`repro.core.verification`).  ``None`` (the default): every full
    #: profile runs :meth:`outlier_positions`.
    std_cutoff: Optional[float] = None

    def __init__(self, min_population: int = 10):
        if min_population < 1:
            raise ValueError(f"min_population must be >= 1, got {min_population}")
        self.min_population = int(min_population)

    # ------------------------------------------------------------------ API

    @abstractmethod
    def _outlier_positions(self, values: np.ndarray) -> np.ndarray:
        """Positions (into ``values``) of outliers; guaranteed len >= min_population."""

    def outlier_positions(self, values: np.ndarray) -> np.ndarray:
        """Sorted positions of outliers in ``values`` (empty if too small)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ReproError("detector input must be a 1-d array of metric values")
        if arr.shape[0] < self.min_population:
            return np.empty(0, dtype=np.int64)
        out = np.asarray(self._outlier_positions(arr), dtype=np.int64)
        out.sort()
        return out

    def outlier_centres(self, windows: np.ndarray) -> np.ndarray:
        """Is the centre value of each row an outlier in its row?

        ``windows`` is a ``(B, 2s + 1)`` matrix.  Row ``b`` holds one
        population's values in ascending order around the value asked about,
        which sits in column ``s``, padded with ``-inf`` on the left and
        ``+inf`` on the right where the population ends; its finite values
        are the population (or, for a detector with a :attr:`locality`, the
        population's slice reaching ``max(locality, min_population)``
        positions either side of the centre).  Returns a boolean per row:
        whether :meth:`outlier_positions` of the row's finite values holds
        the centre.
        """
        rows = np.asarray(windows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] % 2 == 0:
            raise ReproError("windows must be a 2-d array of odd width")
        return self._outlier_centres(rows)

    def _outlier_centres(self, rows: np.ndarray) -> np.ndarray:
        """Row by row through :meth:`outlier_positions`; detectors with a
        batched kernel override this."""
        centre = rows.shape[1] // 2
        out = np.zeros(rows.shape[0], dtype=bool)
        for i, row in enumerate(rows):
            finite = np.isfinite(row)
            at = centre - int(np.count_nonzero(~finite[:centre]))
            out[i] = bool((self.outlier_positions(row[finite]) == at).any())
        return out

    def detect(self, values: np.ndarray) -> np.ndarray:
        """Boolean outlier mask over ``values``."""
        arr = np.asarray(values, dtype=np.float64)
        mask = np.zeros(arr.shape[0], dtype=bool)
        mask[self.outlier_positions(arr)] = True
        return mask

    def is_outlier(self, values: np.ndarray, position: int) -> bool:
        """Is the value at ``position`` an outlier within ``values``?"""
        positions = self.outlier_positions(values)
        return bool(np.isin(position, positions))

    # ----------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items()) if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


# -------------------------------------------------------------------- registry

_REGISTRY: Dict[str, Callable[..., OutlierDetector]] = {}


def register_detector(name: str, factory: Callable[..., OutlierDetector]) -> None:
    """Register a detector factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _REGISTRY:
        raise ReproError(f"detector {name!r} already registered")
    _REGISTRY[key] = factory


def detector_factory(name: str) -> Callable[..., OutlierDetector]:
    """The registered factory for ``name`` (for introspection/validation)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ReproError(
            f"unknown detector {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]


def make_detector(name: str, **kwargs) -> OutlierDetector:
    """Instantiate a registered detector by name."""
    return detector_factory(name)(**kwargs)


def available_detectors() -> List[str]:
    """Names of all registered detectors."""
    return sorted(_REGISTRY)
