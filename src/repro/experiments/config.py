"""Experiment scales.

The paper ran on a 132-core / 1 TB machine with 51k-110k-record datasets and
200 repetitions; every table here regenerates on a laptop by scaling record
counts and repetitions down while keeping the schemas (and thus the context
spaces) identical.  The *shape* results — which algorithm wins, by what
factor, where the knees are — are meant to be scale-stable; the README's
"Reproducing Section 6" section says how to regenerate each table, and
ROADMAP.md records where a bench's shape assertion fails at a scale.

Scales
------
* ``smoke``  — seconds; used by the test suite.
* ``small``  — the default for ``pytest benchmarks/`` (a few minutes total).
* ``medium`` — closer statistics (tens of minutes).
* ``paper``  — the paper's record counts and 200 repetitions (hours; needs
  patience, not hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by all experiments at one scale."""

    name: str
    #: Records in the salary dataset (tables 2-11 and figures).
    salary_records: int
    #: Records in the reduced salary dataset (tables 6/7, 12).
    salary_reduced_records: int
    #: Records in the reduced homicide dataset (table 13).
    homicide_reduced_records: int
    #: Repetitions per configuration (paper: 200).
    repetitions: int
    #: Distinct outlier records cycled through (paper: random outliers).
    n_outlier_records: int
    #: Samples per sampler run unless the experiment overrides (paper: 50).
    n_samples: int
    #: Neighbouring datasets per Delta-D in the COE-match experiment.
    coe_neighbors: int
    #: Outlier records examined per neighbour in the COE-match experiment.
    coe_outliers: int


SCALES = {
    "smoke": ExperimentScale(
        name="smoke",
        salary_records=400,
        salary_reduced_records=400,
        homicide_reduced_records=400,
        repetitions=5,
        n_outlier_records=5,
        n_samples=10,
        coe_neighbors=2,
        coe_outliers=5,
    ),
    "small": ExperimentScale(
        name="small",
        salary_records=6000,
        salary_reduced_records=3000,
        homicide_reduced_records=4000,
        repetitions=20,
        n_outlier_records=10,
        n_samples=50,
        coe_neighbors=3,
        coe_outliers=15,
    ),
    "medium": ExperimentScale(
        name="medium",
        salary_records=11_000,
        salary_reduced_records=6000,
        homicide_reduced_records=9000,
        repetitions=60,
        n_outlier_records=25,
        n_samples=50,
        coe_neighbors=5,
        coe_outliers=30,
    ),
    "paper": ExperimentScale(
        name="paper",
        salary_records=51_000,
        salary_reduced_records=11_000,
        homicide_reduced_records=28_000,
        repetitions=200,
        n_outlier_records=100,
        n_samples=50,
        coe_neighbors=50,
        coe_outliers=100,
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Look up a scale preset by name; an :class:`ExperimentScale` passes
    through unchanged."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {scale!r}; available: {sorted(SCALES)}"
        ) from None
