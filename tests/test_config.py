"""Unit tests for experiment scale presets."""

import dataclasses

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import SCALES, get_scale


class TestScales:
    def test_all_presets_exist(self):
        for name in ("smoke", "small", "medium", "paper"):
            assert name in SCALES

    def test_get_scale(self):
        assert get_scale("small").name == "small"

    def test_scale_passes_through(self):
        custom = dataclasses.replace(SCALES["smoke"], name="custom", repetitions=2)
        assert get_scale(custom) is custom

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError, match="unknown scale"):
            get_scale("galactic")

    def test_paper_scale_matches_paper(self):
        paper = get_scale("paper")
        assert paper.salary_records == 51_000  # Section 6.1
        assert paper.salary_reduced_records == 11_000  # Section 6.5/6.7
        assert paper.homicide_reduced_records == 28_000  # Section 6.7
        assert paper.repetitions == 200  # Section 6.2
        assert paper.n_samples == 50  # Section 6.3
        assert paper.coe_neighbors == 50  # Section 6.7
        assert paper.coe_outliers == 100  # Section 6.7

    def test_scales_are_ordered_by_size(self):
        smoke, small, medium, paper = (
            get_scale(n) for n in ("smoke", "small", "medium", "paper")
        )
        assert smoke.salary_records < small.salary_records
        assert small.salary_records < medium.salary_records
        assert medium.salary_records <= paper.salary_records
        assert smoke.repetitions < small.repetitions <= medium.repetitions
        assert medium.repetitions <= paper.repetitions

    def test_smoke_is_fast(self):
        smoke = get_scale("smoke")
        assert smoke.salary_records <= 500
        assert smoke.repetitions <= 5
