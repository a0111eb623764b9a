"""Unit tests for z-score / IQR detectors and the registry."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.outliers import (
    IQRDetector,
    ZScoreDetector,
    available_detectors,
    make_detector,
    register_detector,
)
from repro.outliers.base import OutlierDetector
from repro.outliers.zscore import deviations_and_std


@st.composite
def zscore_inputs(draw):
    """Metric values of several shapes, as a slice starting at an offset
    into a larger array (so its address alignment varies)."""
    n = draw(st.one_of(st.integers(1, 2), st.integers(3, 40), st.integers(41, 700)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(["normal", "int_lognormal", "few", "constant", "extreme"])
    )
    if kind == "normal":
        values = gen.normal(draw(st.floats(-1e6, 1e6)), draw(st.floats(1e-3, 1e4)), n)
    elif kind == "int_lognormal":
        values = np.round(gen.lognormal(10.0, 1.0, n))
    elif kind == "few":
        values = gen.choice(gen.normal(0.0, 100.0, draw(st.integers(1, 3))), n)
    elif kind == "constant":
        values = np.full(n, draw(st.floats(-1e300, 1e300)))
    else:
        pool = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1e300, -1e308, 1.7e308]
        values = gen.choice(np.array(pool + [draw(st.floats(-1e308, 1e308))]), n)
    offset = draw(st.integers(0, 7))
    host = np.zeros(n + offset + 3)
    host[offset:offset + n] = values
    return host[offset:offset + n]


def two_pass_z(values):
    """The z-score steps as ``np.std`` and a second subtraction spell them."""
    std = values.std(ddof=1)
    return std, np.abs(values - values.mean()) / std


class TestZScore:
    def test_flags_extreme_value(self, rng):
        values = np.concatenate([rng.normal(0.0, 1.0, size=100), [15.0]])
        det = ZScoreDetector(z_threshold=3.0)
        assert 100 in det.outlier_positions(values)

    def test_constant_data_clean(self):
        assert ZScoreDetector().outlier_positions(np.full(50, 2.0)).size == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ZScoreDetector(z_threshold=0.0)

    def test_masking_effect_exists(self, rng):
        # Several huge outliers inflate sigma; the z-score rule misses the
        # smaller one that IQR still catches - motivates having both.
        values = np.concatenate(
            [rng.normal(0.0, 1.0, size=100), [10.0, 500.0, 600.0]]
        )
        z = ZScoreDetector(z_threshold=3.0).outlier_positions(values)
        iqr = IQRDetector(factor=1.5).outlier_positions(values)
        assert 100 not in z  # masked by the 500/600 pair
        assert 100 in iqr

    @given(values=zscore_inputs(), threshold=st.sampled_from([0.5, 2.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_two_pass_bit_for_bit(self, values, threshold):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            want_std, want_z = two_pass_z(values)
            dev, std = deviations_and_std(values)
            z = np.abs(dev) / std
            got = ZScoreDetector(threshold, min_population=1).outlier_positions(values)
        assert np.float64(std).tobytes() == np.float64(want_std).tobytes()
        assert z.tobytes() == want_z.tobytes()
        want = (
            np.empty(0, dtype=np.int64)
            if want_std == 0.0
            else np.flatnonzero(want_z > threshold)
        )
        assert got.tolist() == want.tolist()


class TestIQR:
    def test_flags_both_tails(self, rng):
        values = np.concatenate([[-50.0], rng.normal(0.0, 1.0, size=100), [50.0]])
        positions = set(IQRDetector().outlier_positions(values).tolist())
        assert 0 in positions and 101 in positions

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            IQRDetector(factor=0.0)

    def test_wider_factor_flags_less(self, rng):
        values = np.concatenate([rng.normal(0.0, 1.0, size=200), [6.0]])
        narrow = IQRDetector(factor=1.5).outlier_positions(values)
        wide = IQRDetector(factor=10.0).outlier_positions(values)
        assert len(wide) <= len(narrow)


class TestRegistry:
    def test_builtin_detectors_registered(self):
        names = available_detectors()
        for expected in ("grubbs", "histogram", "lof", "zscore", "iqr"):
            assert expected in names

    def test_make_detector_with_kwargs(self):
        det = make_detector("lof", k=7, threshold=2.0)
        assert det.k == 7
        assert det.threshold == 2.0

    def test_make_detector_case_insensitive(self):
        assert make_detector("GRUBBS").name == "grubbs"

    def test_unknown_detector(self):
        with pytest.raises(ReproError, match="unknown detector"):
            make_detector("nonsense")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_detector("lof", lambda: None)

    def test_custom_detector_registration(self):
        class EverythingDetector(OutlierDetector):
            name = "everything_test"

            def _outlier_positions(self, values):
                return np.arange(values.shape[0])

        register_detector("everything_test", EverythingDetector)
        det = make_detector("everything_test", min_population=1)
        assert det.outlier_positions(np.arange(3.0)).tolist() == [0, 1, 2]
