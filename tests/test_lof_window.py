"""LOF's window kernel, pinned to the exact path.

:class:`LOFDetector` scores values in ascending order with
:func:`lof_window_scores` and re-scores a population with
:func:`lof_scores` whenever the window kernel declines.  Whatever order the
values arrive in, its outlier positions must be exactly the seed
definition, ``np.flatnonzero(lof_scores(values, k) > threshold)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.outliers import IQRDetector, OutlierDetector, ZScoreDetector
from repro.outliers import lof
from repro.outliers.lof import (
    LOFDetector,
    lof_centre_scores,
    lof_scores,
    lof_window_scores,
)

# The kernels compute inf - inf and the like on padded rows under
# np.errstate; a lost guard fails here instead of printing a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

THRESHOLDS = st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0])
KS = st.integers(min_value=1, max_value=8)


def seed_positions(values: np.ndarray, k: int, threshold: float) -> np.ndarray:
    return np.flatnonzero(lof_scores(values, k) > threshold)


def assert_matches_seed(values, k: int, threshold: float, data) -> None:
    """Positions agree with the seed path on sorted and shuffled input, and
    whenever the window kernel answers, its scores agree with
    ``lof_scores`` to 1e-12 (relative)."""
    values = np.asarray(values, dtype=np.float64)
    detector = LOFDetector(k=k, threshold=threshold, min_population=k + 1)
    ordered = np.sort(values, kind="stable")
    shuffled = np.array(data.draw(st.permutations(values.tolist())), dtype=np.float64)
    # Near the float limits, lof_scores' sums overflow to inf by design.
    with np.errstate(over="ignore"):
        for arr in (ordered, shuffled):
            assert np.array_equal(
                detector.outlier_positions(arr), seed_positions(arr, k, threshold)
            )
        window = lof_window_scores(ordered, k, threshold)
        exact = lof_scores(ordered, k)
    if window is not None:
        finite = np.isfinite(exact)
        assert np.array_equal(np.isfinite(window), finite)
        assert np.array_equal(window[~finite], exact[~finite])
        assert np.allclose(window[finite], exact[finite], rtol=1e-12, atol=0.0)


@st.composite
def sized(draw, elements, max_size=60):
    k = draw(KS)
    values = draw(st.lists(elements, min_size=k + 1, max_size=max(k + 1, max_size)))
    return values, k


class TestMatchesSeedPath:
    @given(
        case=sized(st.floats(allow_nan=False, allow_infinity=False)),
        threshold=THRESHOLDS,
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_finite_values(self, case, threshold, data):
        values, k = case
        assert_matches_seed(values, k, threshold, data)

    @given(
        runs=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(1, 25)), min_size=1, max_size=6
        ),
        k=KS,
        threshold=THRESHOLDS,
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_duplicate_runs_and_zero_k_dist(self, runs, k, threshold, data):
        """Runs longer than k give k-dist = 0 and infinite densities."""
        values = [float(v) for v, count in runs for _ in range(count)]
        if len(values) <= k:
            values += [0.0] * (k + 1 - len(values))
        assert_matches_seed(values, k, threshold, data)

    @given(k=KS, extra=st.integers(0, 8), threshold=THRESHOLDS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_small_populations(self, k, extra, threshold, data):
        """n from k + 1 to 2k + 1: windows clipped on both sides."""
        n = k + 1 + min(extra, k)
        values = data.draw(
            st.lists(
                st.sampled_from([-3.0, -0.5, 0.0, 0.25, 1.0, 2.0, 7.5, 40.0]),
                min_size=n,
                max_size=n,
            )
        )
        assert_matches_seed(values, k, threshold, data)

    @given(case=sized(st.integers(0, 5).map(float), max_size=30), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_scores_on_the_threshold(self, case, data):
        """Small integer data often scores exactly 1, 1.25, 1.5 or 2."""
        values, k = case
        threshold = data.draw(st.sampled_from([1.0, 1.25, 1.5, 2.0]))
        assert_matches_seed(values, k, threshold, data)

    @given(
        case=sized(
            st.sampled_from(
                [0.0, 5e-324, 1e-323, 3e-323, 1e-310, 1e-160, 2e-160, 1.0, 1e160, 1e300]
            ),
            max_size=12,
        ),
        threshold=THRESHOLDS,
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_extreme_magnitudes(self, case, threshold, data):
        """Densities that overflow or underflow on the way to a score."""
        values, k = case
        assert_matches_seed(values, k, threshold, data)

    @given(
        exponent=st.integers(50, 60),
        tiny=st.lists(st.integers(0, 64), min_size=1, max_size=20),
        step=st.sampled_from([0.1, 0.125, 0.3]),
        far=st.lists(st.sampled_from([0.5, 1.0, 1.0000001, 2.0]), max_size=10),
        k=KS,
        threshold=THRESHOLDS,
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_distinct_values_at_one_rounded_distance(
        self, exponent, tiny, step, far, k, threshold, data
    ):
        """Seen from 2**50 and up, small distinct values are at the same
        rounded distance; larger values put the window edge among them."""
        big = 2.0**exponent
        values = [t * step for t in tiny] + [big] + [big + big * f for f in far]
        if len(values) <= k:
            values += [big] * (k + 1 - len(values))
        assert_matches_seed(values, k, threshold, data)


class TestExactPath:
    """Each condition that sends a population to ``lof_scores``."""

    def test_scores_on_the_threshold(self):
        grid = np.arange(10.0)  # interior scores are exactly 1
        assert lof_window_scores(grid, 2, 1.0) is None
        assert lof_window_scores(grid, 2, 1.5) is not None
        detector = LOFDetector(k=2, threshold=1.0, min_population=3)
        assert np.array_equal(
            detector.outlier_positions(grid), seed_positions(grid, 2, 1.0)
        )

    def test_mean_reach_out_of_range(self):
        # The last point's mean reach is subnormal, so its density
        # overflows to inf although it is not a duplicate: lof_scores
        # counts inf / inf as 1 there.
        values = np.array([0.0, 0.0, 3e-323])
        assert lof_window_scores(values, 1, 1.5) is None
        detector = LOFDetector(k=1, threshold=1.5, min_population=2)
        assert detector.outlier_positions(values).size == 0
        assert np.array_equal(
            detector.outlier_positions(values), seed_positions(values, 1, 1.5)
        )

    def test_distinct_left_values_at_one_distance(self):
        # 2**53 - 0.25 rounds to 2**53: both left values are at distance
        # 2**53 from the last point.
        values = np.array([0.0, 0.25, 2.0**53])
        assert lof_window_scores(values, 2, 1.5) is None
        detector = LOFDetector(k=2, threshold=1.5, min_population=3)
        assert np.array_equal(
            detector.outlier_positions(values), seed_positions(values, 2, 1.5)
        )

    def test_overflowing_spread(self):
        values = np.array([-1.7e308, 0.0, 1.0, 2.0, 1.7e308])
        assert lof_window_scores(values, 2, 1.5) is None

    def test_ordinary_population_stays_on_the_window(self, rng):
        values = np.sort(np.concatenate([rng.normal(0.0, 1.0, 300), [9.0]]))
        window = lof_window_scores(values, 10, 1.5)
        assert window is not None
        assert np.allclose(window, lof_scores(values, 10), rtol=1e-12, atol=0.0)
        assert window[-1] > 1.5


class TestSortedInput:
    def test_only_lof_asks_for_metric_order(self):
        assert LOFDetector.sorted_input
        assert not OutlierDetector.sorted_input
        # Order-dependent float reductions, or nothing to gain.
        assert not ZScoreDetector.sorted_input
        assert not IQRDetector.sorted_input

    def test_rejects_too_few_values(self):
        with pytest.raises(ValueError, match="more than k"):
            lof_window_scores(np.arange(3.0), 3, 1.5)


# ------------------------------------------------------------------ locality


@st.composite
def ordered_populations(draw):
    """Ascending values, ``k`` from 1 to 15 and a centre index: duplicate
    runs, bimodal clusters or arbitrary floats, at any size from ``k + 1``
    (windows covering the whole population) to well past ``6k + 1``."""
    k = draw(st.integers(1, 15))
    n = draw(st.integers(k + 1, 8 * k + 12))
    kind = draw(st.sampled_from(["runs", "bimodal", "floats"]))
    if kind == "runs":
        values = draw(
            st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)
        )
    elif kind == "bimodal":
        values = draw(
            st.lists(
                st.one_of(
                    st.floats(0.0, 1.0), st.floats(100.0, 101.0), st.just(50.0)
                ),
                min_size=n,
                max_size=n,
            )
        )
    else:
        values = draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        )
    centre = draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
    return np.sort(np.array(values, dtype=np.float64), kind="stable"), k, centre


class TestLocality:
    """``LOFDetector.locality``: the ``3k`` values either side of a sorted
    point decide its score, bit for bit."""

    def test_locality_is_three_k(self):
        assert LOFDetector(k=7).locality == 21
        assert OutlierDetector.locality is None
        assert ZScoreDetector().locality is None

    @given(case=ordered_populations())
    @settings(max_examples=200, deadline=None)
    def test_window_centre_score_is_bit_identical(self, case):
        values, k, centre = case
        lo = max(0, centre - 3 * k)
        window = values[lo : centre + 3 * k + 1]
        full = lof_scores(values, k)[centre]
        local = lof_scores(window, k)[centre - lo]
        assert np.float64(local).tobytes() == np.float64(full).tobytes()

    @given(
        case=ordered_populations(),
        threshold=THRESHOLDS,
        extra_floor=st.sampled_from([None, 1, 2, 6]),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_verdict_matches_population(self, case, threshold, extra_floor):
        """The verifier's window, ``max(locality, min_population)`` either
        side, gives the record the population's verdict — including
        ``min_population > 3k`` and populations below ``min_population``."""
        values, k, centre = case
        floor = None if extra_floor is None else 3 * k + extra_floor
        detector = LOFDetector(k=k, threshold=threshold, min_population=floor)
        reach = max(detector.locality, detector.min_population)
        lo = max(0, centre - reach)
        window = values[lo : centre + reach + 1]
        assert (centre - lo in detector.outlier_positions(window)) == (
            centre in detector.outlier_positions(values)
        )


# -------------------------------------------------------------- row batches


#: Values for ``centred_rows(kinds=EXTREME_KINDS)``: densities that
#: overflow or underflow, spreads that overflow, and distinct small values
#: at one rounded distance from 2**53.
EXTREME_KINDS = {
    "magnitudes": st.sampled_from(
        [0.0, 5e-324, 1e-323, 3e-323, 1e-310, 1e-160, 2e-160, 1.0, 1e160, 1e300]
    ),
    "overflow": st.sampled_from([-1.7e308, -1e308, 0.0, 1.0, 2.0, 1e308, 1.7e308]),
    "ties": st.sampled_from(
        [0.0, 0.25, 0.5, 0.75, 2.0**53, 2.0**53 + 2, 2.0**53 + 4, 2.0**54]
    ),
}


@st.composite
def centred_rows(draw, kinds=None):
    """A batch of rows as the verifier builds them, plus an LOF detector
    with k from 1 to 15 and one of the ``min_population`` floors of
    ``test_record_scoped.lof_cases``.

    Each row is one population's window: the ``max(locality,
    min_population)`` values on each side of a centre in ascending order,
    padded with -inf / +inf where the population ends.  Populations are
    duplicate runs, bimodal clusters or arbitrary floats (or values drawn
    from ``kinds``), from a few values below ``min_population`` to well
    past the window, with the centre at either end or anywhere."""
    k = draw(st.integers(1, 15))
    floor = draw(st.sampled_from([None, k + 1, 3 * k + 1, 3 * k + 7]))
    detector = LOFDetector(
        k=k, threshold=draw(st.sampled_from([1.1, 1.3, 1.5])), min_population=floor
    )
    reach = max(detector.locality, detector.min_population)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(max(1, detector.min_population - 3), 2 * reach + 12))
        if kinds is not None:
            element = kinds[draw(st.sampled_from(sorted(kinds)))]
        else:
            kind = draw(st.sampled_from(["runs", "bimodal", "floats"]))
            if kind == "runs":
                element = st.integers(0, 4).map(float)
            elif kind == "bimodal":
                element = st.one_of(st.floats(0.0, 1.0), st.floats(100.0, 100.5))
            else:
                element = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
        values = np.sort(draw(st.lists(element, min_size=n, max_size=n)), kind="stable")
        centre = draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
        lo = max(0, centre - reach)
        window = values[lo : centre + reach + 1]
        left = reach - (centre - lo)
        row = np.full(2 * reach + 1, np.inf)
        row[:left] = -np.inf
        row[left : left + window.size] = window
        rows.append(row)
    return detector, np.array(rows)


class TestRowBatches:
    """``lof_window_scores`` on a ``(B, m)`` batch scores each row as its
    finite values alone, and ``LOFDetector.outlier_centres`` answers each
    row as ``outlier_positions`` on those values does."""

    @given(case=centred_rows())
    @settings(max_examples=200, deadline=None)
    def test_rows_score_as_their_finite_values(self, case):
        detector, rows = case
        k, threshold = detector.k, detector.threshold
        rows = rows[np.isfinite(rows).sum(axis=1) > k]
        scores = lof_window_scores(rows, k, threshold)
        assert scores.shape == rows.shape
        for row, got in zip(rows, scores):
            finite = np.isfinite(row)
            assert np.isnan(got[~finite]).all()
            alone = lof_window_scores(row[finite], k, threshold)
            if alone is None:
                assert np.isnan(got).all()
            else:
                assert np.array_equal(got[finite], alone)

    @given(case=centred_rows())
    @settings(max_examples=200, deadline=None)
    def test_centre_verdicts_match_row_by_row(self, case):
        """The batched override against the base class's row-by-row
        answer; rows the kernel declines go to ``lof_scores``."""
        detector, rows = case
        assert np.array_equal(
            detector.outlier_centres(rows),
            OutlierDetector._outlier_centres(detector, rows),
        )

    def test_sub_batches_change_nothing(self, monkeypatch, rng):
        values = np.sort(rng.normal(0.0, 1.0, 400))
        rows = np.stack([values[i : i + 61] for i in range(0, 330, 11)])
        rows[3, :20] = -np.inf
        rows[7, 45:] = np.inf
        whole = lof_window_scores(rows, 10, 1.5)
        monkeypatch.setattr(lof, "_ELEMENT_BUDGET", 1)
        assert np.array_equal(lof_window_scores(rows, 10, 1.5), whole, equal_nan=True)

    def test_centre_sub_batches_change_no_verdict(self, monkeypatch, rng):
        """Under a one-element budget the centre kernel scores one row per
        call, with the same scores and verdicts as one call for all."""
        detector = LOFDetector(k=10)
        reach = max(detector.locality, detector.min_population)
        values = np.sort(np.concatenate([rng.normal(0.0, 1.0, 300), [-6.0, 7.0, 9.0]]))
        rows = []
        for centre in [*range(0, values.size, 9), values.size - 2, values.size - 1]:
            row = np.full(2 * reach + 1, np.inf)
            lo = max(0, centre - reach)
            window = values[lo : centre + reach + 1]
            row[: reach - (centre - lo)] = -np.inf
            row[reach - (centre - lo) : reach - (centre - lo) + window.size] = window
            rows.append(row)
        rows = np.array(rows)
        scores = lof_centre_scores(rows, 10, 1.5)
        verdicts = detector.outlier_centres(rows)
        assert verdicts.any() and not verdicts.all()
        sizes = []
        centre_rows = lof._centre_rows

        def one_batch(batch, k, threshold):
            sizes.append(batch.shape[0])
            return centre_rows(batch, k, threshold)

        monkeypatch.setattr(lof, "_centre_rows", one_batch)
        monkeypatch.setattr(lof, "_ELEMENT_BUDGET", 1)
        assert np.array_equal(lof_centre_scores(rows, 10, 1.5), scores, equal_nan=True)
        assert np.array_equal(detector.outlier_centres(rows), verdicts)
        assert sizes == [1] * (2 * len(rows))

    def test_rows_narrower_than_the_centre_reads(self, rng):
        """Rows of 2s + 1 < 6k + 1 values: the centre kernel pads them out
        and answers as row by row."""
        detector = LOFDetector(k=4, threshold=1.5, min_population=5)
        reach = 7
        rows = []
        for centre in (10, 9, 0, 5, 3, 7, 1):
            values = np.sort(np.concatenate([rng.normal(0.0, 1.0, 10), [9.0]]))
            row = np.full(2 * reach + 1, np.inf)
            lo = max(0, centre - reach)
            window = values[lo : centre + reach + 1]
            row[: reach - (centre - lo)] = -np.inf
            row[reach - (centre - lo) : reach - (centre - lo) + window.size] = window
            rows.append(row)
        rows = np.array(rows)
        verdicts = detector.outlier_centres(rows)
        assert verdicts[0] and not verdicts.all()
        assert np.array_equal(
            verdicts, OutlierDetector._outlier_centres(detector, rows)
        )

    def test_centre_declines_on_a_left_distance_tie(self, monkeypatch):
        """2**53 - 0.25 rounds to 2**53: the centre's left neighbour 2**53
        sees 0.0 and 0.25 at one distance.  The centre kernel declines the
        row, and lof_scores gives the exact verdict."""
        values = np.array([0.0, 0.25, 2.0**53, 2.0**53 + 2, 2.0**53 + 4])
        detector = LOFDetector(k=2, threshold=1.25, min_population=3)
        reach = max(detector.locality, detector.min_population)
        row = np.full(2 * reach + 1, np.inf)
        row[: reach - 3] = -np.inf
        row[reach - 3 : reach + 2] = values
        rows = row[None]
        assert np.isnan(lof_centre_scores(rows, 2, 1.25)).all()
        calls = []

        def counted(values, k):
            calls.append(values.size)
            return lof_scores(values, k)

        monkeypatch.setattr(lof, "lof_scores", counted)
        assert detector.outlier_centres(rows).tolist() == [True]
        assert calls == [5]
        assert lof_scores(values, 2)[3] > 1.25
        assert np.array_equal(
            detector.outlier_centres(rows),
            OutlierDetector._outlier_centres(detector, rows),
        )

    def test_rejects_rows_of_k_or_fewer_values(self):
        rows = np.array([[-np.inf, 0.0, 1.0, 2.0, np.inf]])
        with pytest.raises(ValueError, match="more than k"):
            lof_window_scores(rows, 3, 1.5)
        assert not LOFDetector(k=3).outlier_centres(rows).any()


def centred_row(values: np.ndarray, centre: int, reach: int) -> np.ndarray:
    """The verifier's row for ``values[centre]``: ``reach`` values on each
    side of it, padded with -inf / +inf where ``values`` ends."""
    row = np.full(2 * reach + 1, np.inf)
    lo = max(0, centre - reach)
    window = values[lo : centre + reach + 1]
    left = reach - (centre - lo)
    row[:left] = -np.inf
    row[left : left + window.size] = window
    return row


class TestCentreKernel:
    """``lof_centre_scores`` against ``lof_scores``, and each condition on
    which it declines a row."""

    @given(case=st.one_of(centred_rows(), centred_rows(kinds=EXTREME_KINDS)))
    @settings(max_examples=200, deadline=None)
    def test_scores_match_lof_scores(self, case):
        """Where the kernel answers, it gives lof_scores' score of the
        row's centre among the row's finite values, to 1e-12 (relative)."""
        detector, rows = case
        k = detector.k
        scores = lof_centre_scores(rows, k, detector.threshold)
        centre = rows.shape[1] // 2
        for row, got in zip(rows, scores):
            finite = np.isfinite(row)
            if finite.sum() <= k or np.isnan(got):
                continue
            at = centre - np.count_nonzero(~finite[:centre])
            want = lof_scores(row[finite], k)[at]
            assert got == want or np.isclose(got, want, rtol=1e-12, atol=0.0)

    @given(case=centred_rows(kinds=EXTREME_KINDS))
    @settings(max_examples=200, deadline=None)
    def test_verdicts_match_row_by_row_on_extreme_values(self, case):
        """Densities that overflow or underflow, spreads that overflow and
        distinct values at one rounded distance: declined rows go to
        ``lof_scores``, so every verdict is still the row-by-row one."""
        detector, rows = case
        assert np.array_equal(
            detector.outlier_centres(rows),
            OutlierDetector._outlier_centres(detector, rows),
        )

    @pytest.mark.parametrize(
        "values, k, threshold, centre",
        [
            # Interior scores of a grid are exactly 1.
            (np.arange(13.0), 2, 1.0, 6),
            # The centre's mean reach is subnormal: its density overflows to
            # inf although it is no duplicate (lof_scores: inf / inf is 1).
            ([0.0, 0.0, 3e-323], 1, 1.5, 2),
            # The centre's only neighbour is further than the largest float.
            ([-1.7e308, 1.7e308], 1, 1.5, 1),
        ],
        ids=["score_at_the_threshold", "mean_reach_out_of_range", "overflowing_spread"],
    )
    def test_declines(self, values, k, threshold, centre):
        """Each row trips one condition alone: the kernel declines it, and
        the detector gives the row-by-row verdict."""
        detector = LOFDetector(k=k, threshold=threshold, min_population=k + 1)
        reach = max(detector.locality, detector.min_population)
        rows = centred_row(np.array(values, dtype=np.float64), centre, reach)[None]
        assert np.isnan(lof_centre_scores(rows, k, threshold)).all()
        assert np.array_equal(
            detector.outlier_centres(rows),
            OutlierDetector._outlier_centres(detector, rows),
        )

    def test_padded_rows_stay_on_the_kernel(self, rng):
        """Pads at any distance from the centre, on either side, decline
        nothing on ordinary values: a pad is never a window member, and a
        pad position's own checks never fire."""
        detector = LOFDetector(k=10)
        reach = max(detector.locality, detector.min_population)
        values = np.sort(np.concatenate([rng.normal(0.0, 1.0, 60), [-7.0, 9.0]]))
        centres = [*range(0, 2 * reach), *range(values.size - 2 * reach, values.size)]
        rows = np.stack([centred_row(values, c, reach) for c in centres])
        scores = lof_centre_scores(rows, 10, 1.5)
        assert not np.isnan(scores).any()
        for centre, got in zip(centres, scores):
            assert np.isclose(got, lof_scores(values, 10)[centre], rtol=1e-12, atol=0.0)
