"""Record-scoped verdicts: ``f_M`` for one record from its metric-order window.

For a detector with a finite ``locality`` (LOF), a record-bound read that
misses the store scores only the record's window of the population, in a
lone release and in a batch alike.  Its verdict must be the full profile's
for every finite input.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitops import pack_bool_matrix, popcount_words
from repro.context import ContextSpace
from repro.core.profiles import ProfileStore
from repro.core.verification import OutlierVerifier, _centred_windows
from repro.data.generators import (
    SALARY_EMPLOYERS,
    SALARY_JOB_TITLES,
    SALARY_YEARS,
    salary_reduced,
)
from repro.data.masks import PredicateMaskIndex
from repro.data.table import Dataset
from repro.outliers import LOFDetector, ZScoreDetector
from repro.schema import CategoricalAttribute, MetricAttribute, Schema
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

# The LOF kernels these reads reach compute inf - inf and the like on
# padded rows under np.errstate; a lost guard fails here, not as a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: The micro schema of ``conftest.py``: three attributes of three values.
SCHEMA = Schema(
    attributes=[
        CategoricalAttribute("Jobtitle", SALARY_JOB_TITLES[:3]),
        CategoricalAttribute("Employer", SALARY_EMPLOYERS[:3]),
        CategoricalAttribute("Year", SALARY_YEARS[:3]),
    ],
    metric=MetricAttribute("Salary"),
)
ALL_CONTEXTS = range(1 << SCHEMA.t)


@st.composite
def lof_cases(draw):
    """A mini-schema dataset with duplicate-heavy, bimodal or arbitrary
    metric values, plus an LOF detector with k from 1 to 15."""
    n = draw(st.integers(12, 140))
    codes = {
        attr.name: np.array(
            draw(st.lists(st.integers(0, len(attr) - 1), min_size=n, max_size=n))
        )
        for attr in SCHEMA.attributes
    }
    kind = draw(st.sampled_from(["runs", "bimodal", "floats"]))
    if kind == "runs":
        element = st.integers(0, 4).map(float)
    elif kind == "bimodal":
        element = st.one_of(st.floats(0.0, 1.0), st.floats(100.0, 100.5))
    else:
        element = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    metric = draw(st.lists(element, min_size=n, max_size=n))
    k = draw(st.integers(1, 15))
    floor = draw(st.sampled_from([None, k + 1, 3 * k + 1, 3 * k + 7]))
    threshold = draw(st.sampled_from([1.1, 1.3, 1.5]))
    dataset = Dataset.from_codes(SCHEMA, codes, metric)
    return dataset, LOFDetector(k=k, threshold=threshold, min_population=floor)


def probe_records(dataset, data):
    """The records at either end of the metric order plus two drawn ones."""
    order = dataset.metric_order()
    ids = dataset.ids
    picks = [int(ids[order[0]]), int(ids[order[-1]])]
    picks += data.draw(
        st.lists(st.sampled_from(ids.tolist()), min_size=2, max_size=2)
    )
    return list(dict.fromkeys(int(r) for r in picks))


def truth(full: OutlierVerifier, bits, rid) -> bool:
    return rid in full.profiles([bits])[0][1]


class TestRecordScopedVerdicts:
    @given(case=lof_cases(), data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_equal_full_profile_membership(self, case, data):
        dataset, detector = case
        full = OutlierVerifier(dataset, detector)
        records = probe_records(dataset, data)
        batched = OutlierVerifier(dataset, detector, mask_index=full.masks)
        scalar = OutlierVerifier(dataset, detector, mask_index=full.masks)
        for rid in records:
            want = np.array([truth(full, bits, rid) for bits in ALL_CONTEXTS])
            got = batched.is_matching_many(ALL_CONTEXTS, rid)
            assert np.array_equal(got, want)
            assert [scalar.is_matching(bits, rid) for bits in ALL_CONTEXTS] == list(
                want
            )
            # Record-bound reads of any context agree on membership, and
            # population sizes are exact.
            got_profiles = batched.profiles(ALL_CONTEXTS, record_id=rid)
            full_profiles = full.profiles(ALL_CONTEXTS)
            assert [p[0] for p in got_profiles] == [p[0] for p in full_profiles]
            assert [rid in p[1] for p in got_profiles] == [
                rid in p[1] for p in full_profiles
            ]

    @pytest.mark.parametrize("in_batch", [False, True])
    def test_batch_flag_decides_the_key_kind(self, mini_dataset, in_batch):
        """LOF releases of several records answer every miss record-scoped
        whether they run as one ``execute_many`` batch or one ``execute``
        at a time: the store holds no full profile, and each entry counts
        one run charged to its release."""
        lof = {"k": 4, "threshold": 1.3, "min_population": 8}
        probe = OutlierVerifier(mini_dataset, LOFDetector(**lof))
        records = [
            rid
            for rid in map(int, mini_dataset.ids)
            if probe.is_matching(mini_dataset.record_bits(rid), rid)
        ][:3]
        assert len(records) == 3
        spec = PipelineSpec(
            detector="lof", detector_kwargs=lof, sampler="bfs",
            n_samples=6, epsilon=0.5,
        )
        engine = ReleaseEngine(mini_dataset, backend="serial")
        requests = [ReleaseRequest(rid, spec, seed=rid) for rid in records]
        if in_batch:
            results = engine.execute_many(requests)
        else:
            results = [engine.execute(request) for request in requests]
        verifier = engine.verifier_for(spec.build_detector())
        store = verifier.profile_store
        assert len(store) > 0
        assert not any(bits in store for bits in ALL_CONTEXTS)
        assert len(store) == verifier.fm_evaluations
        assert sum(r.fm_evaluations for r in results) == verifier.fm_evaluations


class TestStore:
    def test_record_free_reads_never_see_scoped_entries(self, mini_dataset):
        detector = LOFDetector(k=4, threshold=1.3, min_population=8)
        verifier = OutlierVerifier(mini_dataset, detector)
        rid = int(mini_dataset.ids[0])
        bits = mini_dataset.record_bits(rid)
        verifier.is_matching(bits, rid)
        store = verifier.profile_store
        assert len(store) == 1 and bits not in store and store.peek(bits) is None
        store.reset_counters()
        # A record-free read computes the full profile; a record-bound read
        # then prefers it.  One logical read counts one hit or one miss.
        full = verifier.context_profile(bits)
        assert (store.hits, store.misses) == (0, 1)
        assert store.get_many([bits], rid)[0] is full
        assert store.get_many([bits], rid + 1)[0] is full
        assert (store.hits, store.misses) == (2, 1)
        assert store.get_many([bits ^ 1], rid) == [None]
        assert (store.hits, store.misses) == (2, 2)

    def test_batched_reads_count_like_per_key_reads(self):
        """``get_many`` counts one hit per answered key and one miss per
        distinct missing key; record-free batches never see scoped
        entries."""
        store = ProfileStore()
        store.put_many([(0b001, (3, frozenset()))])
        store.put_many([(0b011, (2, frozenset({5})))], record_id=5)
        got = store.get_many([0b001, 0b011, 0b111, 0b001, 0b111], record_id=5)
        assert got == [(3, frozenset()), (2, frozenset({5})), None, (3, frozenset()), None]
        assert (store.hits, store.misses) == (3, 1)
        assert store.get_many([0b011, 0b001]) == [None, (3, frozenset())]
        assert store.get_many([0b011], record_id=6) == [None]
        assert (store.hits, store.misses) == (4, 3)

    def test_scoped_entry_answers_only_its_record(self):
        store = ProfileStore()
        store.put_many([(0b101, (4, frozenset({7})))], record_id=7)
        assert store.get_many([0b101], record_id=7) == [(4, frozenset({7}))]
        assert store.get_many([0b101], record_id=8) == [None]
        assert store.get_many([0b101]) == [None] and 0b101 not in store

    def test_invalidation_reads_the_bits_of_scoped_keys(self):
        store = ProfileStore()
        store.put_many([(0b011, (4, frozenset()))], record_id=1)
        store.put_many([(0b110, (4, frozenset({2})))], record_id=2)
        store.put_many([(0b011, (9, frozenset()))])
        assert store.invalidate_matching([0b001], version=1) == 2
        assert store.get_many([0b110], record_id=2) == [(4, frozenset({2}))]
        assert store.get_many([0b011], record_id=1) == [None]
        # The version fence applies to scoped writes too, entry by entry.
        store.put_many(
            [(0b011, (4, frozenset())), (0b111, (5, frozenset()))],
            version=0,
            record_id=1,
        )
        assert store.get_many([0b011, 0b111], record_id=1) == [None, None]
        assert store.stale_puts == 2

    def test_detectors_without_locality_store_full_profiles(self, mini_dataset):
        verifier = OutlierVerifier(mini_dataset, ZScoreDetector(z_threshold=2.5))
        rid = int(mini_dataset.ids[0])
        bits = mini_dataset.record_bits(rid)
        verifier.is_matching(bits, rid)
        assert bits in verifier.profile_store

    def test_unknown_record_raises_on_a_miss(self, mini_dataset):
        from repro.exceptions import VerificationError

        verifier = OutlierVerifier(mini_dataset, LOFDetector(k=3))
        with pytest.raises(VerificationError, match="not in dataset"):
            verifier.profiles([0b111111111], record_id=10**9)
        # No detector ran, so no f_M run is counted.
        assert verifier.fm_evaluations == 0
        assert verifier.local_fm_evaluations == 0


class TestCounting:
    def test_one_run_per_uncached_question(self, mini_dataset):
        detector = LOFDetector(k=4, threshold=1.3, min_population=8)
        verifier = OutlierVerifier(mini_dataset, detector)
        rid = int(mini_dataset.ids[3])
        rbits = mini_dataset.record_bits(rid)
        containing = [b for b in ALL_CONTEXTS if (rbits & b) == rbits]
        verifier.is_matching_many(containing + containing[:5], rid)
        assert verifier.fm_evaluations == len(containing)
        assert verifier.fm_queries == len(containing) + 5
        verifier.is_matching_many(containing, rid)
        assert verifier.fm_evaluations == len(containing)

    @pytest.mark.parametrize("k, floor", [(2, 8), (4, 5), (3, 15)])
    def test_detector_sees_exactly_the_records_window(
        self, mini_dataset, monkeypatch, k, floor
    ):
        """Each record-scoped run hands the detector one row centred on the
        record whose finite values are the ``max(locality, min_population)``
        population members either side of it in metric order, clipped
        where the population ends."""
        detector = LOFDetector(k=k, threshold=1.3, min_population=floor)
        seen = []
        original = LOFDetector.outlier_centres

        def recording(self, windows):
            seen.extend(np.array(windows))
            return original(self, windows)

        monkeypatch.setattr(LOFDetector, "outlier_centres", recording)
        verifier = OutlierVerifier(mini_dataset, detector)
        rid = int(mini_dataset.ids[5])
        rbits = mini_dataset.record_bits(rid)
        containing = [b for b in ALL_CONTEXTS if (rbits & b) == rbits]
        verifier.is_matching_many(containing, rid)

        reach = max(3 * k, floor)
        slot = mini_dataset.position_of(rid)
        expected = []
        for bits in containing:
            plain = np.flatnonzero(verifier.masks.population_mask(bits))
            positions = plain[np.argsort(mini_dataset.metric[plain], kind="stable")]
            i = int(np.flatnonzero(positions == slot)[0])
            lo = max(0, i - reach)
            window = positions[lo : i + reach + 1]
            expected.append((reach - (i - lo), mini_dataset.metric[window]))
        assert len(seen) == len(expected)
        for row, (left, want) in zip(seen, expected):
            assert row.shape == (2 * reach + 1,)
            assert np.array_equal(row[left : left + want.size], want)
            assert (row[:left] == -np.inf).all()
            assert (row[left + want.size :] == np.inf).all()


class TestWindows:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_a_slice_of_its_population(self, data):
        """``_centred_windows`` against slicing each population's members in
        metric order: masks of up to a dozen words, populations from a few
        members to every record, the record at any rank, windows clipped
        where a population ends, and populations it skips."""
        n = data.draw(st.integers(1, 700), label="n")
        rank = data.draw(st.integers(0, n - 1), label="rank")
        reach = data.draw(st.integers(1, 40), label="reach")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        density = st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0])
        densities = data.draw(
            st.lists(density, min_size=1, max_size=8), label="densities"
        )
        masks = np.array([rng.random(n) < d for d in densities])
        held = data.draw(
            st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)),
            label="held",
        )
        masks[:, rank] = held
        packed = pack_bool_matrix(masks)
        cum = np.zeros(packed.size + 1, dtype=np.int64)
        np.cumsum(popcount_words(packed).reshape(-1), out=cum[1:])
        rows = np.flatnonzero(held)
        if not rows.size:
            return
        metric = rng.normal(0.0, 1.0, n)
        order = np.argsort(metric, kind="stable")
        got = _centred_windows(packed, cum, rows, rank, reach, metric, order)
        assert got.shape == (rows.size, 2 * reach + 1)
        for row, b in zip(got, rows):
            members = np.flatnonzero(masks[b])
            i = int(np.searchsorted(members, rank))
            lo = max(0, i - reach)
            window = members[lo : i + reach + 1]
            left = reach - (i - lo)
            assert (row[:left] == -np.inf).all()
            assert np.array_equal(row[left : left + window.size], metric[order[window]])
            assert (row[left + window.size :] == np.inf).all()


class TestWarmRelease:
    def test_repeated_lone_release_stays_off_the_miss_path(self, monkeypatch):
        """A second identical lone LOF release on one engine reads every
        verdict the first one stored, record-scoped ones included: it makes
        no f_M run and reaches neither the record-scoped verifier call nor
        the detector.  So warm release loops never time that call."""
        dataset = salary_reduced(n_records=2_000, seed=7)
        spec = PipelineSpec(
            detector="lof", detector_kwargs={"k": 10}, sampler="bfs",
            n_samples=50, epsilon=0.2, utility="population_size",
        )
        probe = OutlierVerifier(dataset, spec.build_detector())
        rid = next(
            int(r) for r in dataset.ids
            if probe.is_matching(dataset.record_bits(int(r)), int(r))
        )
        calls = []

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            OutlierVerifier, "_record_chunk",
            counted("record_chunk", OutlierVerifier._record_chunk),
        )
        monkeypatch.setattr(
            LOFDetector, "outlier_centres",
            counted("outlier_centres", LOFDetector.outlier_centres),
        )
        request = ReleaseRequest(record_id=rid, spec=spec, seed=1)
        with ReleaseEngine(dataset) as engine:
            first = engine.submit(request)
            assert first.fm_evaluations > 0
            assert {"record_chunk", "outlier_centres"} <= set(calls)
            calls.clear()
            again = engine.submit(request)
        assert again.context.bits == first.context.bits
        assert again.fm_evaluations == 0
        assert calls == []


class TestLargeK:
    def test_batch_peaks_like_one_window(self):
        """At k=400 a window holds 2,401 values and the window kernel's
        temporaries ~18 MB.  A cold ``is_matching_many`` over eight large
        populations holding a mid-order record scores all eight windows in
        one detector call, but in sub-batches, so its traced peak stays
        within 1.5x that of scoring one of those windows alone (without
        sub-batches it was ~8x)."""
        dataset = salary_reduced(n_records=20_000, seed=7)
        detector = LOFDetector(k=400)
        reach = max(detector.locality, detector.min_population)
        order = dataset.metric_order()
        rid = int(dataset.ids[order[len(order) // 2]])
        index = PredicateMaskIndex(dataset)
        containing = [
            c.bits
            for c in ContextSpace(dataset.schema).enumerate_containing(
                dataset.record_bits(rid)
            )
        ]
        sizes = index.population_sizes(containing)
        contexts = [containing[i] for i in np.argsort(-sizes, kind="stable")[:8]]
        slot = dataset.position_of(rid)
        windows = []
        for bits in contexts:
            plain = np.flatnonzero(index.population_mask(bits))
            positions = plain[np.argsort(dataset.metric[plain], kind="stable")]
            i = int(np.flatnonzero(positions == slot)[0])
            windows.append(dataset.metric[positions[max(0, i - reach) : i + reach + 1]])
        assert all(w.size == 2 * reach + 1 for w in windows)
        want = [reach in detector.outlier_positions(w) for w in windows]

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = traced_peak(lambda: detector.outlier_positions(windows[0]))
        verifier = OutlierVerifier(dataset, detector)
        got = []
        batch = traced_peak(lambda: got.append(verifier.is_matching_many(contexts, rid)))
        assert list(got[0]) == want
        assert batch <= 1.5 * one, f"{batch / 1e6:.1f} MB vs {one / 1e6:.1f} MB"
