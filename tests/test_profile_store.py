"""Unit tests for the bounded LRU profile store and its shared registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiles import ProfileStore, shared_profile_store
from repro.core.verification import OutlierVerifier
from repro.outliers.zscore import ZScoreDetector


class TestProfileStore:
    def test_get_put_roundtrip(self):
        store = ProfileStore(capacity=4)
        assert store.get(1) is None
        store.put(1, (10, frozenset({3})))
        assert store.get(1) == (10, frozenset({3}))

    def test_hit_miss_counters(self):
        store = ProfileStore(capacity=4)
        store.get(1)
        store.put(1, (1, frozenset()))
        store.get(1)
        store.get(2)
        assert store.misses == 2
        assert store.hits == 1

    def test_capacity_evicts_lru(self):
        store = ProfileStore(capacity=2)
        store.put(1, (1, frozenset()))
        store.put(2, (2, frozenset()))
        store.get(1)  # refresh 1: now 2 is least recently used
        store.put(3, (3, frozenset()))
        assert store.evictions == 1
        assert 2 not in store
        assert 1 in store and 3 in store

    def test_peek_does_not_touch_state(self):
        store = ProfileStore(capacity=2)
        store.put(1, (1, frozenset()))
        store.put(2, (2, frozenset()))
        store.peek(1)  # no LRU refresh
        store.put(3, (3, frozenset()))
        assert 1 not in store  # 1 stayed least recently used
        assert store.hits == 0 and store.misses == 0

    def test_stats_and_reset(self):
        store = ProfileStore(capacity=2)
        store.get(1)
        store.put(1, (1, frozenset()))
        snap = store.stats()
        assert snap["size"] == 1
        assert snap["misses"] == 1
        store.reset_counters()
        assert store.stats()["misses"] == 0
        assert len(store) == 1  # counters reset, contents kept

    def test_clear(self):
        store = ProfileStore(capacity=2)
        store.put(1, (1, frozenset()))
        store.clear()
        assert len(store) == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ProfileStore(capacity=0)


def loop_invalidate(store, record_bits_seq, version):
    """The per-key Python scan ``invalidate_matching`` ran before its one
    vectorised containment test, kept here as the reference."""
    bits_list = [int(b) for b in record_bits_seq]
    with store._lock:
        store._version = max(store._version, int(version))
        stale = []
        for key in store._profiles:
            bits = key[0] if key.__class__ is tuple else key
            if any((rbits & bits) == rbits for rbits in bits_list):
                stale.append(key)
        for key in stale:
            del store._profiles[key]
        store.invalidations += len(stale)
        return len(stale)


@st.composite
def stores_and_appends(draw):
    """A store mixing full and record-scoped keys over ``t``-bit contexts
    (``t`` up to 70, so some exceed 64 bits), and appended records whose
    bits are often contained in a key's."""
    t = draw(st.integers(1, 70))
    contexts = st.integers(0, (1 << t) - 1)
    keys = draw(
        st.lists(
            st.tuples(contexts, st.none() | st.integers(0, 50)),
            max_size=40,
        )
    )
    records = []
    for _ in range(draw(st.integers(0, 5))):
        if keys and draw(st.booleans()):
            # A subset of some key's context bits: contained in that key.
            bits = draw(st.sampled_from(keys))[0]
            records.append(bits & draw(contexts))
        else:
            records.append(draw(contexts))
    return keys, records


class TestInvalidateMatching:
    @settings(max_examples=200, deadline=None)
    @given(stores_and_appends())
    def test_matches_the_per_key_scan(self, case):
        keys, records = case
        fast, reference = ProfileStore(), ProfileStore()
        for store in (fast, reference):
            for i, (bits, record_id) in enumerate(keys):
                store.put(bits, (i, frozenset()), record_id=record_id)
        assert fast.invalidate_matching(records, 1) == loop_invalidate(
            reference, records, 1
        )
        assert list(fast._profiles.items()) == list(reference._profiles.items())
        assert fast.stats() == reference.stats()

    @pytest.mark.parametrize("t", [64, 65, 200])
    def test_contexts_wider_than_64_bits(self, t):
        store = ProfileStore()
        top = 1 << (t - 1)
        store.put(top | 0b11, (1, frozenset()))  # contains the record
        store.put(0b11, (1, frozenset()))
        store.put(top | 0b01, (1, frozenset()), record_id=7)  # contains it
        store.put(top | 0b10, (1, frozenset()), record_id=3)
        assert store.invalidate_matching([top | 0b01], 1) == 2
        assert list(store._profiles) == [0b11, (top | 0b10, 3)]
        assert store.invalidations == 2
        # A record wider than every key is contained in none of them.
        narrow = ProfileStore()
        narrow.put(0b11, (1, frozenset()))
        assert narrow.invalidate_matching([top | 0b01], 1) == 0
        assert 0b11 in narrow


class TestSharedRegistry:
    def test_same_pair_shares_store(self, mini_dataset):
        a = shared_profile_store(mini_dataset, ZScoreDetector(z_threshold=2.0))
        b = shared_profile_store(mini_dataset, ZScoreDetector(z_threshold=2.0))
        assert a is b

    def test_different_detector_config_separates(self, mini_dataset):
        a = shared_profile_store(mini_dataset, ZScoreDetector(z_threshold=2.0))
        b = shared_profile_store(mini_dataset, ZScoreDetector(z_threshold=3.0))
        assert a is not b

    def test_different_dataset_separates(self, mini_dataset, tiny_dataset):
        det = ZScoreDetector(z_threshold=2.0)
        assert shared_profile_store(mini_dataset, det) is not shared_profile_store(
            tiny_dataset, det
        )

    def test_verifiers_share_profiles_through_store(self, mini_dataset, mini_detector):
        store = ProfileStore()
        a = OutlierVerifier(mini_dataset, mini_detector, profile_store=store)
        b = OutlierVerifier(mini_dataset, mini_detector, profile_store=store)
        bits = mini_dataset.schema.full_bits
        a.context_profile(bits)
        evals_before = b.fm_evaluations
        b.context_profile(bits)  # cache hit via the shared store
        assert b.fm_evaluations == evals_before

    def test_default_verifier_store_is_private(self, mini_dataset, mini_detector):
        a = OutlierVerifier(mini_dataset, mini_detector)
        b = OutlierVerifier(mini_dataset, mini_detector)
        assert a.profile_store is not b.profile_store


class TestDetectorFingerprint:
    def test_callable_configs_never_collide(self, mini_dataset):
        """Detectors configured with distinct callables (address-based reprs)
        must not share a store, even though their reprs could coincide."""
        from repro.outliers.zscore import ZScoreDetector

        def make_detector(fn):
            det = ZScoreDetector(z_threshold=2.0)
            det.transform = fn  # user extension carrying a callable
            return det

        a = shared_profile_store(mini_dataset, make_detector(lambda v: v))
        b = shared_profile_store(mini_dataset, make_detector(lambda v: v + 1))
        assert a is not b

    def test_ndarray_configs_compared_by_contents(self, mini_dataset):
        from repro.outliers.zscore import ZScoreDetector
        import numpy as np

        def make_detector(arr):
            det = ZScoreDetector(z_threshold=2.0)
            det.weights = arr
            return det

        big = np.arange(5000, dtype=np.float64)
        tweaked = big.copy()
        tweaked[2500] = -1.0  # elided from repr() of a large array
        assert shared_profile_store(
            mini_dataset, make_detector(big)
        ) is not shared_profile_store(mini_dataset, make_detector(tweaked))
        assert shared_profile_store(
            mini_dataset, make_detector(big)
        ) is shared_profile_store(mini_dataset, make_detector(big.copy()))
