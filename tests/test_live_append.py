"""Live append-only datasets: O(k) growth, bit-identical to a rebuild.

Every layer of the incremental path is pinned against its from-scratch
twin: ``Dataset.append`` against ``with_records``, the word-level index
update against a fresh ``PredicateMaskIndex`` (including appends that
cross a 64-bit word boundary), targeted profile invalidation with stale
write fencing, the engine's version-stamped releases against a fresh
engine built on the extended dataset, the HTTP append route, and the
process backend's live shared-memory rebind.
"""

import json
from collections import ChainMap
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.profiles import DEFAULT_CAPACITY, ProfileStore
from repro.core.verification import OutlierVerifier
from repro.data.generators import salary_reduced
from repro.data.masks import PredicateMaskIndex
from repro.exceptions import ContextError, DatasetError, SpecError
from repro.outliers.zscore import ZScoreDetector
from repro.runtime import ProcessBackend, plan_task_rngs
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

ZSCORE_KWARGS = {"z_threshold": 2.5, "min_population": 8}


def _spec(**overrides) -> PipelineSpec:
    base = dict(
        detector="zscore",
        detector_kwargs=ZSCORE_KWARGS,
        sampler="bfs",
        epsilon=0.5,
        n_samples=4,
    )
    base.update(overrides)
    return PipelineSpec(**base)


def sample_rows(dataset, count, start=0):
    """Valid append rows cloned from existing records (fresh ids assigned)."""
    ids = dataset.ids
    return [dataset.record(int(ids[(start + i) % len(ids)])) for i in range(count)]


def assert_datasets_identical(a, b):
    assert len(a) == len(b)
    assert a.ids.tolist() == b.ids.tolist()
    assert a.metric.tolist() == b.metric.tolist()
    for attr in a.schema.attributes:
        assert a.codes(attr.name).tolist() == b.codes(attr.name).tolist()
    assert a.all_record_bits().tolist() == b.all_record_bits().tolist()


# --------------------------------------------------------- Dataset.append


class TestDatasetAppend:
    def test_bit_identical_to_with_records(self, mini_dataset):
        rows = sample_rows(mini_dataset, 5)
        fast = mini_dataset.append(rows)
        slow = mini_dataset.with_records(rows)
        assert_datasets_identical(fast, slow)
        for rid in map(int, fast.ids):
            assert fast.position_of(rid) == slow.position_of(rid)
            assert fast.has_record(rid)
            assert fast.record_bits(rid) == slow.record_bits(rid)

    def test_empty_append_returns_self(self, mini_dataset):
        assert mini_dataset.append([]) is mini_dataset

    def test_warm_record_bits_cache_is_extended(self):
        dataset = salary_reduced(n_records=40, seed=2)
        dataset.all_record_bits()  # warm the cache
        rows = sample_rows(dataset, 3)
        appended = dataset.append(rows)
        # Extended in O(k), not recomputed — and exactly right.
        assert appended._record_bits_cache is not None
        assert (
            appended.all_record_bits().tolist()
            == dataset.with_records(rows).all_record_bits().tolist()
        )

    def test_cold_cache_stays_cold(self):
        dataset = salary_reduced(n_records=40, seed=2)
        appended = dataset.append(sample_rows(dataset, 3))
        assert appended._record_bits_cache is None

    def test_validation_matches_with_records(self, mini_dataset):
        good = sample_rows(mini_dataset, 1)[0]
        missing_attr = dict(good)
        some_attr = mini_dataset.schema.attributes[0].name
        del missing_attr[some_attr]
        with pytest.raises(DatasetError, match="record missing attribute"):
            mini_dataset.append([missing_attr])
        bad_value = dict(good, **{some_attr: "no-such-value"})
        with pytest.raises(DatasetError, match="not in domain"):
            mini_dataset.append([bad_value])
        missing_metric = dict(good)
        del missing_metric[mini_dataset.schema.metric.name]
        with pytest.raises(DatasetError, match="missing metric"):
            mini_dataset.append([missing_metric])
        non_finite = dict(good, **{mini_dataset.schema.metric.name: float("nan")})
        with pytest.raises(DatasetError, match="non-finite"):
            mini_dataset.append([non_finite])

    def test_id_map_depth_stays_bounded(self):
        dataset = salary_reduced(n_records=30, seed=4)
        current = dataset
        for i in range(20):
            current = current.append(sample_rows(current, 1, start=i))
        id_map = current._id_to_pos
        if isinstance(id_map, ChainMap):
            assert len(id_map.maps) <= current._ID_MAP_MAX_DEPTH
        # Lookups stay exact through flattening: every id, base and tail.
        for pos, rid in enumerate(map(int, current.ids)):
            assert current.position_of(rid) == pos
        assert not current.has_record(int(current.ids[-1]) + 1)

    def test_appended_ids_are_fresh_after_removal(self):
        dataset = salary_reduced(n_records=20, seed=4)
        highest = int(dataset.ids[-1])
        shrunk = dataset.without_records([highest])
        grown = shrunk.append(sample_rows(shrunk, 1))
        # The removed id is never recycled — ids stay stable forever.
        assert int(grown.ids[-1]) > highest


# ------------------------------------------------- PredicateMaskIndex.append


class TestIndexAppend:
    def test_matches_rebuild_at_every_version(self):
        dataset = salary_reduced(n_records=50, seed=6)
        index = PredicateMaskIndex(dataset)
        shadow = dataset
        rng = np.random.default_rng(11)
        probes = [int(b) for b in rng.integers(0, 1 << index.t, size=128)]
        for version, batch in enumerate([3, 1, 7, 64], start=1):
            rows = sample_rows(shadow, batch, start=version)
            index.append(rows)
            shadow = shadow.with_records(rows)
            rebuilt = PredicateMaskIndex(shadow)
            assert index.dataset_version == version
            assert np.array_equal(index.packed_matrix, rebuilt.packed_matrix)
            assert np.array_equal(
                index.population_sizes(probes), rebuilt.population_sizes(probes)
            )
            assert_datasets_identical(index.dataset, shadow)

    @pytest.mark.parametrize("detector", ["zscore", "lof"])
    def test_live_profiles_match_rebuild_at_every_version(self, detector):
        """Profiles served through a live engine after each append equal a
        from-scratch verifier's over the rebuilt dataset.  LOF gets its
        populations in metric order, so this also pins that the order is
        recomputed for every grown dataset, including rows whose values
        land strictly inside an existing population's value range.

        Record-bound reads (record-scoped verdicts for LOF) are checked at
        every version too, for base and appended records alike: stored
        before an append, they must be dropped wherever it grew their
        context's population."""
        from repro.core.verification import OutlierVerifier
        from repro.outliers import make_detector

        kwargs = {
            "zscore": ZSCORE_KWARGS,
            "lof": {"k": 4, "threshold": 1.3, "min_population": 8},
        }[detector]
        dataset = salary_reduced(n_records=300, seed=6)
        engine = ReleaseEngine(dataset)
        live = engine.verifier_for(make_detector(detector, **kwargs))
        rng = np.random.default_rng(4)
        probes = [int(b) for b in rng.integers(1, 1 << live.masks.t, size=96)]
        probes += [int(dataset.record_bits(int(r))) for r in dataset.ids[:32]]
        live.profiles(probes)  # warm the store and version 0's metric order
        records = [int(r) for r in dataset.ids[:12]]

        def check_record_bound(fresh):
            for rid in records:
                rbits = fresh.dataset.record_bits(rid)
                asked = [b for b in probes if (rbits & b) == rbits] + [rbits]
                want = [rid in fresh.profiles([b])[0][1] for b in asked]
                assert live.is_matching_many(asked, rid).tolist() == want
                assert [live.is_matching(b, rid) for b in asked] == want

        check_record_bound(OutlierVerifier(dataset, make_detector(detector, **kwargs)))
        shadow = dataset
        for version, batch in enumerate([3, 1, 7, 12], start=1):
            rows = sample_rows(shadow, batch, start=7 * version)
            for row in rows[::2]:
                # Halfway to the next larger metric value in the row's own
                # exact context: inside that population's range, no tie.
                pop = live.masks.population(shadow.schema.record_bits(row))[2]
                above = pop[pop > row["Salary"]]
                if above.size:
                    row["Salary"] = (row["Salary"] + above.min()) / 2.0
            records += engine.append(rows)["record_ids"]
            shadow = shadow.with_records(rows)
            fresh = OutlierVerifier(shadow, make_detector(detector, **kwargs))
            assert engine.masks.dataset_version == version
            check_record_bound(fresh)
            assert live.profiles(probes) == fresh.profiles(probes)
        assert any(profile[1] for profile in fresh.profiles(probes))
        engine.close()

    def test_append_across_word_boundary(self):
        # 63 records fit one uint64 word; appending 2 forces a second.
        dataset = salary_reduced(n_records=63, seed=8)
        index = PredicateMaskIndex(dataset)
        assert index.packed_matrix.shape[1] == 1
        rows = sample_rows(dataset, 2)
        index.append(rows)
        rebuilt = PredicateMaskIndex(dataset.with_records(rows))
        assert index.packed_matrix.shape[1] == 2
        assert np.array_equal(index.packed_matrix, rebuilt.packed_matrix)

    def test_verifier_follows_the_index_commit(self):
        """A verifier reads its dataset off its mask index: a committed
        append is visible to it at once, appended records included."""
        dataset = salary_reduced(n_records=30, seed=6)
        index = PredicateMaskIndex(dataset)
        detector = ZScoreDetector(z_threshold=1.0, min_population=4)
        verifier = OutlierVerifier(dataset, detector, index)
        grown = index.append(sample_rows(dataset, 2))
        assert verifier.dataset is grown
        fresh = OutlierVerifier(grown, detector)
        for rid in map(int, grown.ids[-2:]):
            bits = grown.record_bits(rid)
            assert verifier.is_matching(bits, rid) == fresh.is_matching(bits, rid)

    def test_stale_base_commit_rejected(self):
        dataset = salary_reduced(n_records=30, seed=6)
        index = PredicateMaskIndex(dataset)
        pending = index.prepare_append(sample_rows(dataset, 1))
        index.append(sample_rows(dataset, 1, start=5))
        with pytest.raises(ContextError, match="stale"):
            index.commit_append(pending)


# ------------------------------------------------- profile invalidation


class TestProfileInvalidation:
    def test_only_containing_contexts_dropped(self):
        store = ProfileStore(capacity=16)
        record_bits = 0b0011
        containing = 0b0111  # population could have grown
        disjoint = 0b0100  # cannot match the appended record
        store.put_many([(containing, (5, frozenset())), (disjoint, (3, frozenset()))])
        dropped = store.invalidate_matching([record_bits], version=1)
        assert dropped == 1
        assert store.peek(containing) is None
        assert store.peek(disjoint) == (3, frozenset())
        assert store.version == 1
        assert store.invalidations == 1

    def test_stale_put_fenced_out(self):
        store = ProfileStore(capacity=16)
        store.invalidate_matching([], version=1)
        store.put_many([(0b1, (2, frozenset()))], version=0)  # raced the append
        assert store.peek(0b1) is None
        assert store.stale_puts == 1
        store.put_many([(0b1, (2, frozenset()))], version=1)
        assert store.peek(0b1) == (2, frozenset())

    def test_version_never_goes_backwards(self):
        store = ProfileStore(capacity=4)
        store.invalidate_matching([], version=3)
        store.invalidate_matching([], version=1)
        assert store.version == 3


# ------------------------------------------------------- engine append


class TestEngineAppend:
    def test_release_after_append_matches_fresh_engine(
        self, mini_dataset, mini_outlier
    ):
        rows = sample_rows(mini_dataset, 8)
        live = ReleaseEngine(mini_dataset)
        request = ReleaseRequest(mini_outlier, _spec(), seed=17)
        before = live.submit(request)
        assert before.dataset_version == 0

        info = live.append(rows)
        assert info["appended"] == 8
        assert info["dataset_version"] == 1
        assert info["n_records"] == len(mini_dataset) + 8
        assert len(info["record_ids"]) == 8

        after = live.submit(ReleaseRequest(mini_outlier, _spec(), seed=17))
        fresh = ReleaseEngine(mini_dataset.with_records(rows))
        expected = fresh.submit(ReleaseRequest(mini_outlier, _spec(), seed=17))
        assert after.context.bits == expected.context.bits
        assert after.utility_value == expected.utility_value
        assert after.dataset_version == 1

        metrics = live.metrics()
        assert metrics.appends == 1
        assert metrics.dataset_version == 1

    def test_append_invalidates_only_matching_profiles(
        self, mini_dataset, mini_outlier
    ):
        engine = ReleaseEngine(mini_dataset)
        engine.submit(ReleaseRequest(mini_outlier, _spec(), seed=17))
        cached_before = engine.metrics().profiles_cached
        assert cached_before > 0
        # Appending a clone of an existing record invalidates the cached
        # profiles of exactly the contexts containing it — some survive.
        info = engine.append(sample_rows(mini_dataset, 1))
        assert 0 < info["invalidated_profiles"] <= cached_before

    def test_unseen_detector_mid_append_serves_the_grown_dataset(
        self, mini_dataset, monkeypatch
    ):
        """The engine's dataset is its index's: a verifier built right after
        the index commits an append, before ``append`` returns, serves the
        grown dataset."""
        engine = ReleaseEngine(mini_dataset)
        masks = engine.masks
        commit = masks.commit_append
        built = []

        def commit_then_build(pending):
            grown = commit(pending)
            detector = ZScoreDetector(z_threshold=3.0, min_population=5)
            built.append(engine.verifier_for(detector))
            return grown

        monkeypatch.setattr(masks, "commit_append", commit_then_build)
        engine.append(sample_rows(mini_dataset, 4))
        [verifier] = built
        assert len(engine.dataset) == len(mini_dataset) + 4
        assert verifier.dataset is engine.dataset

    def test_empty_append_is_a_noop(self, mini_dataset):
        engine = ReleaseEngine(mini_dataset)
        info = engine.append([])
        assert info == {
            "appended": 0,
            "record_ids": [],
            "n_records": len(mini_dataset),
            "dataset_version": 0,
            "invalidated_profiles": 0,
        }

    def test_ledger_charges_carry_dataset_version(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, budget=10.0)
        engine.submit(ReleaseRequest(mini_outlier, _spec(), seed=3))
        engine.append(sample_rows(mini_dataset, 1))
        engine.submit(ReleaseRequest(mini_outlier, _spec(), seed=4))
        labels = [label for label, _ in engine.accountant.ledger()]
        assert "dataset_v0" in labels[0]
        assert "dataset_v1" in labels[-1]


# ------------------------------------------------------------ HTTP route


class TestServerAppend:
    RECORDS = 300
    SEED = 3

    @pytest.fixture(scope="class")
    def server(self):
        from repro.server import PCORServer, ServerConfig

        config = ServerConfig.from_dict(
            {
                "server": {"port": 0},
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": self.RECORDS,
                        "seed": self.SEED,
                    }
                },
            }
        )
        with PCORServer(config) as srv:
            yield srv

    @pytest.fixture()
    def client(self, server):
        from repro.server import PCORClient

        return PCORClient(server.url, tenant="appender")

    def test_append_grows_dataset_and_bumps_version(self, client):
        dataset = salary_reduced(n_records=self.RECORDS, seed=self.SEED)
        summary = client.append("salary", sample_rows(dataset, 4))
        assert summary["dataset"] == "salary"
        assert summary["appended"] == 4
        assert summary["dataset_version"] == 1
        assert summary["n_records"] == self.RECORDS + 4
        assert len(summary["record_ids"]) == 4
        # A release against the grown dataset is stamped with the version.
        outlier = self._outlier(dataset)
        body = client.release(
            "salary",
            record_id=outlier,
            spec={
                "detector": "zscore",
                "detector_kwargs": ZSCORE_KWARGS,
                "sampler": "uniform",
                "epsilon": 0.1,
                "n_samples": 3,
            },
        )
        assert body["result"]["dataset_version"] == 1

    def test_bad_rows_are_400_and_commit_nothing(self, client):
        dataset = salary_reduced(n_records=self.RECORDS, seed=self.SEED)
        good = sample_rows(dataset, 1)[0]
        bad = dict(good)
        bad[dataset.schema.attributes[0].name] = "not-a-domain-value"
        with pytest.raises(SpecError, match="not in domain"):
            client.append("salary", [bad])
        with pytest.raises(SpecError, match="non-empty 'records' list"):
            client.append("salary", [])
        with pytest.raises(SpecError, match="unknown append field"):
            client._request(
                "POST",
                "/v1/datasets/salary/append",
                {"records": [good], "rows": [good]},
            )

    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_served_ledger_charges_carry_dataset_version(self, tmp_path, max_batch):
        """Direct and coalesced releases stamp their WAL charge with the
        dataset version they were admitted against."""
        from repro.server import PCORClient, PCORServer, ServerConfig

        dataset = salary_reduced(n_records=self.RECORDS, seed=self.SEED)
        config = ServerConfig.from_dict(
            {
                "server": {
                    "port": 0,
                    "ledger": "jsonl",
                    "ledger_dir": str(tmp_path),
                },
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": self.RECORDS,
                        "seed": self.SEED,
                        "max_batch": max_batch,
                    }
                },
            }
        )
        spec = {
            "detector": "zscore",
            "detector_kwargs": ZSCORE_KWARGS,
            "sampler": "uniform",
            "epsilon": 0.1,
            "n_samples": 3,
        }
        outlier = self._outlier(dataset)
        with PCORServer(config) as srv:
            client = PCORClient(srv.url, tenant="auditor")
            client.release("salary", record_id=outlier, spec=spec, seed=1)
            client.append("salary", sample_rows(dataset, 2))
            client.release("salary", record_id=outlier, spec=spec, seed=2)
            client.close()
        wal = (tmp_path / "salary.ledger.jsonl").read_text().splitlines()
        labels = [json.loads(line)["label"] for line in wal]
        assert len(labels) == 2
        assert labels[0].endswith(", dataset_v0)")
        assert labels[1].endswith(", dataset_v1)")

    @staticmethod
    def _outlier(dataset) -> int:
        from repro.core.verification import OutlierVerifier
        from repro.outliers.zscore import ZScoreDetector

        verifier = OutlierVerifier(
            dataset, ZScoreDetector(z_threshold=2.5, min_population=8)
        )
        for rid in map(int, dataset.ids):
            if verifier.is_matching(dataset.record_bits(rid), rid):
                return rid
        raise AssertionError("no contextual outlier in the test dataset")


# ------------------------------------------- process backend live rebind


class TestProcessBackendLiveRebind:
    def test_pool_survives_append_and_stays_bit_identical(
        self, mini_dataset, mini_outlier
    ):
        from multiprocessing import shared_memory

        def segment_exists(name: str) -> bool:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return False
            shm.close()
            return True

        engine = ReleaseEngine(mini_dataset, backend="process", workers=2)
        try:
            requests = [
                ReleaseRequest(mini_outlier, _spec(), seed=s) for s in (1, 2)
            ]
            engine.submit_many(requests)
            pool = engine.backend._pool
            initial_segment = engine.backend._export.shm.name

            engine.append(sample_rows(mini_dataset, 4))
            live = engine.submit_many(
                [ReleaseRequest(mini_outlier, _spec(), seed=s) for s in (1, 2)]
            )
            # Same worker pool, new shared segment alongside the initial
            # one (late-spawning workers may still need the original).
            assert engine.backend._pool is pool
            new_segment = engine.backend._export.shm.name
            assert new_segment != initial_segment
            assert segment_exists(initial_segment)
            assert segment_exists(new_segment)
            assert engine.backend._export.handle.dataset_version == 1

            fresh = ReleaseEngine(mini_dataset.with_records(sample_rows(mini_dataset, 4)))
            expected = fresh.submit_many(
                [ReleaseRequest(mini_outlier, _spec(), seed=s) for s in (1, 2)]
            )
            assert [r.context.bits for r in live] == [
                r.context.bits for r in expected
            ]
            assert all(r.dataset_version == 1 for r in live)
        finally:
            engine.close()
        assert not segment_exists(initial_segment)
        assert not segment_exists(new_segment)

    def test_workers_bind_one_index_snapshot(self, mini_dataset, mini_reference):
        """Workers attach the rows, matrix and version of one snapshot of
        the engine's index, even when a ``dataset`` attribute lags it."""
        rows = sample_rows(mini_dataset, 4)
        masks = PredicateMaskIndex(mini_dataset)
        masks.append(rows)
        lagging = SimpleNamespace(
            dataset=mini_dataset, masks=masks, profile_capacity=DEFAULT_CAPACITY
        )
        serial = ReleaseEngine(mini_dataset, backend="serial")
        serial.append(rows)
        records = mini_reference.outlier_records()[:4]
        backend = ProcessBackend(workers=2)
        try:
            for first_seed in (1, 11):  # the first batch binds, the next reuses
                requests = [
                    ReleaseRequest(rid, _spec(), seed=first_seed + i)
                    for i, rid in enumerate(records)
                ]
                outcomes = [None] * len(requests)
                backend.run_releases(
                    lagging,
                    requests,
                    plan_task_rngs([r.seed for r in requests]),
                    outcomes.__setitem__,
                )
                expected = serial.execute_many(requests)
                assert [
                    (r.record_id, r.context.bits, r.utility_value, r.dataset_version)
                    for r in outcomes
                ] == [
                    (r.record_id, r.context.bits, r.utility_value, r.dataset_version)
                    for r in expected
                ]
        finally:
            backend.close()
