"""Concurrency stress tests for the lock-protected shared state.

Concurrent engine callers (HTTP handler threads, a request coalescer's
flusher, any threads sharing one engine) hammer two shared structures: the
bounded-LRU :class:`ProfileStore` and the :class:`PrivacyAccountant`
ledger.  These tests drive both from many threads and assert the
invariants that unsynchronised code breaks: the store never exceeds its
capacity and never loses counter updates; the accountant never overdraws
and never double-charges.  A dataset's lazily computed metric order is
shared the same way (unlocked: racing first calls may each compute it, but
every caller must get the whole order), and so are the metric ranks and an
index snapshot's metric-ordered mask copy behind record-scoped reads.
Batched and lone releases racing on one engine share its verifier and
store, and must release what each releases alone.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.profiles import ProfileStore
from repro.exceptions import PrivacyBudgetError
from repro.mechanisms.accounting import PrivacyAccountant
from repro.server.tenants import TenantBudgets

N_THREADS = 8
OPS_PER_THREAD = 400


class TestMetricOrderUnderContention:
    def test_racing_first_calls_all_get_the_whole_order(self):
        from repro.data.generators import salary_reduced

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(4):
                dataset = salary_reduced(n_records=2_000, seed=seed)
                expected = np.argsort(dataset.metric, kind="stable")
                barrier = threading.Barrier(N_THREADS)

                def grab(_):
                    barrier.wait(timeout=30)
                    return dataset.metric_order()

                with ThreadPoolExecutor(N_THREADS) as pool:
                    orders = list(pool.map(grab, range(N_THREADS)))
                for order in orders + [dataset.metric_order()]:
                    assert np.array_equal(order, expected)
        finally:
            sys.setswitchinterval(previous)


class TestRecordScopedFirstReadsUnderContention:
    def test_racing_first_reads_get_full_profile_verdicts(self):
        """Eight threads make the first record-scoped reads on a fresh
        dataset and index, so they race to build the metric order, the
        metric ranks and the metric-ordered mask copy; every thread must
        get the verdicts of full profiles."""
        from repro.context import ContextSpace
        from repro.core.verification import OutlierVerifier
        from repro.data.generators import salary_reduced
        from repro.data.masks import PredicateMaskIndex
        from repro.outliers import LOFDetector

        detector = LOFDetector(k=5, threshold=1.3)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                dataset = salary_reduced(n_records=2_000, seed=seed)
                space = ContextSpace(dataset.schema)
                records = [int(r) for r in dataset.ids[:: 250][:N_THREADS]]
                asked = {
                    rid: [
                        c.bits
                        for c in space.enumerate_containing(dataset.record_bits(rid))
                    ][::8]
                    for rid in records
                }
                full = OutlierVerifier(dataset, detector)
                want = {
                    rid: [rid in p[1] for p in full.profiles(bits)]
                    for rid, bits in asked.items()
                }
                fresh = dataset.without_positions([])
                shared = OutlierVerifier(fresh, detector, mask_index=PredicateMaskIndex(fresh))
                barrier = threading.Barrier(N_THREADS)

                def read(rid):
                    barrier.wait(timeout=30)
                    return list(shared.is_matching_many(asked[rid], rid))

                with ThreadPoolExecutor(N_THREADS) as pool:
                    got = dict(zip(records, pool.map(read, records)))
                assert got == want
                assert shared.fm_evaluations == sum(len(b) for b in asked.values())
        finally:
            sys.setswitchinterval(previous)


class TestDirectReleasesUnderContention:
    def test_each_release_counts_only_its_own_detector_runs(self, mini_dataset):
        """Eight threads release distinct records through one DirectPCOR on
        one fresh LOF verifier.  LOF reads are record-scoped, so records
        share no profiles: every release must report the detector runs of
        the same release run alone, however the threads interleave."""
        from repro.core.direct import DirectPCOR
        from repro.core.reference import ReferenceFile
        from repro.core.utility import PopulationSizeUtility
        from repro.core.verification import OutlierVerifier
        from repro.outliers import LOFDetector

        detector = LOFDetector(k=5, threshold=1.5)
        reference = ReferenceFile.build(OutlierVerifier(mini_dataset, detector))
        records = reference.outlier_records()[::20][:N_THREADS]
        assert len(records) == N_THREADS

        def release(direct, rid):
            utility = PopulationSizeUtility(direct.verifier, rid)
            return direct.release(utility, rid, rid).fm_evaluations

        solo = {
            rid: release(DirectPCOR(OutlierVerifier(mini_dataset, detector)), rid)
            for rid in records
        }
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared = OutlierVerifier(mini_dataset, detector)
                direct = DirectPCOR(shared)
                barrier = threading.Barrier(N_THREADS)

                def run(rid):
                    barrier.wait(timeout=30)
                    return release(direct, rid)

                with ThreadPoolExecutor(N_THREADS) as pool:
                    got = dict(zip(records, pool.map(run, records)))
                assert got == solo
                assert shared.fm_evaluations == sum(solo.values())
        finally:
            sys.setswitchinterval(previous)


def release_key(r):
    """Everything a release decided, minus cache-dependent counters."""
    return (
        r.record_id,
        r.context.bits,
        r.utility_value,
        r.n_candidates,
        None if r.starting_context is None else r.starting_context.bits,
        r.stats.candidates_collected,
        r.stats.contexts_examined,
        r.stats.steps,
    )


class TestBatchedReleasesUnderContention:
    def test_batches_and_lone_releases_share_one_engine(self, mini_dataset):
        """Three threads run two-record LOF batches (``execute_many``)
        while two more submit lone releases of other records, all at once
        on one serial engine's verifier and store.  LOF answers every
        record-bound miss record-scoped, so releases of distinct records
        share no verdicts: every release must be what a fresh engine
        releases for its seed, at exactly the detector runs it costs
        there, and the shared verifier must run exactly as many detectors
        as the fresh engines together."""
        from repro.core.reference import ReferenceFile
        from repro.core.verification import OutlierVerifier
        from repro.outliers import LOFDetector
        from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

        lof = {"k": 5, "threshold": 1.5}
        reference = ReferenceFile.build(
            OutlierVerifier(mini_dataset, LOFDetector(**lof))
        )
        records = reference.outlier_records()[::20][:8]
        assert len(records) == 8
        spec = PipelineSpec(
            detector="lof",
            detector_kwargs=lof,
            sampler="bfs",
            epsilon=0.5,
            n_samples=5,
        )
        requests = [ReleaseRequest(rid, spec, seed=1000 + rid) for rid in records]
        # Three two-record batches, then two lone releases.
        jobs = [requests[i : i + 2] for i in (0, 2, 4)] + [requests[6:7], requests[7:8]]

        solo, solo_runs = {}, 0
        for request in requests:
            engine = ReleaseEngine(mini_dataset, backend="serial")
            solo[request.record_id] = engine.submit(request)
            solo_runs += engine.verifier_for(spec.build_detector()).fm_evaluations

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                engine = ReleaseEngine(mini_dataset, backend="serial")
                barrier = threading.Barrier(len(jobs))

                def run(job):
                    barrier.wait(timeout=30)
                    if len(job) > 1:
                        return engine.execute_many(job)
                    return [engine.submit(job[0])]

                with ThreadPoolExecutor(len(jobs)) as pool:
                    got = [r for results in pool.map(run, jobs) for r in results]
                assert sorted(r.record_id for r in got) == sorted(records)
                for result in got:
                    alone = solo[result.record_id]
                    assert release_key(result) == release_key(alone)
                    assert result.fm_evaluations == alone.fm_evaluations
                shared = engine.verifier_for(spec.build_detector())
                assert shared.fm_evaluations == solo_runs
        finally:
            sys.setswitchinterval(previous)


class TestProfileStoreUnderContention:
    def test_capacity_and_counters_hold(self):
        store = ProfileStore(capacity=64)
        barrier = threading.Barrier(N_THREADS)

        def hammer(worker: int) -> None:
            rng = np.random.default_rng(worker)
            barrier.wait()
            for _ in range(OPS_PER_THREAD):
                bits = int(rng.integers(0, 512))
                if store.get_many([bits]) == [None]:
                    store.put_many([(bits, (bits % 7, frozenset({bits})))])
                assert len(store) <= 64

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(hammer, range(N_THREADS)))

        stats = store.stats()
        assert stats["size"] <= 64
        # Every operation was either a hit or a miss — none lost to races.
        assert stats["hits"] + stats["misses"] == N_THREADS * OPS_PER_THREAD

    def test_record_scoped_reads_and_invalidation(self):
        """Full and record-scoped entries share one LRU and one lock: under
        racing reads, puts and invalidations a record-bound read returns a
        profile of its own context that is full or its own record's, the
        bound holds, and every read counts one hit or one miss."""
        store = ProfileStore(capacity=48)
        barrier = threading.Barrier(N_THREADS)
        wrong = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def hammer(worker: int) -> int:
            rng = np.random.default_rng(worker)
            rid = worker % 3
            reads = 0
            barrier.wait(timeout=30)
            for i in range(OPS_PER_THREAD):
                bits = int(rng.integers(0, 256))
                if i % 50 == 49:
                    store.invalidate_matching([1 << int(rng.integers(0, 8))], version=0)
                    continue
                reads += 1
                profile = store.get_many([bits], record_id=rid)[0]
                if profile is None:
                    full = rng.random() < 0.3
                    owner = -1 if full else rid
                    store.put_many(
                        [(bits, (bits, frozenset({owner})))],
                        record_id=None if full else rid,
                    )
                elif profile[0] != bits or not profile[1] <= {-1, rid}:
                    wrong.append((bits, rid, profile))
                assert len(store) <= 48
            return reads

        try:
            with ThreadPoolExecutor(N_THREADS) as pool:
                reads = sum(pool.map(hammer, range(N_THREADS)))
        finally:
            sys.setswitchinterval(previous)
        stats = store.stats()
        assert not wrong
        assert stats["size"] <= 48
        assert stats["hits"] + stats["misses"] == reads

    def test_values_never_torn(self):
        """Concurrent writes and reads of immutable profiles return whole
        values, and the writes land.  A thread that raises fails the test:
        its exception is re-raised by its future's ``result()``."""
        store = ProfileStore(capacity=16)
        stop = threading.Event()
        errors = []

        def writer() -> int:
            i = 0
            while not stop.is_set():
                store.put_many([(i % 32, (i, frozenset({i})))])
                i += 1
            return i

        def reader() -> None:
            while not stop.is_set():
                for bits in range(32):
                    for profile in (store.peek(bits), *store.get_many([bits])):
                        if profile is not None and profile[0] not in profile[1]:
                            errors.append(profile)

        with ThreadPoolExecutor(4) as pool:
            writers = [pool.submit(writer) for _ in range(2)]
            readers = [pool.submit(reader) for _ in range(2)]
            stop.wait(0.3)
            stop.set()
            writes = [future.result(timeout=30) for future in writers]
            for future in readers:
                future.result(timeout=30)
        assert not errors
        assert min(writes) > 0
        assert len(store) == 16
        for bits in range(32):
            profile = store.peek(bits)
            assert profile is None or profile == (profile[0], frozenset({profile[0]}))
            assert profile is None or profile[0] % 32 == bits


class TestAccountantUnderContention:
    def test_never_overdraws(self):
        accountant = PrivacyAccountant(budget=1.0)
        cost = 0.03
        successes = []
        barrier = threading.Barrier(N_THREADS)

        def spender(worker: int) -> None:
            barrier.wait()
            for i in range(20):
                try:
                    accountant.charge(f"w{worker}.{i}", cost)
                    successes.append(cost)
                except PrivacyBudgetError:
                    pass

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(spender, range(N_THREADS)))

        # Attempted total (8 * 20 * 0.03 = 4.8) far exceeds the budget; the
        # ledger must hold exactly the successful charges and stay <= budget.
        assert accountant.spent <= 1.0 * (1.0 + 1e-9)
        assert accountant.spent == pytest.approx(len(successes) * cost)
        assert len(accountant.ledger()) == len(successes)

    def test_charge_many_is_atomic_against_racers(self):
        accountant = PrivacyAccountant(budget=1.0)
        barrier = threading.Barrier(4)
        outcomes = []

        def batch(worker: int) -> None:
            barrier.wait()
            try:
                accountant.charge_many([(f"w{worker}.{i}", 0.1) for i in range(4)])
                outcomes.append("ok")
            except PrivacyBudgetError:
                outcomes.append("rejected")

        threads = [threading.Thread(target=batch, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # 4 batches of 0.4 against a budget of 1.0: exactly two can fit, and
        # a rejected batch must leave no partial charges behind.
        assert outcomes.count("ok") == 2
        assert accountant.spent == pytest.approx(0.8)
        assert len(accountant.ledger()) == 8

    def test_charge_many_empty_is_noop(self):
        accountant = PrivacyAccountant(budget=0.5)
        accountant.charge_many([])
        assert accountant.spent == 0.0


class TestTenantBudgetsUnderContention:
    """The tenant-layered admission path: two budgets, one atomic decision."""

    def test_tenant_room_for_exactly_one_admits_exactly_one(self):
        """N threads race a tenant quota with room for exactly one release."""
        tenants = TenantBudgets(10.0, default_budget=0.1)
        barrier = threading.Barrier(N_THREADS)
        outcomes = []

        def racer(worker: int) -> None:
            barrier.wait()
            try:
                tenants.admit("alice", f"w{worker}", 0.1)
                outcomes.append("ok")
            except PrivacyBudgetError:
                outcomes.append("rejected")

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(racer, range(N_THREADS)))

        assert outcomes.count("ok") == 1
        assert tenants.spent("alice") == pytest.approx(0.1)
        assert tenants.totals()["spent"] == pytest.approx(0.1)
        assert len(tenants.store.replay()) == 1
        assert tenants.rejections()["alice"] == N_THREADS - 1

    def test_global_room_for_exactly_one_across_tenants(self):
        """Distinct tenants (all with quota to spare) race a global budget
        with room for one: one admitted, and every rejected tenant's own
        ledger stays untouched — neither-ledger semantics."""
        tenants = TenantBudgets(0.1, default_budget=1.0)
        barrier = threading.Barrier(N_THREADS)
        outcomes = {}

        def racer(worker: int) -> None:
            barrier.wait()
            try:
                tenants.admit(f"t{worker}", f"w{worker}", 0.1)
                outcomes[worker] = "ok"
            except PrivacyBudgetError:
                outcomes[worker] = "rejected"

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(racer, range(N_THREADS)))

        winners = [w for w, o in outcomes.items() if o == "ok"]
        assert len(winners) == 1
        assert tenants.totals()["spent"] == pytest.approx(0.1)
        for worker in range(N_THREADS):
            expected = 0.1 if worker in winners else 0.0
            assert tenants.spent(f"t{worker}") == pytest.approx(expected)
        assert len(tenants.store.replay()) == 1

    def test_tenant_layered_release_admits_exactly_one(
        self, mini_dataset, mini_outlier
    ):
        """The server's full admission+execute path under contention: a
        tenant with room for exactly one release, hammered by N threads,
        must complete exactly one release and reject the rest with 402
        semantics (no detector run, no spend)."""
        from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

        spec = PipelineSpec(
            detector="zscore",
            detector_kwargs={"z_threshold": 2.5, "min_population": 8},
            sampler="uniform",
            epsilon=0.1,
            n_samples=3,
        )
        engine = ReleaseEngine(mini_dataset)
        tenants = TenantBudgets(10.0, default_budget=0.1)
        barrier = threading.Barrier(N_THREADS)
        released, rejected = [], []

        def racer(worker: int) -> None:
            barrier.wait()
            try:
                tenants.admit("alice", f"w{worker}", spec.epsilon)
            except PrivacyBudgetError:
                rejected.append(worker)
                return
            released.append(
                engine.execute(
                    ReleaseRequest(mini_outlier, spec, seed=worker)
                )
            )

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(racer, range(N_THREADS)))

        assert len(released) == 1 and len(rejected) == N_THREADS - 1
        assert tenants.totals()["spent"] == pytest.approx(0.1)
        assert engine.metrics().releases_completed == 1
        engine.close()


class TestEngineUnderConcurrentSubmitters:
    def test_concurrent_batches_share_one_ledger(self, mini_dataset, mini_outlier):
        """Many threads submitting budgeted batches can never overspend."""
        from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

        spec = PipelineSpec(
            detector="zscore",
            detector_kwargs={"z_threshold": 2.5, "min_population": 8},
            sampler="uniform",
            epsilon=0.1,
            n_samples=3,
        )
        engine = ReleaseEngine(mini_dataset, budget=0.6)
        completed, rejected = [], []

        def submit_batch(worker: int) -> None:
            try:
                results = engine.submit_many(
                    [
                        ReleaseRequest(mini_outlier, spec, seed=100 * worker + i)
                        for i in range(2)
                    ]
                )
                completed.extend(results)
            except PrivacyBudgetError:
                rejected.append(worker)

        with ThreadPoolExecutor(6) as pool:
            list(pool.map(submit_batch, range(6)))

        # 6 batches of 0.2 against 0.6: exactly three admitted atomically.
        assert len(completed) == 6 and len(rejected) == 3
        assert engine.spent == pytest.approx(0.6)
        assert engine.metrics().releases_completed == 6
        assert engine.metrics().requests_rejected == 6
