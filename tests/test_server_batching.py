"""The coalescing admission front end: grouping independence, partial-batch
admission, drain-on-close, and the coalesced HTTP path.

The load-bearing property is *grouping independence*: where the flush
boundaries fall (batches of 1, of k, of everything) must never change what
a given ``(record_id, spec, seed)`` releases — the coalescer is a
throughput lever, invisible in results.  The deterministic tests drive
``flush_now`` directly (``autostart=False``) so every grouping is exact.

The second property is *streamed completion*: each request's future is
completed as soon as its own release finishes, not when its whole flush
does, on every backend.
"""

import os
import threading
import time

import pytest

from repro.core.verification import OutlierVerifier
from repro.data.generators import salary_reduced
from repro.exceptions import (
    ContextError,
    ExecutionError,
    PrivacyBudgetError,
    ReproError,
)
from repro.obs.trace import Trace
from repro.outliers.zscore import ZScoreDetector
from repro.server import (
    CoalescerClosed,
    InMemoryLedgerStore,
    JsonlLedgerStore,
    PCORClient,
    PCORServer,
    ReleaseCoalescer,
    ServerConfig,
    TenantBudgets,
)
from repro.runtime import SerialBackend, rng_from_token
from repro.server.http import status_for
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

RECORDS = 300
SEED = 3

SPEC = {
    "detector": "zscore",
    "detector_kwargs": {"z_threshold": 2.5, "min_population": 8},
    "sampler": "uniform",
    "epsilon": 0.1,
    "n_samples": 3,
}


@pytest.fixture(scope="module")
def dataset():
    return salary_reduced(n_records=RECORDS, seed=SEED)


@pytest.fixture(scope="module")
def outlier_record(dataset) -> int:
    verifier = OutlierVerifier(
        dataset, ZScoreDetector(z_threshold=2.5, min_population=8)
    )
    for rid in map(int, dataset.ids):
        if verifier.is_matching(dataset.record_bits(rid), rid):
            return rid
    raise AssertionError("no contextual outlier in the test dataset")


def make_requests(outlier_record, n, first_seed=100):
    spec = PipelineSpec.from_dict(SPEC)
    return [
        ReleaseRequest(record_id=outlier_record, spec=spec, seed=first_seed + i)
        for i in range(n)
    ]


class SlowZScore(ZScoreDetector):
    """A z-score detector that sleeps ``delay`` seconds per call.  It
    ships to process workers pickled, like every spec component."""

    def __init__(self, delay=0.0, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay

    def outlier_positions(self, values):
        time.sleep(self.delay)
        return super().outlier_positions(values)


class CrashingZScore(ZScoreDetector):
    """Kills the process that runs it: a worker lost mid-task."""

    def outlier_positions(self, values):
        os._exit(13)


def spec_with(detector):
    return PipelineSpec(
        detector=detector, sampler="uniform", epsilon=0.1, n_samples=3
    )


def coalescer_over(engine, max_batch=8):
    return ReleaseCoalescer(
        tenants=TenantBudgets(),
        engine_for=lambda: engine,
        max_batch=max_batch,
        name="salary",
        autostart=False,
    )


def strip_timing(result_dict):
    out = dict(result_dict)
    out.pop("wall_time_s")
    return out


def direct_baseline(dataset, requests):
    """What a lone, unbatched engine releases for each request, in order."""
    engine = ReleaseEngine(dataset)
    try:
        return [strip_timing(engine.submit(r).to_dict()) for r in requests]
    finally:
        engine.close()


class TestGroupingIndependence:
    """Coalesced releases are bit-identical to direct engine.submit per
    seed, for every flush grouping: 1, k, and all."""

    @pytest.mark.parametrize("grouping", ["ones", "threes", "all"])
    def test_flush_grouping_never_changes_results(
        self, dataset, outlier_record, grouping
    ):
        n = 6
        requests = make_requests(outlier_record, n)
        expected = direct_baseline(dataset, requests)

        engine = ReleaseEngine(dataset)
        coalescer = ReleaseCoalescer(
            tenants=TenantBudgets(),
            engine_for=lambda: engine,
            max_batch=n,
            name="salary",
            autostart=False,
        )
        futures = [
            coalescer.submit(f"t{i}", f"req-{i}", r)
            for i, r in enumerate(requests)
        ]
        limit = {"ones": 1, "threes": 3, "all": None}[grouping]
        flushed = 0
        while True:
            took = coalescer.flush_now(limit)
            if not took:
                break
            flushed += took
        assert flushed == n
        got = [strip_timing(f.result(timeout=0).to_dict()) for f in futures]
        assert got == expected
        coalescer.close()
        engine.close()

    def test_execute_many_matches_submit_per_request(
        self, dataset, outlier_record
    ):
        """The engine-level batch path (externally-admitted) is itself
        grouping-independent versus one-at-a-time submit."""
        requests = make_requests(outlier_record, 5)
        expected = direct_baseline(dataset, requests)
        engine = ReleaseEngine(dataset)
        got = [
            strip_timing(r.to_dict()) for r in engine.execute_many(requests)
        ]
        engine.close()
        assert got == expected

    @pytest.mark.parametrize(
        "backend, workers",
        [("serial", None), ("process", 2)],
        ids=["serial", "process:2"],
    )
    def test_execute_many_isolates_per_request_failures(
        self, dataset, outlier_record, backend, workers
    ):
        """One doomed request in a batch fails alone, the same way on every
        backend: its neighbours release exactly what they would have
        without it, and the raising entry points raise its own error."""
        requests = make_requests(outlier_record, 3)
        expected = direct_baseline(dataset, requests)
        doomed = ReleaseRequest(
            record_id=10**9, spec=PipelineSpec.from_dict(SPEC), seed=1
        )
        batch = [requests[0], doomed, requests[1], requests[2]]
        with ReleaseEngine(dataset, backend=backend, workers=workers) as engine:
            outcomes = engine.execute_many(batch, return_exceptions=True)
            for run in (engine.submit_many, engine.execute_many):
                with pytest.raises(ContextError):
                    run(batch)
            # Every run released all three neighbours of the doomed request.
            assert engine.metrics().releases_completed == 3 * 3
        assert isinstance(outcomes[1], ContextError)
        got = [strip_timing(o.to_dict()) for o in (outcomes[0], *outcomes[2:])]
        assert got == expected

    def test_pool_failure_fails_the_whole_flush(self, dataset, outlier_record):
        """A pool that dies under a coalesced flush fails every request in
        it with the pool's ExecutionError (HTTP 422); the server process
        never re-runs the flush itself."""

        class DeadPool(SerialBackend):
            parallel = True

            def run_releases(self, engine, requests, tokens, report):
                raise ExecutionError("lost a worker process mid-task")

        engine = ReleaseEngine(dataset, backend=DeadPool())
        coalescer = ReleaseCoalescer(
            tenants=TenantBudgets(),
            engine_for=lambda: engine,
            max_batch=4,
            name="salary",
            autostart=False,
        )
        futures = [
            coalescer.submit(f"t{i}", f"req-{i}", r)
            for i, r in enumerate(make_requests(outlier_record, 3))
        ]
        with pytest.raises(ExecutionError):
            coalescer.flush_now()
        for future in futures:
            with pytest.raises(ExecutionError, match="lost a worker") as excinfo:
                future.result(timeout=0)
            assert status_for(excinfo.value) == 422
        assert engine.metrics().releases_completed == 0
        coalescer.close()
        engine.close()

    def test_execute_many_raises_without_return_exceptions(
        self, dataset
    ):
        engine = ReleaseEngine(dataset)
        doomed = ReleaseRequest(
            record_id=10**9, spec=PipelineSpec.from_dict(SPEC), seed=1
        )
        with pytest.raises(ReproError):
            engine.execute_many([doomed])
        engine.close()


class TestStreamedCompletion:
    """A coalesced request is answered when its own release finishes, not
    when its flush does; results stay bit-identical to lone submits."""

    def test_each_future_completes_before_the_next_task_starts(
        self, dataset, outlier_record
    ):
        n = 4
        requests = make_requests(outlier_record, n)
        expected = direct_baseline(dataset, requests)
        engine = ReleaseEngine(dataset, backend="serial")
        coalescer = coalescer_over(engine)
        futures = [
            coalescer.submit(f"t{i}", f"req-{i}", r)
            for i, r in enumerate(requests)
        ]
        done_at_start = []
        task = engine._outcome

        def watched(request, gen):
            done_at_start.append([f.done() for f in futures])
            return task(request, gen)

        engine._outcome = watched
        assert coalescer.flush_now() == n
        assert done_at_start == [
            [True] * i + [False] * (n - i) for i in range(n)
        ]
        got = [strip_timing(f.result(timeout=0).to_dict()) for f in futures]
        assert got == expected
        coalescer.close()
        engine.close()

    def test_a_failed_request_is_answered_before_the_next_task_starts(
        self, dataset, outlier_record
    ):
        requests = make_requests(outlier_record, 3)
        expected = direct_baseline(dataset, requests)
        doomed = ReleaseRequest(
            record_id=10**9, spec=PipelineSpec.from_dict(SPEC), seed=1
        )
        batch = [requests[0], doomed, requests[1], requests[2]]
        engine = ReleaseEngine(dataset, backend="serial")
        coalescer = coalescer_over(engine)
        futures = [
            coalescer.submit(f"t{i}", f"req-{i}", r) for i, r in enumerate(batch)
        ]
        answered = {}
        task = engine._outcome

        def watched(request, gen):
            if request is batch[2]:  # the task after the doomed one
                answered["doomed"] = futures[1].done() and futures[1].exception()
            return task(request, gen)

        engine._outcome = watched
        assert coalescer.flush_now() == 4
        assert isinstance(answered["doomed"], ContextError)
        with pytest.raises(ContextError):
            futures[1].result(timeout=0)
        got = [
            strip_timing(futures[i].result(timeout=0).to_dict())
            for i in (0, 2, 3)
        ]
        assert got == expected
        coalescer.close()
        engine.close()

    def test_pool_failure_keeps_the_results_it_reported(
        self, dataset, outlier_record
    ):
        """A pool that dies after two outcomes: those two requests keep
        their results (they were admitted and charged), and only the rest
        get the pool's ExecutionError (HTTP 422)."""
        worker = ReleaseEngine(dataset, backend="serial")

        class DiesAfterTwo(SerialBackend):
            parallel = True

            def run_releases(self, engine, requests, tokens, report):
                for index in range(2):
                    report(
                        index,
                        worker._outcome(requests[index], rng_from_token(tokens[index])),
                    )
                raise ExecutionError("lost a worker process mid-task")

        requests = make_requests(outlier_record, 4)
        expected = direct_baseline(dataset, requests[:2])
        engine = ReleaseEngine(dataset, backend=DiesAfterTwo())
        coalescer = coalescer_over(engine)
        futures = [
            coalescer.submit(f"t{i}", f"req-{i}", r)
            for i, r in enumerate(requests)
        ]
        with pytest.raises(ExecutionError):
            coalescer.flush_now()
        got = [strip_timing(f.result(timeout=0).to_dict()) for f in futures[:2]]
        assert got == expected
        for future in futures[2:]:
            with pytest.raises(ExecutionError, match="lost a worker") as excinfo:
                future.result(timeout=0)
            assert status_for(excinfo.value) == 422
        assert engine.metrics().releases_completed == 2
        coalescer.close()
        engine.close()
        worker.close()

    def test_lost_worker_keeps_the_results_it_returned(
        self, dataset, outlier_record
    ):
        """The same on real workers: one worker runs the flush in request
        order and dies on its third task.  The two releases it returned
        are answered; the pool is torn down and the other two requests get
        its ExecutionError."""
        requests = make_requests(outlier_record, 4)
        expected = direct_baseline(dataset, requests[:2])
        crash = ReleaseRequest(
            record_id=outlier_record,
            spec=spec_with(CrashingZScore(z_threshold=2.5, min_population=8)),
            seed=1,
        )
        batch = [requests[0], requests[1], crash, requests[2]]
        with ReleaseEngine(dataset, backend="process", workers=1) as engine:
            coalescer = coalescer_over(engine)
            futures = [
                coalescer.submit(f"t{i}", f"req-{i}", r)
                for i, r in enumerate(batch)
            ]
            with pytest.raises(ExecutionError, match="lost a worker"):
                coalescer.flush_now()
            got = [
                strip_timing(f.result(timeout=0).to_dict()) for f in futures[:2]
            ]
            assert got == expected
            for future in futures[2:]:
                with pytest.raises(ExecutionError, match="lost a worker"):
                    future.result(timeout=0)
            assert engine.backend._pool is None  # torn down
            coalescer.close()

    def test_process_workers_answer_each_request_as_it_returns(
        self, dataset, outlier_record
    ):
        """Two workers, a slow release ahead of a fast one: the fast
        request is answered while the slow one is still running."""
        slow = ReleaseRequest(
            record_id=outlier_record,
            spec=spec_with(SlowZScore(delay=0.2, z_threshold=2.5, min_population=8)),
            seed=1,
        )
        [fast] = make_requests(outlier_record, 1)
        with ReleaseEngine(dataset, backend="process", workers=2) as engine:
            engine.backend.bind(engine.masks, engine.profile_capacity)
            coalescer = coalescer_over(engine)
            slow_future = coalescer.submit("t0", "slow", slow)
            fast_future = coalescer.submit("t1", "fast", fast)
            slow_done_when_fast_was = []
            fast_future.add_done_callback(
                lambda _: slow_done_when_fast_was.append(slow_future.done())
            )
            assert coalescer.flush_now() == 2
            assert slow_done_when_fast_was == [False]
            assert strip_timing(fast_future.result(timeout=0).to_dict()) == (
                direct_baseline(dataset, [fast])[0]
            )
            assert slow_future.result(timeout=0).record_id == outlier_record
            coalescer.close()

    def test_worker_spans_reach_the_trace_before_the_future_completes(
        self, dataset, outlier_record
    ):
        """On the process backend a sampled request's trace holds its
        worker's engine.execute span by the time its handler wakes, so
        the response trace shows where the release ran."""
        spec = PipelineSpec.from_dict(SPEC)
        traces = [Trace.mint(sampled=True) for _ in range(3)]
        requests = [
            ReleaseRequest(
                record_id=outlier_record, spec=spec, seed=200 + i, trace=trace
            )
            for i, trace in enumerate(traces)
        ]
        with ReleaseEngine(dataset, backend="process", workers=2) as engine:
            coalescer = coalescer_over(engine)
            futures = [
                coalescer.submit(f"t{i}", f"req-{i}", r)
                for i, r in enumerate(requests)
            ]
            held = {}
            for i, future in enumerate(futures):
                future.add_done_callback(
                    lambda _, i=i: held.__setitem__(i, traces[i].to_dict())
                )
            assert coalescer.flush_now() == 3
            coalescer.close()
        for i, trace in enumerate(traces):
            spans = held[i]["spans"]
            [execute] = [s for s in spans if s["name"] == "engine.execute"]
            assert execute["pid"] != os.getpid()
            assert held[i]["trace_id"] == trace.trace_id


class TestPartialBatchAdmission:
    def test_exhausted_tenant_rejected_alone_and_charged_exactly_once(
        self, dataset, outlier_record, tmp_path
    ):
        """One exhausted tenant in a batch gets its PrivacyBudgetError
        (HTTP 402) while co-batched tenants succeed — and the WAL holds
        exactly one charge per *admitted* request, none for the rejection."""
        store = JsonlLedgerStore(tmp_path / "salary.ledger.jsonl")
        tenants = TenantBudgets(
            default_budget=1.0,
            budgets={"poor": 0.05},  # below one 0.1-epsilon release
            store=store,
            dataset="salary",
        )
        engine = ReleaseEngine(dataset)
        coalescer = ReleaseCoalescer(
            tenants=tenants,
            engine_for=lambda: engine,
            max_batch=8,
            name="salary",
            autostart=False,
        )
        requests = make_requests(outlier_record, 3)
        f_rich1 = coalescer.submit("rich-1", "r1", requests[0])
        f_poor = coalescer.submit("poor", "p", requests[1])
        f_rich2 = coalescer.submit("rich-2", "r2", requests[2])
        assert coalescer.flush_now() == 3

        with pytest.raises(PrivacyBudgetError, match="poor"):
            f_poor.result(timeout=0)
        assert f_rich1.result(timeout=0).record_id == outlier_record
        assert f_rich2.result(timeout=0).record_id == outlier_record

        charged = [(r["tenant"], r["epsilon"]) for r in store.replay()]
        assert sorted(charged) == [("rich-1", 0.1), ("rich-2", 0.1)]
        assert tenants.rejections() == {"poor": 1}
        coalescer.close()
        engine.close()
        store.close()

    def test_admit_many_outcomes_in_order_and_persisted_once(self):
        store = InMemoryLedgerStore()
        tenants = TenantBudgets(
            default_budget=0.25, store=store, dataset="d"
        )
        outcomes = tenants.admit_many(
            [
                ("a", "q1", 0.2),
                ("a", "q2", 0.2),  # over a's remaining 0.05
                ("b", "q3", 0.2),
                ("b", "bad", -1.0),  # invalid epsilon
            ]
        )
        assert outcomes[0] is None
        assert isinstance(outcomes[1], PrivacyBudgetError)
        assert outcomes[2] is None
        assert isinstance(outcomes[3], PrivacyBudgetError)
        assert [(r["tenant"], r["label"]) for r in store.replay()] == [
            ("a", "q1"),
            ("b", "q3"),
        ]
        assert tenants.spent("a") == pytest.approx(0.2)
        assert tenants.spent("b") == pytest.approx(0.2)

    def test_admitted_batch_is_one_append_many_call(self):
        """``append_many`` is the one write path: a batch's admitted
        charges reach the store in a single call, refusals not at all."""

        class CallLog(InMemoryLedgerStore):
            def __init__(self):
                super().__init__()
                self.batches = []

            def append(self, record):
                raise AssertionError("admission writes through append_many")

            def append_many(self, records):
                self.batches.append([r["tenant"] for r in records])
                super().append_many(records)

        store = CallLog()
        tenants = TenantBudgets(default_budget=0.15, store=store, dataset="d")
        outcomes = tenants.admit_many(
            [("a", "q1", 0.1), ("a", "q2", 0.1), ("b", "q3", 0.1)]
        )
        assert [o is None for o in outcomes] == [True, False, True]
        assert store.batches == [["a", "b"]]
        assert tenants.admit_many([("a", "q4", 0.1)])[0] is not None
        assert store.batches == [["a", "b"]]


class TestDrainOnClose:
    def test_close_flushes_queue_and_completes_every_future(
        self, dataset, outlier_record
    ):
        engine = ReleaseEngine(dataset)
        coalescer = ReleaseCoalescer(
            tenants=TenantBudgets(),
            engine_for=lambda: engine,
            max_batch=4,
            name="salary",
            autostart=False,  # nothing will flush unless close() drains
        )
        requests = make_requests(outlier_record, 5)
        futures = [
            coalescer.submit("t", f"q{i}", r) for i, r in enumerate(requests)
        ]
        coalescer.close()
        assert all(f.done() for f in futures)
        expected = direct_baseline(dataset, requests)
        got = [strip_timing(f.result(timeout=0).to_dict()) for f in futures]
        assert got == expected
        engine.close()

    def test_submit_after_close_raises_coalescer_closed(self, outlier_record):
        coalescer = ReleaseCoalescer(
            tenants=TenantBudgets(),
            engine_for=lambda: None,
            max_batch=4,
            autostart=False,
        )
        coalescer.close()
        [request] = make_requests(outlier_record, 1)
        with pytest.raises(CoalescerClosed):
            coalescer.submit("t", "q", request)

    def test_flusher_thread_completes_concurrent_submissions(
        self, dataset, outlier_record
    ):
        """The real (autostarted) flusher under concurrent producers:
        every future completes and the counters account for every request."""
        engine = ReleaseEngine(dataset)
        coalescer = ReleaseCoalescer(
            tenants=TenantBudgets(),
            engine_for=lambda: engine,
            max_batch=4,
            max_delay_ms=5.0,
            name="salary",
        )
        requests = make_requests(outlier_record, 12)
        futures = [None] * len(requests)

        def enqueue(i):
            futures[i] = coalescer.submit("t", f"q{i}", requests[i])

        threads = [
            threading.Thread(target=enqueue, args=(i,))
            for i in range(len(requests))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [f.result(timeout=30) for f in futures]
        assert all(r.record_id == outlier_record for r in results)
        coalescer.close()
        snap = coalescer.snapshot()
        assert snap["batch_requests"] == len(requests)
        assert snap["batch_queue_depth"] == 0
        assert 1 <= snap["batch_size_max"] <= 4
        assert snap["batch_flushes"] >= 3  # 12 requests, batches capped at 4
        assert snap["batch_queue_wait_s"] >= 0.0
        engine.close()


class TestCoalescedHTTP:
    def test_concurrent_http_releases_match_direct_engine(
        self, dataset, outlier_record
    ):
        """End-to-end: release_many against a coalescing server releases
        the same contexts a direct engine does, and the batching counters
        on /v1/metrics account for every request."""
        config = ServerConfig.from_dict(
            {
                "server": {"port": 0},
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": RECORDS,
                        "seed": SEED,
                        "budget": 50.0,
                        "max_batch": 8,
                        "max_delay_ms": 5.0,
                    }
                },
            }
        )
        n = 12
        seeds = list(range(500, 500 + n))
        with PCORServer(config) as server:
            client = PCORClient(server.url, tenant="alice")
            served = client.release_many(
                "salary",
                [outlier_record] * n,
                SPEC,
                seeds=seeds,
                concurrency=6,
                timeout=120.0,
            )
            metrics = client.metrics()["datasets"]["salary"]
            client.close()

        spec = PipelineSpec.from_dict(SPEC)
        engine = ReleaseEngine(dataset)
        for seed, response in zip(seeds, served):
            direct = engine.submit(
                ReleaseRequest(record_id=outlier_record, spec=spec, seed=seed)
            )
            result = response["result"]
            # The released values are seed-determined; cache-order counters
            # (fm_evaluations, wall time) legitimately vary under
            # concurrency — same contract as the unbatched server.
            assert result["context"]["bits"] == direct.context.bits
            assert result["utility_value"] == pytest.approx(direct.utility_value)
            assert result["epsilon_one"] == pytest.approx(direct.epsilon_one)
            assert result["n_candidates"] == direct.n_candidates
        engine.close()

        assert metrics["batch_requests"] == n
        assert metrics["batch_flushes"] >= 2  # 12 requests, max_batch 8
        assert metrics["batch_size_max"] <= 8
        assert metrics["epsilon_spent"] == pytest.approx(n * SPEC["epsilon"])

    def test_first_client_holds_its_response_while_the_second_release_runs(
        self, outlier_record
    ):
        """Two concurrent clients, one flush: the flush's second release
        waits (up to a timeout) until a client holds its response, which
        only happens if the first request was answered on its own."""
        config = ServerConfig.from_dict(
            {
                "server": {"port": 0},
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": RECORDS,
                        "seed": SEED,
                        "budget": 50.0,
                        "backend": "serial",
                        "max_batch": 2,
                        "max_delay_ms": 5000.0,
                    }
                },
            }
        )
        responded = threading.Event()
        answered_first = []
        responses = {}
        with PCORServer(config) as server:
            engine = server.registry.get("salary").engine
            task = engine._outcome

            def watched(request, gen):
                answered_first.append(None)
                if len(answered_first) == 2:
                    answered_first[-1] = responded.wait(timeout=10.0)
                return task(request, gen)

            engine._outcome = watched

            def release(seed):
                client = PCORClient(server.url, tenant=f"t{seed}")
                try:
                    responses[seed] = client.release(
                        "salary", outlier_record, SPEC, seed=seed, timeout=60.0
                    )
                finally:
                    client.close()
                responded.set()

            threads = [
                threading.Thread(target=release, args=(seed,))
                for seed in (701, 702)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            snapshot = server._coalescers["salary"].snapshot()
        assert snapshot["batch_size_max"] == 2
        assert answered_first == [None, True]
        assert sorted(responses) == [701, 702]

    def test_max_batch_one_keeps_direct_path(self):
        """max_batch = 1 (the default) builds no coalescer at all: the
        server behaves exactly as before batching existed."""
        config = ServerConfig.from_dict(
            {
                "server": {"port": 0},
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": RECORDS,
                        "seed": SEED,
                    }
                },
            }
        )
        server = PCORServer(config)
        try:
            assert server._coalescers == {}
        finally:
            server.shutdown()
