"""Execution-backend tests: the determinism contract and the registry.

The acceptance property of the parallel runtime: for a fixed seed, every
backend (serial / process) at every worker count (1 / 2 / 4) releases
**bit-identical** results across all four samplers.  Process pools are
module-scoped so the spawn cost is paid once per worker count.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DatasetError, ExecutionError
from repro.runtime import (
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
    plan_task_rngs,
    resolve_backend,
    rng_from_token,
)
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

ZSCORE_KWARGS = {"z_threshold": 2.5, "min_population": 8}
LOF_KWARGS = {"k": 5, "threshold": 1.3, "min_population": 8}
SAMPLERS = ["uniform", "random_walk", "dfs", "bfs"]


def spec_for(sampler: str, **overrides) -> PipelineSpec:
    base = dict(
        detector="zscore",
        detector_kwargs=ZSCORE_KWARGS,
        sampler=sampler,
        epsilon=0.5,
        n_samples=5,
    )
    base.update(overrides)
    return PipelineSpec(**base)


def release_key(r):
    """Everything a release decided, minus cache-dependent counters."""
    return (
        r.context.bits,
        r.utility_value,
        r.n_candidates,
        r.algorithm,
        None if r.starting_context is None else r.starting_context.bits,
        r.stats.candidates_collected,
        r.stats.contexts_examined,
        r.stats.mechanism_invocations,
        r.stats.steps,
    )


def release_batch(dataset, backend, record_id, sampler, seed, **overrides):
    """One 3-request batch on a fresh engine over ``backend``."""
    engine = ReleaseEngine(dataset, backend=backend)
    gen = np.random.default_rng(seed)
    results = engine.submit_many(
        [
            ReleaseRequest(record_id, spec_for(sampler, **overrides), seed=gen)
            for _ in range(3)
        ]
    )
    return [release_key(r) for r in results]


@pytest.fixture(scope="module")
def process_pools():
    """One ProcessBackend per tested worker count, spawned once."""
    pools = {w: ProcessBackend(workers=w) for w in (1, 2, 4)}
    yield pools
    for pool in pools.values():
        pool.close()


@pytest.fixture(scope="module")
def serial_releases(mini_dataset, mini_outlier):
    """Reference results: serial backend, one entry per sampler."""
    return {
        sampler: release_batch(mini_dataset, SerialBackend(), mini_outlier, sampler, 77)
        for sampler in SAMPLERS
    }


class TestBitIdenticalReleases:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_process_matches_serial(
        self, mini_dataset, mini_outlier, serial_releases, process_pools, sampler, workers
    ):
        got = release_batch(
            mini_dataset, process_pools[workers], mini_outlier, sampler, 77
        )
        assert got == serial_releases[sampler]

    def test_process_lof_matches_serial(self, mini_dataset, process_pools):
        """LOF reads its populations in metric order: process workers
        compute that order from their shared-memory dataset and must
        release exactly what the serial backend releases."""
        from repro.core.verification import OutlierVerifier
        from repro.outliers import LOFDetector

        verifier = OutlierVerifier(mini_dataset, LOFDetector(**LOF_KWARGS))
        record = next(
            rid
            for rid in map(int, mini_dataset.ids)
            if verifier.is_matching(mini_dataset.record_bits(rid), rid)
        )
        lof = dict(detector="lof", detector_kwargs=LOF_KWARGS)
        serial = release_batch(
            mini_dataset, SerialBackend(), record, "bfs", 77, **lof
        )
        assert serial == release_batch(
            mini_dataset, process_pools[2], record, "bfs", 77, **lof
        )

class TestLoneRelease:
    def test_lone_release_profiles_inline_on_a_process_engine(self):
        """A lone release runs on the calling thread, profiles included:
        Algorithm 1 asks for every one of its record's containing contexts
        in one uncached batch, yet the process engine never spawns its pool
        and releases exactly what a serial engine releases."""
        from repro.core.direct import DirectSampler
        from repro.core.verification import OutlierVerifier
        from repro.data.generators import (
            SALARY_EMPLOYERS,
            SALARY_JOB_TITLES,
            SALARY_YEARS,
            synthetic_salary_dataset,
        )
        from repro.outliers.zscore import ZScoreDetector
        from repro.schema import CategoricalAttribute, MetricAttribute, Schema

        schema = Schema(
            attributes=[
                CategoricalAttribute("Jobtitle", SALARY_JOB_TITLES[:4]),
                CategoricalAttribute("Employer", SALARY_EMPLOYERS[:4]),
                CategoricalAttribute("Year", SALARY_YEARS[:4]),
            ],
            metric=MetricAttribute("Salary"),
        )
        dataset = synthetic_salary_dataset(
            n_records=400, seed=3, anomaly_fraction=0.04, schema=schema
        )
        probe = OutlierVerifier(dataset, ZScoreDetector(**ZSCORE_KWARGS))
        record = next(
            rid
            for rid in map(int, dataset.ids)
            if probe.is_matching(dataset.record_bits(rid), rid)
        )
        containing = 1 << (schema.t - dataset.record_bits(record).bit_count())
        assert containing == 512  # 2^(t - m), t = 12 predicates, m = 3
        spec = PipelineSpec(
            detector="zscore",
            detector_kwargs=ZSCORE_KWARGS,
            sampler=DirectSampler(),
            epsilon=0.5,
        )
        released = {}
        process = ProcessBackend(workers=2)
        try:
            for backend in (SerialBackend(), process):
                engine = ReleaseEngine(dataset, backend=backend)
                result = engine.submit(ReleaseRequest(record, spec, seed=11))
                assert engine.metrics().fm_evaluations == containing
                released[backend.name] = release_key(result)
            assert process._pool is None
            assert process.stats()["release_tasks"] == 0
        finally:
            process.close()
        assert released["process"] == released["serial"]


class TestHypothesisBackendIdentity:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sampler=st.sampled_from(SAMPLERS),
    )
    def test_all_backends_identical(
        self, mini_dataset, mini_outlier, process_pools, seed, sampler
    ):
        serial = release_batch(mini_dataset, SerialBackend(), mini_outlier, sampler, seed)
        assert (
            release_batch(mini_dataset, process_pools[2], mini_outlier, sampler, seed)
            == serial
        )


class TestSeedPlanning:
    def test_int_seed_matches_default_rng(self):
        (token,) = plan_task_rngs([123])
        assert (
            rng_from_token(token).integers(0, 1 << 30, 8).tolist()
            == np.random.default_rng(123).integers(0, 1 << 30, 8).tolist()
        )

    def test_shared_generator_spawns_per_occurrence(self):
        gen_a, gen_b = np.random.default_rng(5), np.random.default_rng(5)
        tokens = plan_task_rngs([gen_a, gen_a, gen_a])
        children = gen_b.spawn(3)
        for token, child in zip(tokens, children):
            assert (
                rng_from_token(token).integers(0, 1 << 30, 4).tolist()
                == child.integers(0, 1 << 30, 4).tolist()
            )
        # The parent advanced identically through either path.
        assert gen_a.bit_generator.seed_seq.n_children_spawned == 3

    def test_substreams_are_pairwise_distinct(self):
        gen = np.random.default_rng(0)
        draws = {
            tuple(rng_from_token(t).integers(0, 1 << 30, 4).tolist())
            for t in plan_task_rngs([gen] * 8 + list(range(8)))
        }
        assert len(draws) == 16

    def test_none_seed_is_fresh_entropy(self):
        a, b = plan_task_rngs([None, None])
        assert a.entropy != b.entropy

    def test_rejects_bad_seed(self):
        with pytest.raises(TypeError, match="seed must be"):
            plan_task_rngs(["nope"])


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ["process", "serial"]

    def test_make_backend_workers(self):
        backend = make_backend("process", workers=3)
        try:
            assert backend.name == "process" and backend.workers == 3
        finally:
            backend.close()

    def test_unknown_backend(self):
        for name in ("gpu", "thread"):
            with pytest.raises(ExecutionError, match="unknown backend"):
                make_backend(name)

    def test_resolve_instance_conflicting_workers(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend
        process = ProcessBackend(workers=2)
        try:
            with pytest.raises(ExecutionError, match="conflicts"):
                resolve_backend(process, workers=3)
        finally:
            process.close()

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("PCOR_BACKEND", "process")
        monkeypatch.setenv("PCOR_WORKERS", "2")
        backend = resolve_backend()
        try:
            assert backend.name == "process" and backend.workers == 2
        finally:
            backend.close()
        monkeypatch.setenv("PCOR_BACKEND", "thread")
        with pytest.raises(ExecutionError, match="unknown backend"):
            resolve_backend()

    def test_serial_is_never_parallel(self):
        assert SerialBackend(workers=8).workers == 1

    def test_workers_alone_implies_process(self, monkeypatch):
        """Asking for workers must never silently run serial."""
        monkeypatch.delenv("PCOR_BACKEND", raising=False)
        monkeypatch.delenv("PCOR_WORKERS", raising=False)
        backend = resolve_backend(None, workers=2)
        try:
            assert backend.name == "process" and backend.workers == 2
        finally:
            backend.close()
        assert resolve_backend(None, workers=1).name == "serial"
        assert resolve_backend(None).name == "serial"


class TestBatchOutcomes:
    def test_process_task_failure_is_returned_in_place(self):
        """A release failing inside a process worker comes back as that
        task's outcome: the other tasks' results are kept, not re-run in
        the parent, and each counter moves once per task."""
        from repro.core.verification import OutlierVerifier
        from repro.data.generators import salary_reduced

        dataset = salary_reduced(n_records=2000, seed=3)
        spec = spec_for("bfs", n_samples=20)
        verifier = OutlierVerifier(dataset, spec.build_detector())
        record = next(
            rid
            for rid in map(int, dataset.ids)
            if verifier.is_matching(dataset.record_bits(rid), rid)
        )
        requests = [ReleaseRequest(record, spec, seed=s) for s in range(4)]
        doomed = ReleaseRequest(10**9, spec, seed=99)
        backend = ProcessBackend(workers=2)
        engine = ReleaseEngine(dataset, backend=backend)
        try:
            clean = engine.execute_many(requests)
            before = engine.metrics()
            outcomes = engine.execute_many(
                [*requests[:2], doomed, *requests[2:]], return_exceptions=True
            )
            after = engine.metrics()
        finally:
            engine.close()
            backend.close()
        assert isinstance(outcomes[2], DatasetError)
        kept = [*outcomes[:2], *outcomes[3:]]
        assert [release_key(r) for r in kept] == [release_key(r) for r in clean]
        assert after.releases_completed - before.releases_completed == 4
        assert after.release_tasks - before.release_tasks == 5
        assert after.fm_evaluations == before.fm_evaluations


class TestEngineMetricsPhases:
    def test_phases_recorded(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, backend="process", workers=2)
        try:
            gen = np.random.default_rng(9)
            engine.submit_many(
                [
                    ReleaseRequest(mini_outlier, spec_for("bfs"), seed=gen)
                    for _ in range(3)
                ]
            )
            metrics = engine.metrics()
            assert metrics.backend == "process"
            assert metrics.backend_workers == 2
            assert metrics.phase_tasks.get("release") == 3
            assert metrics.phase_wall_s.get("release", 0.0) > 0.0
            assert metrics.phase_wall_s.get("admission", -1.0) >= 0.0
            assert metrics.release_tasks == 3
            snapshot = metrics.to_dict()
            import json

            assert json.dumps(snapshot)
        finally:
            engine.close()


class TestPCORFacadeBackends:
    def test_release_many_matches_serial(
        self, mini_dataset, mini_detector, outlier_pair, process_pools
    ):
        from repro.core.pcor import PCOR
        from repro.core.sampling import BFSSampler

        def run(chosen_backend):
            pcor = PCOR(
                mini_dataset,
                mini_detector,
                epsilon=0.2,
                sampler=BFSSampler(n_samples=5),
                backend=chosen_backend,
            )
            try:
                return [
                    r.context.bits
                    for r in pcor.release_many(outlier_pair, seed=13)
                ]
            finally:
                pcor.close()

        assert run(process_pools[2]) == run(None)


@pytest.fixture(scope="module")
def outlier_pair(mini_reference):
    ids = mini_reference.outlier_records()
    assert len(ids) >= 2
    return ids[:2]
