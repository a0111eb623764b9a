"""Shared-memory transport tests: round-trip fidelity and leak-free cleanup.

The process backend owns exactly one shared segment per bound index
snapshot; it must be unlinked on ``close()`` — and on a worker crash — with
no segment left behind.  Attachment must reproduce the dataset and the
packed mask matrix exactly (the matrix as a zero-copy view).  Specs ship
pickled; one that cannot be pickled is refused before anything is bound.
"""

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.core.sampling import BFSSampler
from repro.data.masks import PredicateMaskIndex
from repro.exceptions import ContextError, ExecutionError
from repro.outliers.zscore import ZScoreDetector
from repro.runtime import ProcessBackend, SharedDatasetExport, attach_shared_dataset
from repro.runtime import worker as worker_mod
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

ZSCORE_KWARGS = {"z_threshold": 2.5, "min_population": 8}


class DoubledThresholdZScore(ZScoreDetector):
    """Stores an attribute its constructor does not accept, so it cannot be
    rebuilt from its public attributes; pickle ships it as it is."""

    def __init__(self, z_threshold=2.5):
        super().__init__(z_threshold=z_threshold, min_population=8)
        self.doubled_threshold = z_threshold * 2


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


def segment_exists(name: str) -> bool:
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def crash_a_worker(backend: ProcessBackend) -> None:
    """Run the crash hook on the bound pool, the way a batch ships a task."""
    pool = backend._pool
    with backend._shipping(pool):
        pool.submit(worker_mod.crash_task, None).result()


def assert_refused_unbound(engine: ReleaseEngine, spec: PipelineSpec, mini_outlier):
    """The batch is refused before any segment is exported or pool spawned."""
    with pytest.raises(ExecutionError, match="cannot be shipped"):
        engine.submit_many(
            [ReleaseRequest(mini_outlier, spec, seed=s) for s in (1, 2)]
        )
    assert engine.backend._pool is None
    assert engine.backend._export is None


class TestExportAttachRoundTrip:
    def test_arrays_and_masks_survive(self, mini_dataset, mini_verifier):
        export = SharedDatasetExport(mini_verifier.masks.snapshot())
        try:
            rebuilt, masks, shm = attach_shared_dataset(export.handle)
            try:
                assert len(rebuilt) == len(mini_dataset)
                assert rebuilt.ids.tolist() == mini_dataset.ids.tolist()
                assert rebuilt.metric.tolist() == mini_dataset.metric.tolist()
                for attr in mini_dataset.schema.attributes:
                    assert (
                        rebuilt.codes(attr.name).tolist()
                        == mini_dataset.codes(attr.name).tolist()
                    )
                assert np.array_equal(
                    masks.packed_matrix, mini_verifier.masks.packed_matrix
                )
                # The packed matrix is a view straight into the segment.
                assert masks.packed_matrix.base is not None
                # Population queries agree bit for bit.
                probe = list(range(0, 512, 7))
                assert (
                    masks.population_sizes(probe).tolist()
                    == mini_verifier.masks.population_sizes(probe).tolist()
                )
            finally:
                shm.close()
        finally:
            export.close()

    def test_close_is_idempotent_and_unlinks(self, mini_dataset, mini_verifier):
        export = SharedDatasetExport(mini_verifier.masks.snapshot())
        name = export.shm.name
        assert segment_exists(name)
        export.close()
        assert not segment_exists(name)
        export.close()  # idempotent

    def test_from_packed_validates_shape(self, mini_dataset):
        with pytest.raises(ContextError, match="packed matrix must be"):
            PredicateMaskIndex.from_packed(
                mini_dataset, np.zeros((1, 1), dtype=np.uint64)
            )


class TestBackendCleanup:
    def test_engine_close_unlinks_segment(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, backend="process", workers=2)
        gen = np.random.default_rng(3)
        engine.submit_many(
            [ReleaseRequest(mini_outlier, _spec(), seed=gen) for _ in range(2)]
        )
        name = engine.backend._export.shm.name
        assert segment_exists(name)
        engine.close()
        assert not segment_exists(name)

    def test_backend_close_without_use_is_safe(self):
        backend = ProcessBackend(workers=2)
        backend.close()
        backend.close()

    def test_worker_crash_raises_execution_error_and_frees_segment(
        self, mini_dataset, mini_verifier
    ):
        backend = ProcessBackend(workers=2)
        try:
            backend._ensure_bound(mini_verifier.masks)
            name = backend._export.shm.name
            assert segment_exists(name)
            with pytest.raises(ExecutionError, match="process backend \\(2 workers\\)"):
                crash_a_worker(backend)
            # The crash tore down the pool *and* the shared segment.
            assert not segment_exists(name)
            assert backend._pool is None
        finally:
            backend.close()

    def test_backend_respawns_after_crash(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, backend="process", workers=2)
        try:
            gen = np.random.default_rng(3)
            requests = [
                ReleaseRequest(mini_outlier, _spec(), seed=gen) for _ in range(2)
            ]
            before = engine.submit_many(requests)
            crash_a_worker(engine.backend)
        except ExecutionError:
            pass
        try:
            gen = np.random.default_rng(3)
            requests = [
                ReleaseRequest(mini_outlier, _spec(), seed=gen) for _ in range(2)
            ]
            after = engine.submit_many(requests)
            assert [r.context.bits for r in after] == [r.context.bits for r in before]
        finally:
            engine.close()

    def test_rebinding_another_dataset_releases_first_segment(
        self, mini_verifier, tiny_dataset
    ):
        backend = ProcessBackend(workers=1)
        try:
            backend._ensure_bound(mini_verifier.masks)
            first = backend._export.shm.name
            backend._ensure_bound(PredicateMaskIndex(tiny_dataset))
            second = backend._export.shm.name
            assert first != second
            assert not segment_exists(first)
            assert segment_exists(second)
        finally:
            backend.close()


class TestShippability:
    def test_unpicklable_utility_rejected_clearly(self, mini_dataset, mini_outlier):
        from repro.core.utility import PopulationSizeUtility

        factory = lambda verifier, record_id, starting_bits=None: (  # noqa: E731
            PopulationSizeUtility(verifier, record_id)
        )
        engine = ReleaseEngine(mini_dataset, backend="process", workers=2)
        try:
            assert_refused_unbound(engine, _spec(utility=factory), mini_outlier)
        finally:
            engine.close()

    def test_unpicklable_detector_rejected_before_binding(
        self, mini_dataset, mini_outlier
    ):
        class LocalZScore(ZScoreDetector):
            """Defined in a function, so pickle cannot name its class."""

        spec = _spec(detector=LocalZScore(**ZSCORE_KWARGS), detector_kwargs={})
        engine = ReleaseEngine(mini_dataset, backend="process", workers=2)
        try:
            assert_refused_unbound(engine, spec, mini_outlier)
        finally:
            engine.close()

    def test_instances_ship_as_they_are(self, mini_dataset, mini_reference):
        """A detector that cannot be rebuilt from its public attributes, and
        a sampler instance, release on two workers what serial releases."""
        spec = PipelineSpec(
            detector=DoubledThresholdZScore(),
            sampler=BFSSampler(n_samples=4),
            epsilon=0.5,
        )
        records = mini_reference.outlier_records()[:4]

        def run(backend, workers=None):
            with ReleaseEngine(mini_dataset, backend=backend, workers=workers) as engine:
                results = engine.submit_many(
                    [ReleaseRequest(rid, spec, seed=i) for i, rid in enumerate(records)]
                )
                assert engine.metrics().release_tasks == (4 if workers else 0)
            return [(r.context.bits, r.utility_value, r.n_candidates) for r in results]

        assert run("process", workers=2) == run("serial")
