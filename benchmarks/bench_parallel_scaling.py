"""Parallel scaling of ``release_many``: process backend vs serial.

The acceptance gate: at 4 process workers the ``release_many`` workload
must run **>= 2x faster** than serial.  The pool is spawned (and the
dataset exported to shared memory) *before* the timed region — in
production the engine is long-lived and pays that cost once at service
start — but profile caches are cold on both sides: the parallelism exists
precisely to hide cold detector runs.  That spawn is reported on its own
as ``pool_bind_ms`` (``ProcessBackend.bind``: shared-memory export, worker
start-up including ``import repro``, one ping per worker).  The gate only
arms on machines with at least 4 CPU cores; on smaller boxes the bench
still runs, verifies bit-identical results, and reports the (necessarily
<= 1x) ratio for the record.

Scale via ``PCOR_BENCH_SCALE``: smoke | small (default) | medium | paper.
"""

import os
import time

import pytest

from _helpers import load_harness
from repro.core.sampling import BFSSampler
from repro.data.generators import salary_reduced
from repro.data.masks import PredicateMaskIndex
from repro.experiments.tables import DETECTOR_KWARGS
from repro.outliers import LOFDetector
from repro.runtime import ProcessBackend, SerialBackend
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

WORKERS = 4
SPEEDUP_GATE = 2.0

#: (n_records, n_released_records, n_samples) per bench scale.  Even smoke
#: stays meaty enough that per-task overhead cannot dominate the ratio the
#: gate measures.
WORKLOADS = {
    "smoke": (2_000, 16, 32),
    "small": (2_000, 24, 40),
    "medium": (4_000, 32, 50),
    "paper": (8_000, 48, 50),
}


def test_release_many_parallel_scaling(emit):
    scale = os.environ.get("PCOR_BENCH_SCALE", "small")
    n_records, n_released, n_samples = WORKLOADS.get(scale, WORKLOADS["small"])

    dataset = salary_reduced(n_records=n_records, seed=7)
    masks = PredicateMaskIndex(dataset)
    detector = LOFDetector(**DETECTOR_KWARGS["lof"])
    spec = PipelineSpec(
        detector="lof",
        detector_kwargs=DETECTOR_KWARGS["lof"],
        sampler="bfs",
        n_samples=n_samples,
        epsilon=0.2,
    )

    # Exact-context outliers found with a scratch verifier whose cache is
    # NOT shared with the timed engines (both sides must start cold).
    from repro.core.verification import OutlierVerifier

    scratch = OutlierVerifier(dataset, detector, mask_index=masks)
    record_ids = []
    for rid in map(int, dataset.ids):
        if scratch.is_matching(dataset.record_bits(rid), rid):
            record_ids.append(rid)
        if len(record_ids) == n_released:
            break
    assert len(record_ids) >= 8, "dataset yielded too few exact-context outliers"

    def run(backend):
        """One cold release_many round; returns (seconds, bits)."""
        engine = ReleaseEngine(dataset, mask_index=masks, backend=backend)
        t0 = time.perf_counter()
        results = engine.submit_many(
            [
                ReleaseRequest(record_id=rid, spec=spec, seed=1000 + i)
                for i, rid in enumerate(record_ids)
            ]
        )
        elapsed = time.perf_counter() - t0
        engine.close()
        return elapsed, [r.context.bits for r in results]

    ROUNDS = 2  # best-of, every round fully cold (fresh stores, fresh pool)
    serial_times, process_times, bind_times = [], [], []
    bits_serial = bits_process = None
    for _ in range(ROUNDS):
        t, bits_serial = run(SerialBackend())
        serial_times.append(t)
        process = ProcessBackend(workers=WORKERS)
        # Spawn the pool and export the dataset outside the timed region (a
        # long-lived engine pays this once); worker profile caches are cold.
        # The bind is timed on its own: each spawned worker pays
        # `import repro` before it answers.
        t0 = time.perf_counter()
        process.bind(masks)
        bind_times.append(time.perf_counter() - t0)
        t, bits_process = run(process)
        process.close()
        process_times.append(t)
        # The point of the runtime: parallelism never changes a release.
        assert bits_process == bits_serial, "process backend diverged from serial"

    t_serial = min(serial_times)
    t_process = min(process_times)
    t_bind = min(bind_times)
    speedup = t_serial / t_process
    cores = os.cpu_count() or 1
    gated = cores >= WORKERS
    harness = load_harness()
    emit(
        "bench_parallel_scaling",
        f"release_many parallel scaling (salary_reduced n={n_records}, "
        f"{len(record_ids)} records, LOF k=10, BFS n_samples={n_samples}, "
        "cold caches, pool pre-spawned)\n"
        f"  serial backend       : {t_serial * 1000:8.1f} ms\n"
        f"  process backend (x{WORKERS}) : {t_process * 1000:8.1f} ms\n"
        f"  pool bind            : {t_bind * 1000:8.1f} ms\n"
        f"  speedup              : {speedup:8.2f}x "
        f"(gate: >= {SPEEDUP_GATE:.1f}x on >= {WORKERS} cores; "
        f"this machine: {cores} core{'s' if cores != 1 else ''}, "
        f"gate {'ARMED' if gated else 'skipped'})\n"
        f"  bit-identical        : yes ({len(record_ids)} releases compared)",
        metrics=[
            harness.metric(
                "serial_ms", t_serial * 1000.0, "ms",
                direction="lower", tolerance=0.5,
            ),
            harness.metric("process_ms", t_process * 1000.0, "ms"),
            harness.metric(
                "pool_bind_ms", t_bind * 1000.0, "ms",
                direction="lower", tolerance=0.5,
            ),
            # Speedup on a small box is cores-bound, not code-bound; the
            # env fingerprint (cpus) is what makes this row comparable.
            harness.metric("parallel_speedup", speedup, "x"),
        ],
    )
    if gated:
        assert speedup >= SPEEDUP_GATE, (
            f"process backend at {WORKERS} workers achieved only "
            f"{speedup:.2f}x over serial (gate: >= {SPEEDUP_GATE:.1f}x)"
        )
    else:
        pytest.skip(
            f"speedup gate needs >= {WORKERS} cores, machine has {cores}; "
            f"measured {speedup:.2f}x (results verified bit-identical)"
        )
