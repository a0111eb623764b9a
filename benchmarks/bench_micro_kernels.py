"""Micro-benchmarks of the hot kernels under the experiments.

These are genuine multi-round pytest-benchmark measurements (unlike the
table benches, which run whole experiments once):

* population-mask evaluation — the filtering engine every f_M call rides on,
* batch vs scalar population-size kernels (the batched-engine speedup),
* LOF / Grubbs / Histogram scoring on a realistic population,
* LOF's window kernel on metric-ordered populations vs the seed path,
* record-scoped LOF verdicts (a record's metric-order windows, scored in
  one batched call) vs full profiles over the populations of one cold
  release, plus a stream of lone releases on one long-lived engine,
* Exponential-mechanism selection over a large candidate pool,
* one full BFS release on a warmed verifier,
* release_many vs fresh-instance releases (each detector run charged to
  the release that made it),
* zscore full profiles from cell moments vs the per-population path.
"""

import time

import numpy as np
import pytest

from _helpers import load_harness

from repro.context import ContextSpace
from repro.core.pcor import PCOR
from repro.core.sampling import BFSSampler
from repro.core.starting import starting_context_from_reference
from repro.data.generators import salary_reduced
from repro.data.masks import PredicateMaskIndex
from repro.experiments.harness import Workbench
from repro.experiments.tables import DETECTOR_KWARGS
from repro.mechanisms.exponential import ExponentialMechanism
from repro.outliers import GrubbsDetector, HistogramDetector, LOFDetector


@pytest.fixture(scope="module")
def bench_env(scale):
    workbench = Workbench.get(
        "salary_reduced", scale.salary_reduced_records, 7, "lof", DETECTOR_KWARGS["lof"]
    )
    rng = np.random.default_rng(0)
    return workbench, rng


def test_population_mask_kernel(benchmark, bench_env):
    workbench, rng = bench_env
    index = PredicateMaskIndex(workbench.dataset)
    space = ContextSpace(workbench.dataset.schema)
    contexts = [space.random_valid_context(rng).bits for _ in range(256)]

    def evaluate_all():
        return sum(index.population_size(bits) for bits in contexts)

    total = benchmark(evaluate_all)
    assert total > 0


@pytest.mark.parametrize(
    "detector",
    [LOFDetector(k=10), GrubbsDetector(), HistogramDetector(min_count_floor=2.0)],
    ids=lambda d: d.name,
)
def test_detector_kernel(benchmark, bench_env, detector):
    workbench, _ = bench_env
    values = workbench.dataset.metric  # the full-population metric column
    positions = benchmark(detector.outlier_positions, values)
    assert positions.dtype == np.int64


def test_detector_kernels(emit):
    """LOF's window kernel on metric-ordered populations vs the seed path.

    Pinned setting (ignores ``PCOR_BENCH_SCALE``): k = 10 LOF over the
    populations of 64 fixed random valid contexts of the 20k-record
    ``salary_reduced`` dataset.  The seed path is ``lof_scores`` on each
    population's values in record order; the new path is
    ``LOFDetector.outlier_positions`` on the same values in metric order,
    as the verifier delivers them (from the index's metric-ordered mask
    layout).  Both run in this process, best of three
    passes each, so their ratio does not drift with the host.  Outlier
    records are asserted identical before any timing, and the document
    counts the populations the window kernel handed to the exact path.
    """
    from repro.outliers.lof import lof_scores, lof_window_scores

    dataset = salary_reduced(n_records=20_000, seed=7)
    index = PredicateMaskIndex(dataset)
    detector = LOFDetector(**DETECTOR_KWARGS["lof"])
    k, threshold = detector.k, detector.threshold
    space = ContextSpace(dataset.schema)
    rng = np.random.default_rng(0)
    order = dataset.metric_order()
    metric, ids = dataset.metric, dataset.ids
    record_order, metric_order = [], []
    while len(record_order) < 64:
        bits = space.random_valid_context(rng).bits
        positions = index.positions_from_packed(index.population_masks([bits])[0])
        if positions.size < detector.min_population:
            continue
        ranked = index.population_masks([bits], metric_order=True)[0]
        ordered = order[index.positions_from_packed(ranked)]
        record_order.append((positions, metric[positions]))
        metric_order.append((ordered, metric[ordered]))

    exact_path = 0
    for (positions, values), (ordered, sorted_values) in zip(record_order, metric_order):
        seed = positions[np.flatnonzero(lof_scores(values, k) > threshold)]
        new = ordered[detector.outlier_positions(sorted_values)]
        assert np.array_equal(np.sort(ids[seed]), np.sort(ids[new]))
        exact_path += lof_window_scores(sorted_values, k, threshold) is None

    t_seed, _ = _best_of_three(
        lambda: [lof_scores(values, k) > threshold for _, values in record_order]
    )
    t_window, _ = _best_of_three(
        lambda: [detector.outlier_positions(values) for _, values in metric_order]
    )
    n_pops = len(record_order)
    mean_size = float(np.mean([values.size for _, values in record_order]))
    seed_ms, window_ms = t_seed * 1000.0 / n_pops, t_window * 1000.0 / n_pops
    speedup = t_seed / t_window
    harness = load_harness()
    emit(
        "bench_detector_kernels",
        f"LOF k={k} per population (n=20000 records, {n_pops} populations, "
        f"mean size {mean_size:.0f})\n"
        f"  seed path (lof_scores, record order)      : {seed_ms:8.3f} ms\n"
        f"  window kernel (outlier_positions, sorted) : {window_ms:8.3f} ms\n"
        f"  speedup                                   : {speedup:8.2f}x\n"
        f"  populations on the exact path             : {exact_path}",
        metrics=[
            harness.metric("seed_ms_per_population", seed_ms, "ms"),
            harness.metric(
                "window_ms_per_population", window_ms, "ms",
                direction="lower", tolerance=0.5,
            ),
            harness.metric(
                "lof_speedup", speedup, "x", direction="higher", tolerance=0.5
            ),
            # Deterministic: which populations decline the window kernel.
            harness.metric(
                "exact_path_populations", exact_path, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric("populations", n_pops, "count"),
        ],
    )
    assert speedup >= 1.5, f"window kernel only {speedup:.2f}x faster than lof_scores"


def test_record_scoped_verdicts(emit, monkeypatch):
    """Record-scoped LOF verdicts vs full profiles over one cold release.

    Pinned setting (ignores ``PCOR_BENCH_SCALE``): k = 10 LOF on the
    20k-record ``salary_reduced`` dataset, over the distinct containing
    contexts one full-quota BFS release (50 samples, epsilon 0.2) asks
    ``f_M`` about — the first exact-context outlier in id order whose
    release fills its quota.  A cold verifier answers every context twice:
    the full path scores the whole population (``profiles(bits)``), the
    record-scoped path the record's window (``profiles(bits,
    record_id=...)``).  Verdicts are asserted identical before any timing.
    The values the verifier hands the detector on each path are recorded:
    populations at ``outlier_positions`` on the full path, window matrices
    at ``outlier_centres`` on the record-scoped one.  Their sizes (finite
    values, for the windows) are deterministic counts, and the gated
    detector-only ratio times the detector's calls on exactly those inputs.
    Per-context times are best of three cold passes.

    A long-lived engine then releases 20 distinct exact-context outliers
    one request at a time: lone releases store record-scoped verdicts, so
    no release reads another's.  Its per-release time and ``f_M`` runs
    track that side of the trade-off.
    """
    from repro.core.verification import OutlierVerifier
    from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

    dataset = salary_reduced(n_records=20_000, seed=7)
    index = PredicateMaskIndex(dataset)
    detector = LOFDetector(**DETECTOR_KWARGS["lof"])
    spec = PipelineSpec(
        detector=detector, sampler="bfs", n_samples=50, epsilon=0.2,
        utility="population_size",
    )
    probe = OutlierVerifier(dataset, detector, mask_index=index)
    outliers = [
        rid for rid in map(int, dataset.ids)
        if probe.is_matching(dataset.record_bits(rid), rid)
    ]
    contexts: list = []
    for rid in outliers:
        rbits = dataset.record_bits(rid)
        with ReleaseEngine(dataset, mask_index=index, backend="serial") as engine:
            verifier = engine.verifier_for(detector)
            asked: dict = {}
            many, one = verifier.is_matching_many, verifier.is_matching

            def record_many(bits_seq, record_id, many=many, asked=asked, rbits=rbits):
                bits_seq = list(bits_seq)
                asked.update((b, None) for b in bits_seq if (rbits & b) == rbits)
                return many(bits_seq, record_id)

            def record_one(bits, record_id, one=one, asked=asked, rbits=rbits):
                if (rbits & bits) == rbits:
                    asked[bits] = None
                return one(bits, record_id)

            verifier.is_matching_many, verifier.is_matching = record_many, record_one
            result = engine.submit(ReleaseRequest(record_id=rid, spec=spec, seed=0))
        if result.n_candidates == 50:
            contexts = list(asked)
            break
    assert contexts, "no exact-context outlier fills a 50-sample BFS quota"

    # One cold pass per path, recording what the verifier hands the detector.
    populations: list = []
    windows: list = []
    positions_of, centres_of = LOFDetector.outlier_positions, LOFDetector.outlier_centres

    def record_positions(self, values):
        populations.append(np.array(values))
        return positions_of(self, values)

    def record_centres(self, rows):
        windows.append(np.array(rows))
        return centres_of(self, rows)

    monkeypatch.setattr(LOFDetector, "outlier_positions", record_positions)
    monkeypatch.setattr(LOFDetector, "outlier_centres", record_centres)
    full_profiles = OutlierVerifier(dataset, detector, mask_index=index).profiles(
        contexts
    )
    scoped = OutlierVerifier(dataset, detector, mask_index=index).profiles(
        contexts, record_id=rid
    )
    monkeypatch.undo()
    assert [rid in p[1] for p in scoped] == [rid in p[1] for p in full_profiles]
    assert [p[0] for p in scoped] == [p[0] for p in full_profiles]
    scanned_full = int(sum(v.size for v in populations))
    scanned_scoped = int(sum(np.isfinite(w).sum() for w in windows))

    def cold_pass(record_id):
        def run():
            verifier = OutlierVerifier(dataset, detector, mask_index=index)
            return verifier.profiles(contexts, record_id=record_id)

        return run

    t_full, _ = _best_of_three(cold_pass(None))
    t_scoped, _ = _best_of_three(cold_pass(rid))
    t_det_full, _ = _best_of_three(
        lambda: [detector.outlier_positions(v) for v in populations]
    )
    t_det_window, _ = _best_of_three(
        lambda: [detector.outlier_centres(w) for w in windows]
    )
    n = len(contexts)
    full_ms, scoped_ms = t_full * 1000.0 / n, t_scoped * 1000.0 / n
    det_full_ms, det_window_ms = t_det_full * 1000.0 / n, t_det_window * 1000.0 / n
    speedup = t_det_full / t_det_window

    stream = outliers[:20]
    assert len(stream) == 20, "too few exact-context outliers for the stream"
    with ReleaseEngine(dataset, mask_index=index, backend="serial") as engine:
        t0 = time.perf_counter()
        for i, stream_rid in enumerate(stream):
            engine.submit(ReleaseRequest(record_id=stream_rid, spec=spec, seed=i))
        long_lived_ms = (time.perf_counter() - t0) * 1000.0 / len(stream)
        long_lived_runs = engine.metrics().fm_evaluations

    harness = load_harness()
    emit(
        "bench_record_scoped_verdicts",
        f"LOF k={detector.k} verdicts per context (n=20000 records, record {rid}, "
        f"{n} contexts of one cold release)\n"
        f"  full profile    : {full_ms:8.3f} ms  (detector {det_full_ms:8.3f} ms, "
        f"{scanned_full} values)\n"
        f"  record-scoped   : {scoped_ms:8.3f} ms  (detector {det_window_ms:8.3f} ms, "
        f"{scanned_scoped} values)\n"
        f"  detector speedup: {speedup:8.2f}x\n"
        f"  long-lived engine, {len(stream)} lone releases of distinct records: "
        f"{long_lived_ms:8.1f} ms/release, {long_lived_runs} f_M runs",
        metrics=[
            harness.metric("full_verdict_ms", full_ms, "ms"),
            harness.metric(
                "record_scoped_verdict_ms", scoped_ms, "ms",
                direction="lower", tolerance=0.5,
            ),
            harness.metric("detector_full_ms", det_full_ms, "ms"),
            harness.metric("detector_window_ms", det_window_ms, "ms"),
            harness.metric(
                "detector_speedup", speedup, "x", direction="higher", tolerance=0.5
            ),
            # Deterministic: the values the verifier handed the detector.
            harness.metric(
                "records_scanned_full", scanned_full, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric(
                "records_scanned_record_scoped", scanned_scoped, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric("contexts", n, "count"),
            harness.metric(
                "long_lived_release_ms", long_lived_ms, "ms",
                direction="lower", tolerance=0.5,
            ),
            # Deterministic: fixed records, seeds and serial execution.
            harness.metric(
                "long_lived_fm_runs", long_lived_runs, "count",
                direction="lower", tolerance=0.01,
            ),
        ],
    )
    assert speedup >= 2.0, f"window detector only {speedup:.2f}x faster than full"


def test_zscore_full_profiles(emit, monkeypatch):
    """zscore full profiles from cell moments vs the per-population path.

    Pinned setting (ignores ``PCOR_BENCH_SCALE``): zscore with its default
    ``z_threshold = 3`` and ``min_population = 10`` on the 20k-record
    ``salary_reduced`` dataset, over 1,024 distinct fixed random valid
    contexts, asked of a cold store in reads of 8 (served reads hold 1-11
    contexts).  The moments path is ``ZScoreDetector`` as registered; the
    per-population path is the same detector with ``std_cutoff = None``,
    which runs ``outlier_positions`` on every population.  Profiles are
    asserted identical before any timing.  A spy on ``outlier_positions``
    counts the populations the moments path declines and the values each
    path hands the detector: deterministic counts, gated tightly.  The
    timings, best of three passes each in this process, are recorded and
    gate nothing.
    """
    from repro.core.verification import OutlierVerifier
    from repro.outliers import ZScoreDetector

    class PerPopulation(ZScoreDetector):
        std_cutoff = None

    dataset = salary_reduced(n_records=20_000, seed=7)
    index = PredicateMaskIndex(dataset)
    space = ContextSpace(dataset.schema)
    rng = np.random.default_rng(0)
    contexts: dict = {}
    while len(contexts) < 1024:
        contexts[space.random_valid_context(rng).bits] = None
    reads = [list(contexts)[i : i + 8] for i in range(0, len(contexts), 8)]
    detectors = {"cutoff": ZScoreDetector(), "per_population": PerPopulation()}

    def cold_pass(detector):
        def run():
            verifier = OutlierVerifier(dataset, detector, mask_index=index)
            return [p for read in reads for p in verifier.profiles(read)]

        return run

    scanned = {}
    profiles = {}
    for name, detector in detectors.items():
        seen = []
        original = ZScoreDetector.outlier_positions

        def spy(self, values, seen=seen, original=original):
            seen.append(len(values))
            return original(self, values)

        monkeypatch.setattr(ZScoreDetector, "outlier_positions", spy)
        profiles[name] = cold_pass(detector)()
        monkeypatch.undo()
        scanned[name] = (len(seen), int(sum(seen)))
    assert profiles["cutoff"] == profiles["per_population"]
    declined, values_cutoff = scanned["cutoff"]
    runs, values_full = scanned["per_population"]

    t_cutoff, _ = _best_of_three(cold_pass(detectors["cutoff"]))
    t_full, _ = _best_of_three(cold_pass(detectors["per_population"]))
    n = len(contexts)
    cutoff_us, full_us = t_cutoff * 1e6 / n, t_full * 1e6 / n
    harness = load_harness()
    emit(
        "bench_zscore_full_profiles",
        f"zscore full profiles (n=20000 records, {n} contexts in reads of 8)\n"
        f"  per-population path : {full_us:8.1f} us/profile "
        f"({runs} detector runs, {values_full} values)\n"
        f"  cell-moments path   : {cutoff_us:8.1f} us/profile "
        f"({declined} declined, {values_cutoff} values)\n"
        f"  speedup             : {t_full / t_cutoff:8.2f}x",
        metrics=[
            harness.metric("cutoff_us_per_profile", cutoff_us, "us"),
            harness.metric("per_population_us_per_profile", full_us, "us"),
            harness.metric("speedup", t_full / t_cutoff, "x"),
            # Deterministic: fixed data, contexts and detector settings.
            harness.metric(
                "declined_populations", declined, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric(
                "detector_values_cutoff", values_cutoff, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric(
                "detector_values_per_population", values_full, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric("contexts", n, "count"),
        ],
    )


def test_population_sizes_batch_vs_scalar(benchmark, emit):
    """The tentpole kernel: batched population sizes vs scalar calls.

    Deliberately pinned to the acceptance setting (n = 20k records, a batch
    of 1024 contexts) rather than the ``PCOR_BENCH_SCALE`` fixture: the
    >= 5x speedup gate is only meaningful at this scale.  Both sides take
    the best of three timed runs so a loaded runner doesn't flake the gate.
    """
    dataset = salary_reduced(n_records=20_000, seed=7)
    index = PredicateMaskIndex(dataset)
    space = ContextSpace(dataset.schema)
    rng = np.random.default_rng(0)
    contexts = [space.random_valid_context(rng).bits for _ in range(1024)]

    batched = benchmark(lambda: index.population_sizes(contexts))

    def best_of_three(fn):
        times, out = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return min(times), out

    t_batch, batch_again = best_of_three(lambda: index.population_sizes(contexts))
    t_scalar, scalar = best_of_three(
        lambda: [index.population_size(bits) for bits in contexts]
    )

    assert list(batched) == scalar
    assert np.array_equal(batched, batch_again)
    speedup = t_scalar / t_batch
    harness = load_harness()
    emit(
        "bench_batch_population_sizes",
        "population_sizes batch kernel (n=20000 records, batch=1024 contexts)\n"
        f"  scalar loop : {t_scalar * 1000:8.1f} ms\n"
        f"  batch kernel: {t_batch * 1000:8.1f} ms\n"
        f"  speedup     : {speedup:8.1f}x",
        metrics=[
            harness.metric(
                "batch_kernel_ms", t_batch * 1000.0, "ms",
                direction="lower", tolerance=0.5,
            ),
            harness.metric("scalar_loop_ms", t_scalar * 1000.0, "ms"),
            harness.metric(
                "batch_speedup", speedup, "x", direction="higher", tolerance=0.5
            ),
        ],
    )
    assert speedup >= 5.0, f"batch kernel only {speedup:.1f}x faster than scalar"


def _best_of_three(fn):
    times, out = [], None
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def test_append_vs_rebuild_index(emit):
    """Incremental mask-index append vs rebuilding the index from scratch.

    Pinned acceptance setting: appending 64 records to a 20k-record dataset
    must be >= 10x cheaper than the full-rebuild path (``with_records``
    re-validation plus a from-scratch index build over the extended
    dataset), and the appended index must be bit-identical to a freshly
    built one.  Both sides are end-to-end — each includes its own dataset
    extension — so the gate measures what a live service actually saves.
    """
    dataset = salary_reduced(n_records=20_000, seed=7)
    rng = np.random.default_rng(5)
    rows = []
    for i in map(int, rng.integers(0, len(dataset), size=64)):
        rec = {
            attr.name: attr.domain[int(dataset.codes(attr.name)[i])]
            for attr in dataset.schema.attributes
        }
        rec[dataset.schema.metric.name] = float(dataset.metric[i])
        rows.append(rec)

    appended = PredicateMaskIndex(dataset)
    extended = appended.append(rows)
    fresh = PredicateMaskIndex(extended)
    assert np.array_equal(appended.packed_matrix, fresh.packed_matrix)
    space = ContextSpace(dataset.schema)
    probe = [space.random_valid_context(rng).bits for _ in range(128)]
    assert (
        appended.population_sizes(probe).tolist()
        == fresh.population_sizes(probe).tolist()
    )

    def timed_append() -> float:
        index = PredicateMaskIndex(dataset)  # fresh base, outside the clock
        t0 = time.perf_counter()
        index.append(rows)
        return time.perf_counter() - t0

    t_append = min(timed_append() for _ in range(3))
    t_rebuild, _ = _best_of_three(
        lambda: PredicateMaskIndex(dataset.with_records(rows))
    )
    speedup = t_rebuild / t_append

    harness = load_harness()
    emit(
        "bench_append_incremental",
        "incremental append vs index rebuild (n=20000 records, 64 appended)\n"
        f"  full rebuild     : {t_rebuild * 1000:8.2f} ms\n"
        f"  incremental append: {t_append * 1000:8.2f} ms\n"
        f"  speedup          : {speedup:8.1f}x",
        metrics=[
            harness.metric(
                "append_ms", t_append * 1000.0, "ms",
                direction="lower", tolerance=0.5,
            ),
            harness.metric("rebuild_ms", t_rebuild * 1000.0, "ms"),
            harness.metric(
                "append_speedup", speedup, "x", direction="higher", tolerance=0.5
            ),
        ],
    )
    assert speedup >= 10.0, f"append only {speedup:.1f}x cheaper than rebuild"


def test_release_many_amortisation(emit):
    """release_many on one PCOR instance vs fresh-instance releases.

    Acceptance property (deliberately pinned, ignores ``PCOR_BENCH_SCALE``):
    a 20-record LOF ``release_many`` is a loop of lone releases, so every
    uncached detector run (``fm_evaluations``) is charged to the release
    that made it and the results' counts add up to the verifier's total.
    The fresh instances replay the batch's planned RNG substreams (one
    child spawned per record, in order, from the batch seed), so both
    sides release the same contexts.  LOF answers each record-bound miss
    record-scoped, so the batch's records share no verdicts: its total
    equals the fresh instances' exactly.  Both totals are deterministic
    seeded counters, not wall-clock, so the check cannot flake on a loaded
    runner.
    """
    dataset = salary_reduced(n_records=2_000, seed=7)
    detector = LOFDetector(**DETECTOR_KWARGS["lof"])
    sampler = BFSSampler(n_samples=25)

    probe = PCOR(dataset, detector, epsilon=0.2, sampler=sampler)
    record_ids = []
    for rid in map(int, dataset.ids):
        if probe.verifier.is_matching(dataset.record_bits(rid), rid):
            record_ids.append(rid)
        if len(record_ids) == 20:
            break
    assert len(record_ids) == 20, "dataset yielded too few exact-context outliers"

    t0 = time.perf_counter()
    batched = PCOR(dataset, detector, epsilon=0.2, sampler=sampler)
    results = batched.release_many(record_ids, seed=11)
    t_many = time.perf_counter() - t0
    amortised = batched.verifier.fm_evaluations
    charged = sum(r.fm_evaluations for r in results)

    t0 = time.perf_counter()
    gen = np.random.default_rng(11)
    fresh_total, fresh_contexts = 0, []
    for rid in record_ids:
        fresh = PCOR(dataset, detector, epsilon=0.2, sampler=sampler)
        fresh_contexts.append(fresh.release(rid, seed=gen.spawn(1)[0]).context)
        fresh_total += fresh.verifier.fm_evaluations
    t_fresh = time.perf_counter() - t0

    harness = load_harness()
    emit(
        "bench_release_many_amortisation",
        "release_many vs fresh PCOR instances (n=2000, 20 records, BFS n_samples=25)\n"
        f"  fresh instances : {fresh_total:6d} uncached detector runs, {t_fresh:6.2f} s\n"
        f"  release_many    : {amortised:6d} uncached detector runs, {t_many:6.2f} s\n"
        f"  charged to its releases: {charged}",
        metrics=[
            # Deterministic seeded counters: zero machine noise, so the
            # tolerance can be tight — any move is a code change.
            harness.metric(
                "amortised_fm_evaluations", amortised, "count",
                direction="lower", tolerance=0.01,
            ),
            harness.metric(
                "fresh_fm_evaluations", fresh_total, "count",
                direction="lower", tolerance=0.01,
            ),
        ],
    )
    assert charged == amortised
    assert fresh_contexts == [r.context for r in results]
    assert fresh_total == amortised


def test_exponential_mechanism_kernel(benchmark, bench_env):
    _, rng = bench_env
    mech = ExponentialMechanism(0.002)
    utilities = rng.uniform(0, 5000, size=4096)

    def select():
        return mech.select_index(utilities, rng)

    idx = benchmark(select)
    assert 0 <= idx < 4096


def test_bfs_release_warm_cache(benchmark, bench_env):
    """One full BFS release against a warmed verifier (amortised regime)."""
    workbench, rng = bench_env
    record_id = workbench.pick_outliers(1, 0)[0]
    start = starting_context_from_reference(workbench.reference, record_id, 0)
    pcor = PCOR(
        workbench.dataset,
        workbench.detector,
        epsilon=0.2,
        sampler=BFSSampler(n_samples=25),
        verifier=workbench.reference_verifier,  # fully warmed cache
    )

    counter = iter(range(10**9))

    def release():
        return pcor.release(record_id, starting_context=start, seed=next(counter))

    result = benchmark(release)
    assert result.context.is_structurally_valid
