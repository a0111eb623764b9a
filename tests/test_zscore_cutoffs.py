"""zscore verdicts from cell moments, pinned to the per-population path.

A detector declaring ``std_cutoff`` (zscore) stores each population its
cell moments decide as the population's cut-offs, and runs
``outlier_positions`` only on the populations those cannot decide exactly
(see :mod:`repro.core.verification`).  Record-bound reads answer from the
cut-offs with a containment test and two comparisons; record-free reads
turn them into outlier ids from the population's mask row.  Every test
here compares against the per-population path: the same detector with
``std_cutoff`` set to ``None``, which runs ``outlier_positions`` on every
population in record order.
Hypothesis draws small datasets built to reach the exactness fallback:
duplicate-heavy and constant populations, extreme magnitudes, large
offsets, populations around ``min_population``, contexts wider than 64
bits, and appends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import ints_to_bool_matrix
from repro.core import verification
from repro.core.verification import OutlierVerifier
from repro.data import masks
from repro.data.masks import PredicateMaskIndex
from repro.data.table import Dataset
from repro.exceptions import ContextError
from repro.outliers import LOFDetector, ZScoreDetector
from repro.schema import CategoricalAttribute, MetricAttribute, Schema
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest


# The detector itself warns on one-member populations (a 0 / 0 deviation)
# and on squares that overflow; both are drawn here on purpose.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)


class PerPopulation(ZScoreDetector):
    """zscore on the per-population path."""

    std_cutoff = None


def reference(dataset, z, min_population):
    return OutlierVerifier(dataset, PerPopulation(z, min_population))


def verdicts(verifier, contexts, bound):
    """The record-free profiles of ``contexts``, or with ``bound`` every
    record's record-bound reads of them as ``(population, is an outlier)``
    pairs, record after record on one store: the first read computes the
    misses and the later ones answer from the store."""
    if not bound:
        return verifier.profiles(contexts)
    return [
        [
            (pop, rid in outliers)
            for pop, outliers in verifier.profiles(contexts, record_id=rid)
        ]
        for rid in verifier.dataset.id_list()
    ]


def make_dataset(sizes, codes, metric, ids=None):
    schema = Schema(
        attributes=[
            CategoricalAttribute(f"A{i}", [f"v{i}_{j}" for j in range(size)])
            for i, size in enumerate(sizes)
        ],
        metric=MetricAttribute("M"),
    )
    columns = {
        attr.name: [attr.domain[int(c)] for c in column]
        for attr, column in zip(schema.attributes, codes)
    }
    return Dataset(schema, columns, metric, ids=ids)


#: Metric shapes that reach each branch of the cut-off path.
SHAPES = ("normal", "duplicates", "constant", "huge", "tiny", "offset", "outliers")


def draw_metric(gen, shape, n):
    if shape == "normal":
        return gen.normal(50.0, 20.0, n)
    if shape == "duplicates":
        return gen.integers(0, 4, n).astype(float)
    if shape == "constant":
        return np.full(n, 0.1)
    if shape == "huge":
        return gen.normal(0.0, 1.0, n) * 1e300
    if shape == "tiny":
        return gen.normal(0.0, 1.0, n) * 1e-300
    if shape == "offset":
        return 1e12 + gen.integers(0, 3, n).astype(float)
    values = gen.normal(0.0, 1.0, n)
    values[gen.random(n) < 0.1] *= 50.0
    return values


@st.composite
def datasets(draw, max_records=80):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    wide = draw(st.booleans())
    sizes = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)))]
    if wide:
        sizes.append(62)  # t > 64: contexts wider than one word
    n = draw(st.integers(0, max_records))
    # A few codes per attribute, so populations repeat cells.
    codes = [gen.integers(0, min(size, 3), n) for size in sizes]
    metric = draw_metric(gen, draw(st.sampled_from(SHAPES)), n)
    return make_dataset(sizes, codes, metric), gen


def draw_contexts(gen, dataset, count):
    t = dataset.schema.t
    contexts = [int(b) for b in dataset.all_record_bits()[:count]]
    for _ in range(count):
        bits = 0
        for off, attr in zip(dataset.schema.offsets, dataset.schema.attributes):
            picked = gen.random(len(attr)) < 0.6
            picked[gen.integers(len(attr))] = True
            bits |= sum(1 << (off + j) for j in np.flatnonzero(picked).tolist())
        contexts.append(bits)
    contexts.append((1 << t) - 1)
    contexts.append(int(gen.integers(0, 1 << min(t, 62))))
    return contexts


PROP = settings(max_examples=60, deadline=None)


@given(data=datasets(), z=st.sampled_from([0.5, 1.0, 2.5, 3.0]), floor=st.integers(1, 12))
@PROP
def test_profiles_equal_the_per_population_path(data, z, floor):
    dataset, gen = data
    contexts = draw_contexts(gen, dataset, 12)
    got = OutlierVerifier(dataset, ZScoreDetector(z, floor)).profiles(contexts)
    assert got == reference(dataset, z, floor).profiles(contexts)


@given(
    data=datasets(max_records=40),
    z=st.sampled_from([1.0, 2.5]),
    floor=st.integers(1, 8),
    batches=st.lists(st.integers(1, 6), min_size=1, max_size=3),
)
@PROP
def test_profiles_equal_after_appends(data, z, floor, batches):
    dataset, gen = data
    if len(dataset) == 0:
        return
    index = PredicateMaskIndex(dataset)
    verifier = OutlierVerifier(dataset, ZScoreDetector(z, floor), mask_index=index)
    for k in batches:
        picks = gen.integers(0, len(index.dataset), k)
        rows = []
        for i in picks.tolist():
            row = index.dataset.record(int(index.dataset.ids[i]))
            row["M"] = float(row["M"]) + float(gen.normal(0.0, 5.0))
            rows.append(row)
        index.append(rows)
        grown = index.dataset
        contexts = draw_contexts(gen, grown, 8)
        verifier.profile_store.clear()
        got = verifier.profiles(contexts)
        assert got == reference(grown, z, floor).profiles(contexts)


def assert_record_bound_reads_agree(verifier, ref, contexts):
    """Every record's record-bound reads equal the reference's populations
    and its membership in the reference's outliers: ``profiles`` on a
    fresh store per record (every context a miss), ``is_matching_many``
    on ``verifier``'s store (misses, then cut-off entries)."""
    want = ref.profiles(contexts)
    dataset = verifier.dataset
    for rid in dataset.id_list():
        expected = [rid in outliers for _, outliers in want]
        fresh = OutlierVerifier(
            dataset, verifier.detector, mask_index=verifier.masks
        ).profiles(contexts, record_id=rid)
        assert [p[0] for p in fresh] == [p[0] for p in want]
        assert [rid in outliers for _, outliers in fresh] == expected
        assert verifier.is_matching_many(contexts, rid).tolist() == expected


@given(
    data=datasets(max_records=40),
    z=st.sampled_from([0.5, 1.0, 2.5, 3.0]),
    floor=st.integers(1, 12),
)
@PROP
def test_record_bound_reads_equal_the_per_population_path(data, z, floor):
    dataset, gen = data
    contexts = draw_contexts(gen, dataset, 8)
    assert_record_bound_reads_agree(
        OutlierVerifier(dataset, ZScoreDetector(z, floor)),
        reference(dataset, z, floor),
        contexts,
    )


@given(
    data=datasets(max_records=30),
    z=st.sampled_from([1.0, 2.5]),
    floor=st.integers(1, 8),
    batches=st.lists(st.integers(1, 6), min_size=1, max_size=3),
)
@PROP
def test_record_bound_reads_equal_after_appends(data, z, floor, batches):
    """Appends go through the engine's protocol (invalidate, then commit),
    so the store keeps the cut-off entries of every context no appended
    record falls in, and appended records are asked about too."""
    dataset, gen = data
    if len(dataset) == 0:
        return
    index = PredicateMaskIndex(dataset)
    verifier = OutlierVerifier(dataset, ZScoreDetector(z, floor), mask_index=index)
    contexts = draw_contexts(gen, dataset, 6)
    for rid in dataset.id_list():
        verifier.is_matching_many(contexts, rid)
    for k in batches:
        picks = gen.integers(0, len(index.dataset), k)
        rows = []
        for i in picks.tolist():
            row = index.dataset.record(int(index.dataset.ids[i]))
            row["M"] = float(row["M"]) + float(gen.normal(0.0, 5.0))
            rows.append(row)
        pending = index.prepare_append(rows)
        verifier.profile_store.invalidate_matching(pending.record_bits, pending.version)
        index.commit_append(pending)
        assert_record_bound_reads_agree(
            verifier, reference(index.dataset, z, floor), contexts
        )
        assert verifier.profiles(contexts) == reference(index.dataset, z, floor).profiles(
            contexts
        )


@pytest.mark.parametrize("bound_first", [True, False])
def test_one_store_serves_both_kinds_of_read(mini_dataset, bound_first):
    """Record-bound reads then record-free ones on one store, and the
    reverse: the record-free reads return the reference's outlier sets and
    the record-bound ones its verdicts, whichever read filled the store."""
    contexts = [int(b) for b in mini_dataset.all_record_bits()[:40]] + [511, 73, 0]
    verifier = OutlierVerifier(mini_dataset, ZScoreDetector(2.5, 8))
    ref = reference(mini_dataset, 2.5, 8)
    want = ref.profiles(contexts)
    assert any(outliers for _, outliers in want)

    def bound_reads():
        assert verdicts(verifier, contexts, True) == verdicts(ref, contexts, True)

    def free_reads():
        assert verifier.profiles(contexts) == want

    first, second = (bound_reads, free_reads) if bound_first else (free_reads, bound_reads)
    first()
    second()
    first()
    assert verifier.fm_evaluations == len(set(contexts))


def test_record_bound_misses_of_decided_populations_evaluate_no_mask(
    mini_dataset, monkeypatch
):
    """Decided populations are stored as cut-offs without a mask pass: a
    record-bound read (``profiles`` and ``is_matching_many``) makes no
    ``population_masks`` call; a record-free read of the same store then
    makes one, for the outlier ids."""
    contexts = [int(b) for b in mini_dataset.all_record_bits()[:40]] + [511, 73]
    calls = []
    original = PredicateMaskIndex.population_masks

    def spy(self, bits_seq, *args, **kwargs):
        calls.append(list(bits_seq))
        return original(self, bits_seq, *args, **kwargs)

    monkeypatch.setattr(PredicateMaskIndex, "population_masks", spy)
    verifier = OutlierVerifier(mini_dataset, ZScoreDetector(2.5, 8))
    seen = spy_on_detector(monkeypatch)
    rids = mini_dataset.id_list()
    got = [verifier.profiles(contexts, record_id=rid) for rid in rids[:3]]
    matching = [verifier.is_matching_many(contexts, rid) for rid in rids]
    assert calls == [] and seen == []
    monkeypatch.undo()
    want = reference(mini_dataset, 2.5, 8).profiles(contexts)
    assert got == [
        [
            (pop, frozenset((rid,)) if rid in outliers else frozenset())
            for pop, outliers in want
        ]
        for rid in rids[:3]
    ]
    assert [m.tolist() for m in matching] == [
        [rid in outliers for _, outliers in want] for rid in rids
    ]
    monkeypatch.setattr(PredicateMaskIndex, "population_masks", spy)
    assert verifier.profiles(contexts) == want
    assert len(calls) == 1


@pytest.mark.parametrize("bound", [False, True], ids=["record_free", "record_bound"])
def test_contexts_out_of_range_raise_on_the_cut_off_path(mini_dataset, bound):
    """The cut-off path range-checks its contexts as a mask pass does."""
    verifier = OutlierVerifier(mini_dataset, ZScoreDetector(2.5, 8))
    rid = int(mini_dataset.ids[0])
    wide = mini_dataset.record_bits(rid) | 1 << mini_dataset.schema.t
    with pytest.raises(ContextError, match="out of range"):
        verifier.profiles([wide], record_id=rid if bound else None)
    assert wide not in verifier.profile_store


def test_a_cut_off_entry_from_another_version_goes_to_the_detector(mini_dataset):
    """A record-free read that meets a cut-off entry whose population
    differs from its own snapshot's (an append the store was not told
    about, as when an append races the read) runs the detector on the
    snapshot's population, counted as one run, instead of mixing the
    entry's cut-offs with the grown population."""
    index = PredicateMaskIndex(mini_dataset)
    verifier = OutlierVerifier(mini_dataset, ZScoreDetector(2.5, 8), mask_index=index)
    rid = int(mini_dataset.ids[0])
    bits = (1 << mini_dataset.schema.t) - 1  # every record
    verifier.profiles([bits], record_id=rid)
    entry = verifier.profile_store.peek(bits)
    assert len(entry) == 3
    row = mini_dataset.record(rid)
    row[mini_dataset.schema.metric.name] = 1e6  # an outlier of the grown population
    index.append([row])
    runs = verifier.fm_evaluations
    got = verifier.profiles([bits])
    assert got == reference(index.dataset, 2.5, 8).profiles([bits])
    assert max(got[0][1]) == int(index.dataset.ids[-1])
    assert verifier.fm_evaluations == runs + 1


def spy_on_detector(monkeypatch):
    """Record the values of every ``outlier_positions`` call."""
    seen = []
    original = ZScoreDetector.outlier_positions

    def spy(self, values):
        seen.append(np.array(values))
        return original(self, values)

    monkeypatch.setattr(ZScoreDetector, "outlier_positions", spy)
    return seen


class TestDeclines:
    """Each case is asked record-free here and record-bound (every record
    of the dataset in turn) in :class:`TestDeclinesRecordBound`: the
    detector sees exactly the declined populations either way, once each."""

    bound = False

    def test_member_on_a_cut_off_declines(self, monkeypatch):
        # Nine zeros and a one: the one's z-score is the threshold itself,
        # so it sits on the upper cut-off and only the detector can say
        # that it is not beyond it.
        values = np.array([0.0] * 9 + [1.0])
        dev = values - values.mean()
        z = float(np.abs(dev[-1]) / np.sqrt(np.add.reduce(dev * dev) / 9))
        dataset = make_dataset([2], [np.zeros(10, dtype=int)], values)
        seen = spy_on_detector(monkeypatch)
        got = verdicts(OutlierVerifier(dataset, ZScoreDetector(z, 5)), [1], self.bound)
        assert len(seen) == 1 and seen[0].tolist() == values.tolist()
        monkeypatch.undo()
        assert got == verdicts(reference(dataset, z, 5), [1], self.bound)
        assert got == ([[(10, False)]] * 10 if self.bound else [(10, frozenset())])

    @pytest.mark.parametrize("value", [0.1, 0.0, 1e300, -7.25])
    def test_constant_population_declines(self, monkeypatch, value):
        dataset = make_dataset([2], [np.zeros(12, dtype=int)], np.full(12, value))
        seen = spy_on_detector(monkeypatch)
        got = verdicts(OutlierVerifier(dataset, ZScoreDetector(2.0, 3)), [1, 3], self.bound)
        assert len(seen) == 2  # context 3 selects the same records
        monkeypatch.undo()
        assert got == verdicts(reference(dataset, 2.0, 3), [1, 3], self.bound)

    def test_single_member_population_declines(self, monkeypatch):
        dataset = make_dataset([2], [np.array([0, 1, 1])], [5.0, 1.0, 2.0])
        seen = spy_on_detector(monkeypatch)
        got = verdicts(OutlierVerifier(dataset, ZScoreDetector(1.0, 1)), [1], self.bound)
        assert [v.tolist() for v in seen] == [[5.0]]
        assert got == ([[(1, False)]] * 3 if self.bound else [(1, frozenset())])

    @pytest.mark.parametrize("offset, scale", [(1e7, 50.0), (0.0, 1e160)])
    def test_narrow_or_huge_population_declines(self, monkeypatch, offset, scale):
        """A deviation within 1e-6 of the magnitude, where the cut-offs'
        error bound no longer holds, and magnitudes whose squares overflow
        go to the detector (no member lies in a band here)."""
        values = offset + scale * np.random.default_rng(8).normal(1.0, 0.1, 50)
        dataset = make_dataset([2], [np.zeros(50, dtype=int)], values)
        seen = spy_on_detector(monkeypatch)
        got = verdicts(OutlierVerifier(dataset, ZScoreDetector(2.0, 5)), [1], self.bound)
        assert len(seen) == 1
        monkeypatch.undo()
        assert got == verdicts(reference(dataset, 2.0, 5), [1], self.bound)

    def test_wide_band_declines_every_population(self, monkeypatch):
        """With the band as wide as the data, every population with a
        member goes to the detector, and the profiles still agree."""
        gen = np.random.default_rng(4)
        dataset = make_dataset(
            [3, 3], [gen.integers(0, 3, 200), gen.integers(0, 3, 200)],
            gen.normal(10.0, 3.0, 200),
        )
        contexts = draw_contexts(gen, dataset, 20)
        monkeypatch.setattr(verification, "_CUTOFF_MARGIN", 1.0)
        monkeypatch.setattr(verification, "_STD_MARGINS", 0.0)
        seen = spy_on_detector(monkeypatch)
        got = verdicts(OutlierVerifier(dataset, ZScoreDetector(2.0, 5)), contexts, self.bound)
        monkeypatch.undo()
        want = reference(dataset, 2.0, 5).profiles(contexts)
        assert len(seen) == len({b for b, p in zip(contexts, want) if p[0] >= 5}) > 0
        assert got == verdicts(reference(dataset, 2.0, 5), contexts, self.bound)


class TestDeclinesRecordBound(TestDeclines):
    """The cases of :class:`TestDeclines`, asked record-bound."""

    bound = True


class TestDetectorRunsOnlyOnDeclines:
    def test_spy_sees_only_declined_populations(self, monkeypatch):
        """A constant cell (declined) beside normal ones (decided): the
        detector sees exactly the populations of the constant cell."""
        gen = np.random.default_rng(11)
        n = 400
        first = gen.integers(0, 3, n)
        metric = gen.normal(100.0, 15.0, n)
        metric[first == 2] = 42.0
        dataset = make_dataset([3, 2], [first, gen.integers(0, 2, n)], metric)
        # Bits 0-2 pick A0's values, bits 3-4 A1's.
        constant = [0b11100, 0b01100, 0b10100]
        mixed = [0b11001, 0b11011, 0b11111, 0b01010, 0b10001]
        seen = spy_on_detector(monkeypatch)
        got = OutlierVerifier(dataset, ZScoreDetector(2.0, 10)).profiles(
            constant + mixed
        )
        assert len(seen) == len(constant)
        assert all(np.all(values == 42.0) for values in seen)
        assert [v.size for v in seen] == [p[0] for p in got[: len(constant)]]
        monkeypatch.undo()
        assert got == reference(dataset, 2.0, 10).profiles(constant + mixed)
        assert any(p[1] for p in got[len(constant) :])

    def test_subclass_overriding_the_verdict_keeps_the_per_population_path(self):
        """A subclass's own ``outlier_positions`` decides every population
        (a test detector that sleeps or crashes in it relies on that)."""
        calls = []

        class Counting(ZScoreDetector):
            def outlier_positions(self, values):
                calls.append(len(values))
                return super().outlier_positions(values)

        class Inverted(ZScoreDetector):
            def _outlier_positions(self, values):
                return np.setdiff1d(np.arange(len(values)), super()._outlier_positions(values))

        assert ZScoreDetector(2.0).std_cutoff == 2.0
        assert Counting(2.0).std_cutoff is None and Inverted(2.0).std_cutoff is None
        gen = np.random.default_rng(6)
        dataset = make_dataset([3], [gen.integers(0, 3, 90)], gen.normal(0, 1, 90))
        OutlierVerifier(dataset, Counting(2.0, 5)).profiles([1, 3, 7])
        assert len(calls) == 3
        inverted = OutlierVerifier(dataset, Inverted(2.0, 5)).profiles([7])
        assert inverted[0][1] == frozenset(range(90)) - reference(dataset, 2.0, 5).profiles([7])[0][1]

    def test_other_detectors_keep_their_path(self, monkeypatch):
        gen = np.random.default_rng(2)
        dataset = make_dataset([3], [gen.integers(0, 3, 90)], gen.normal(0, 1, 90))
        calls = []
        original = LOFDetector.outlier_positions

        def spy(self, values):
            calls.append(len(values))
            return original(self, values)

        monkeypatch.setattr(LOFDetector, "outlier_positions", spy)
        OutlierVerifier(dataset, LOFDetector(k=3)).profiles([1, 3, 7])
        assert len(calls) == 3


class TestCellTable:
    @given(data=datasets())
    @PROP
    def test_moments_match_the_populations(self, data):
        dataset, gen = data
        contexts = draw_contexts(gen, dataset, 6)
        cells = PredicateMaskIndex(dataset).snapshot().cells()
        count, mean, m2, absmax = cells.moments(
            ints_to_bool_matrix(contexts, dataset.schema.t)
        )
        all_bits = dataset.all_record_bits()
        metric = dataset.metric
        for k, bits in enumerate(contexts):
            held = np.array([(int(r) & bits) == int(r) for r in all_bits], dtype=bool)
            values = metric[held]
            assert count[k] == values.size
            if values.size == 0:
                assert (mean[k], absmax[k]) == (0.0, 0.0)
                continue
            scale = np.abs(values).max()
            assert absmax[k] == scale
            assert abs(mean[k] - values.mean()) <= 1e-12 * scale
            with np.errstate(over="ignore"):
                exact = np.sum((values - values.mean()) ** 2)
            if np.isfinite(exact) and scale < 1e150:
                assert abs(m2[k] - exact) <= 1e-12 * values.size * scale**2

    def test_chunks_of_contexts_agree(self, monkeypatch, mini_dataset):
        contexts = [int(b) for b in mini_dataset.all_record_bits()[:40]] + [511, 0, 73]
        selection = ints_to_bool_matrix(contexts, mini_dataset.schema.t)
        cells = PredicateMaskIndex(mini_dataset).snapshot().cells()
        whole = np.stack(cells.moments(selection))
        monkeypatch.setattr(masks, "CELL_CHUNK_ELEMENTS", 1)
        chunked = np.stack(cells.moments(selection))
        # Counts and magnitudes are exact; BLAS may round the sums of a
        # one-row chunk apart from those of a whole batch.
        assert np.array_equal(chunked[[0, 3]], whole[[0, 3]])
        assert np.allclose(chunked, whole, rtol=1e-12, atol=0.0)

    def test_kept_per_snapshot_and_rebuilt_after_append(self, mini_dataset):
        index = PredicateMaskIndex(mini_dataset)
        snap = index.snapshot()
        assert snap.cells() is snap.cells()
        index.append([mini_dataset.record(int(mini_dataset.ids[0]))])
        grown = index.snapshot().cells()
        assert grown is not snap.cells()
        assert grown.sums[:, 0].sum() == len(mini_dataset) + 1


class TestInternedIds:
    def test_outlier_sets_hold_the_datasets_id_objects(self, mini_dataset):
        verifier = OutlierVerifier(mini_dataset, ZScoreDetector(2.0, 8))
        id_list = mini_dataset.id_list()
        by_value = {rid: rid for rid in id_list}
        profiles = verifier.profiles([int(b) for b in mini_dataset.all_record_bits()[:30]] + [511])
        members = [rid for _, outliers in profiles for rid in outliers if rid > 256]
        assert members
        assert all(rid is by_value[rid] for rid in members)

    def test_append_carries_the_id_objects(self, mini_dataset):
        base = mini_dataset.id_list()
        grown = mini_dataset.append([mini_dataset.record(int(mini_dataset.ids[3]))])
        ids = grown.id_list()
        assert ids[: len(base)] == base
        assert all(a is b for a, b in zip(ids, base))
        assert ids[len(base):] == grown.ids[len(base):].tolist()


def test_batch_releases_equal_the_per_population_path(
    mini_dataset, mini_reference, monkeypatch
):
    """A ``submit_many`` batch on the configured backend (process workers
    build cell tables from their shared-memory snapshot) releases what a
    serial engine on the per-population path releases, and a serial batch
    counts the ``f_M`` runs that path counts.  A process worker counts the
    runs its own store misses, which depend on the tasks it ran before, so
    its counts are not compared."""
    ref = ReleaseEngine(mini_dataset, backend="serial")
    records = mini_reference.outlier_records()[:4]
    assert len(records) == 4
    spec = PipelineSpec(
        detector="zscore",
        detector_kwargs={"z_threshold": 2.5, "min_population": 8},
        sampler="bfs",
        n_samples=12,
        epsilon=0.5,
    )
    requests = [ReleaseRequest(rid, spec, seed=i) for i, rid in enumerate(records)]
    with ReleaseEngine(mini_dataset) as engine:
        batch = engine.submit_many(requests)
    with ReleaseEngine(mini_dataset, backend="serial") as engine:
        serial_batch = engine.submit_many(requests)
    monkeypatch.setattr(ZScoreDetector, "std_cutoff", None)
    with ref:
        lone = [ref.submit(request) for request in requests]
    assert [r.context.bits for r in batch] == [r.context.bits for r in lone]
    assert [r.context.bits for r in serial_batch] == [r.context.bits for r in lone]
    assert [r.fm_evaluations for r in serial_batch] == [r.fm_evaluations for r in lone]
