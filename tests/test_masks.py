"""Unit tests for the predicate bitmap index, checked against brute force."""

import numpy as np
import pytest

from repro.context import Context, ContextSpace
from repro.data import Dataset, PredicateMaskIndex
from repro.data.generators import salary_reduced
from repro.exceptions import ContextError
from repro.schema import CategoricalAttribute, MetricAttribute, Schema


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema(
        attributes=[
            CategoricalAttribute("A", ["a1", "a2"]),
            CategoricalAttribute("B", ["b1", "b2", "b3"]),
        ],
        metric=MetricAttribute("M"),
    )


@pytest.fixture(scope="module")
def dataset(schema) -> Dataset:
    gen = np.random.default_rng(11)
    n = 60
    a_vals = [("a1", "a2")[i] for i in gen.integers(0, 2, size=n)]
    b_vals = [("b1", "b2", "b3")[i] for i in gen.integers(0, 3, size=n)]
    return Dataset(
        schema,
        columns={"A": a_vals, "B": b_vals},
        metric_values=gen.normal(size=n),
    )


@pytest.fixture(scope="module")
def index(dataset) -> PredicateMaskIndex:
    return PredicateMaskIndex(dataset)


def brute_force_mask(dataset: Dataset, bits: int) -> np.ndarray:
    """Reference implementation: per-record predicate evaluation."""
    schema = dataset.schema
    out = np.zeros(len(dataset), dtype=bool)
    for pos, (rid, rec) in enumerate(dataset.iter_records()):
        ok = True
        for i, attr in enumerate(schema.attributes):
            block = (bits >> schema.offsets[i]) & ((1 << len(attr)) - 1)
            j = attr.index_of(rec[attr.name])
            if not (block >> j) & 1:
                ok = False
                break
        out[pos] = ok
    return out


class TestPredicateMasks:
    def test_predicate_mask_matches_column(self, index, dataset, schema):
        for bit in range(schema.t):
            pred = schema.predicate_at(bit)
            expected = np.array(
                [
                    rec[pred.attribute] == pred.value
                    for _, rec in dataset.iter_records()
                ]
            )
            assert np.array_equal(index.predicate_mask(bit), expected)

    def test_predicate_mask_read_only(self, index):
        with pytest.raises(ValueError):
            index.predicate_mask(0)[0] = True

    def test_predicate_mask_out_of_range(self, index):
        with pytest.raises(ContextError):
            index.predicate_mask(99)


class TestPopulationMask:
    def test_matches_brute_force_on_all_contexts(self, index, dataset, schema):
        for bits in range(1 << schema.t):
            assert np.array_equal(
                index.population_mask(bits), brute_force_mask(dataset, bits)
            ), f"mismatch at bits={bits:05b}"

    def test_empty_block_gives_empty_population(self, index, schema):
        # Only attribute A selected; attribute B block empty.
        bits = 0b00011
        assert not index.population_mask(bits).any()

    def test_full_context_selects_everything(self, index, dataset, schema):
        assert index.population_mask(schema.full_bits).all()

    def test_population_size(self, index, dataset, schema):
        assert index.population_size(schema.full_bits) == len(dataset)
        assert index.population_size(0) == 0

    def test_population_returns_aligned_arrays(self, index, dataset, schema):
        positions, ids, metric = index.population(schema.full_bits)
        assert len(positions) == len(ids) == len(metric) == len(dataset)
        assert np.array_equal(metric, dataset.metric[positions])

    def test_out_of_range_bits_rejected(self, index, schema):
        with pytest.raises(ContextError):
            index.population_mask(1 << schema.t)
        with pytest.raises(ContextError):
            index.population_mask(-1)


class TestOrderedPositions:
    def test_positions_come_back_in_metric_order(self, index, dataset, schema):
        space = ContextSpace(schema)
        gen = np.random.default_rng(8)
        order = dataset.metric_order()
        for _ in range(40):
            bits = space.random_context(gen).bits
            row = index.population_masks([bits])[0]
            plain = index.positions_from_packed(row)
            ranked = index.population_masks([bits], metric_order=True)[0]
            ordered = order[index.positions_from_packed(ranked)]
            # The stable sort of the population's values in record order.
            expected = plain[np.argsort(dataset.metric[plain], kind="stable")]
            assert np.array_equal(ordered, expected)

    def test_metric_layout_is_built_once_per_snapshot(self, dataset):
        """The metric-ordered copy belongs to one index snapshot: built on
        first use, kept for that snapshot, rebuilt for an append's."""
        index = PredicateMaskIndex(dataset)
        snap = index.snapshot()
        layout = snap.metric_packed()
        assert snap.metric_packed() is layout and not layout.flags.writeable
        order = dataset.metric_order()
        for bit in range(index.t):
            bits = np.unpackbits(
                layout[bit].view(np.uint8), count=len(dataset), bitorder="little"
            )
            assert np.array_equal(bits.astype(bool), index.predicate_mask(bit)[order])
        row = {a.name: a.domain[0] for a in dataset.schema.attributes}
        row[dataset.schema.metric.name] = float(dataset.metric.min()) - 1.0
        grown = index.append([row])
        fresh = PredicateMaskIndex(grown)
        assert index.snapshot().metric_packed() is not layout
        assert np.array_equal(
            index.snapshot().metric_packed(), fresh.snapshot().metric_packed()
        )


class TestOrTables:
    def test_tables_are_built_once_per_snapshot_and_layout(self, dataset):
        index = PredicateMaskIndex(dataset)
        snap = index.snapshot()
        plain, ordered = snap.or_table(), snap.or_table(metric_order=True)
        assert snap.or_table() is plain and snap.or_table(True) is ordered
        # Blocks of 2 and 3 predicates: one group each, 4 + 8 rows.
        assert plain.rows.shape == ordered.rows.shape == (12, index.n_words)
        assert not plain.rows.flags.writeable

    def test_append_matches_a_fresh_index(self):
        """Tables built before an append belong to the old snapshot: after
        it, both layouts and the sizes equal a freshly built index's.  The
        6-predicate block spans two table groups, and the appended rows
        cross a word boundary."""
        dataset = salary_reduced(n_records=120, seed=4)
        index = PredicateMaskIndex(dataset)
        contexts = list(range(1 << dataset.schema.t))
        before = index.snapshot()
        for layout in (False, True):
            index.population_masks(contexts, metric_order=layout)
        rows = [row for _, row in salary_reduced(n_records=12, seed=5).iter_records()]
        grown = index.append(rows)
        fresh = PredicateMaskIndex(grown)
        assert index.snapshot().or_table() is not before.or_table()
        for layout in (False, True):
            got = index.population_masks(contexts, metric_order=layout)
            want = fresh.population_masks(contexts, metric_order=layout)
            assert got.shape == (len(contexts), 3)
            assert np.array_equal(got, want)
        assert np.array_equal(
            index.population_sizes(contexts), fresh.population_sizes(contexts)
        )
        assert index.population_sizes([dataset.schema.full_bits])[0] == 132


class TestContainsRecord:
    def test_agrees_with_population_membership(self, index, dataset, schema):
        space = ContextSpace(schema)
        gen = np.random.default_rng(5)
        for _ in range(50):
            ctx = space.random_context(gen)
            mask = index.population_mask(ctx.bits)
            for rid in (0, 10, 59):
                pos = dataset.position_of(rid)
                assert index.contains_record(ctx.bits, rid) == bool(mask[pos])


class TestCounters:
    def test_population_evaluations_counted(self, dataset):
        idx = PredicateMaskIndex(dataset)
        assert idx.population_evaluations == 0
        idx.population_mask(0b00101)
        idx.population_size(0b00101)
        assert idx.population_evaluations == 2
        idx.reset_counters()
        assert idx.population_evaluations == 0
