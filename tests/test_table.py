"""Unit tests for the column-store Dataset."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.exceptions import DatasetError
from repro.schema import CategoricalAttribute, MetricAttribute, Schema


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema(
        attributes=[
            CategoricalAttribute("Color", ["red", "green", "blue"]),
            CategoricalAttribute("Size", ["S", "M", "L"]),
        ],
        metric=MetricAttribute("Weight"),
    )


@pytest.fixture()
def dataset(schema) -> Dataset:
    return Dataset(
        schema,
        columns={
            "Color": ["red", "green", "blue", "red"],
            "Size": ["S", "M", "L", "M"],
        },
        metric_values=[1.0, 2.0, 3.0, 4.0],
    )


class TestConstruction:
    def test_len(self, dataset):
        assert len(dataset) == 4
        assert dataset.n_records == 4

    def test_default_ids(self, dataset):
        assert list(dataset.ids) == [0, 1, 2, 3]

    def test_explicit_ids(self, schema):
        ds = Dataset(
            schema,
            columns={"Color": ["red"], "Size": ["S"]},
            metric_values=[1.0],
            ids=[42],
        )
        assert list(ds.ids) == [42]
        assert ds.position_of(42) == 0

    def test_from_records(self, schema):
        ds = Dataset.from_records(
            schema,
            [
                {"Color": "red", "Size": "S", "Weight": 1.5},
                {"Color": "blue", "Size": "L", "Weight": 2.5},
            ],
        )
        assert len(ds) == 2
        assert ds.record(1)["Color"] == "blue"

    def test_missing_column_rejected(self, schema):
        with pytest.raises(DatasetError, match="missing column"):
            Dataset(schema, columns={"Color": ["red"]}, metric_values=[1.0])

    def test_length_mismatch_rejected(self, schema):
        with pytest.raises(DatasetError, match="rows"):
            Dataset(
                schema,
                columns={"Color": ["red", "green"], "Size": ["S"]},
                metric_values=[1.0, 2.0],
            )

    def test_unknown_value_rejected(self, schema):
        with pytest.raises(DatasetError, match="not in domain"):
            Dataset(
                schema,
                columns={"Color": ["purple"], "Size": ["S"]},
                metric_values=[1.0],
            )

    def test_non_finite_metric_rejected(self, schema):
        with pytest.raises(DatasetError, match="non-finite"):
            Dataset(
                schema,
                columns={"Color": ["red"], "Size": ["S"]},
                metric_values=[float("nan")],
            )

    def test_duplicate_ids_rejected(self, schema):
        with pytest.raises(DatasetError, match="unique"):
            Dataset(
                schema,
                columns={"Color": ["red", "red"], "Size": ["S", "S"]},
                metric_values=[1.0, 2.0],
                ids=[1, 1],
            )

    def test_missing_metric_in_record(self, schema):
        with pytest.raises(DatasetError, match="missing metric"):
            Dataset.from_records(schema, [{"Color": "red", "Size": "S"}])


class TestAccess:
    def test_metric_view_read_only(self, dataset):
        with pytest.raises(ValueError):
            dataset.metric[0] = 99.0

    def test_codes(self, dataset):
        assert list(dataset.codes("Color")) == [0, 1, 2, 0]

    def test_codes_unknown_column(self, dataset):
        with pytest.raises(DatasetError):
            dataset.codes("Nope")

    def test_record_materialisation(self, dataset):
        rec = dataset.record(2)
        assert rec == {"Color": "blue", "Size": "L", "Weight": 3.0}

    def test_record_unknown_id(self, dataset):
        with pytest.raises(DatasetError, match="no record"):
            dataset.record(99)

    def test_has_record(self, dataset):
        assert dataset.has_record(0)
        assert not dataset.has_record(99)

    def test_iter_records(self, dataset):
        rows = list(dataset.iter_records())
        assert len(rows) == 4
        assert rows[0][0] == 0
        assert rows[0][1]["Color"] == "red"


class TestRecordBits:
    def test_record_bits_match_schema(self, dataset, schema):
        bits = dataset.record_bits(3)
        assert bits == schema.record_bits({"Color": "red", "Size": "M"})

    def test_all_record_bits_have_weight_m(self, dataset, schema):
        for bits in dataset.all_record_bits():
            assert int(bits).bit_count() == schema.m


class TestMetricOrder:
    def test_stable_cached_and_read_only(self, schema):
        ds = Dataset(
            schema,
            columns={"Color": ["red", "blue", "red", "blue"], "Size": ["S"] * 4},
            metric_values=[2.0, 1.0, 2.0, -1.0],
        )
        order = ds.metric_order()
        assert order.tolist() == [3, 1, 0, 2]  # equal values keep row order
        assert ds.metric_order() is order
        with pytest.raises(ValueError):
            order[0] = 1

    def test_append_leaves_it_unset(self, dataset):
        dataset.metric_order()
        grown = dataset.append([{"Color": "green", "Size": "S", "Weight": 0.0}])
        assert grown._metric_order is None
        expected = np.argsort(grown.metric, kind="stable")
        assert grown.metric_order().tolist() == expected.tolist()


class TestImmutability:
    def test_without_records_drops_and_preserves_ids(self, dataset):
        smaller = dataset.without_records([1])
        assert len(smaller) == 3
        assert list(smaller.ids) == [0, 2, 3]
        assert smaller.record(2)["Color"] == "blue"
        # Original untouched.
        assert len(dataset) == 4

    def test_without_positions_out_of_range(self, dataset):
        with pytest.raises(DatasetError, match="out of range"):
            dataset.without_positions([10])

    def test_with_records_appends_fresh_ids(self, dataset):
        bigger = dataset.with_records(
            [{"Color": "green", "Size": "S", "Weight": 9.0}]
        )
        assert len(bigger) == 5
        assert list(bigger.ids) == [0, 1, 2, 3, 4]
        assert bigger.record(4)["Weight"] == 9.0

    def test_with_records_empty_noop(self, dataset):
        assert dataset.with_records([]) is dataset

    def test_add_after_remove_does_not_reuse_ids(self, dataset):
        ds = dataset.without_records([3]).with_records(
            [{"Color": "red", "Size": "S", "Weight": 5.0}]
        )
        # Record 3 was removed; the new record must NOT resurrect id 3.
        assert sorted(int(i) for i in ds.ids) == [0, 1, 2, 4]


class TestFromCodes:
    def test_matches_string_constructor(self, schema, dataset):
        rebuilt = Dataset.from_codes(
            schema,
            {"Color": dataset.codes("Color"), "Size": dataset.codes("Size")},
            dataset.metric,
            ids=dataset.ids,
        )
        assert [r for _, r in rebuilt.iter_records()] == [
            r for _, r in dataset.iter_records()
        ]

    def test_does_not_alias_caller_arrays(self, schema):
        codes = {
            "Color": np.array([0, 1, 2], dtype=np.int16),
            "Size": np.array([0, 0, 0], dtype=np.int16),
        }
        ds = Dataset.from_codes(schema, codes, [1.0, 2.0, 3.0])
        codes["Color"][0] = 2  # caller mutates after construction
        assert ds.record(0)["Color"] == "red"

    def test_rejects_out_of_domain_codes(self, schema):
        with pytest.raises(DatasetError, match="outside domain"):
            Dataset.from_codes(
                schema,
                {
                    "Color": np.array([0, 5], dtype=np.int16),
                    "Size": np.array([0, 0], dtype=np.int16),
                },
                [1.0, 2.0],
            )

    def test_rejects_missing_column(self, schema):
        with pytest.raises(DatasetError, match="missing column"):
            Dataset.from_codes(
                schema, {"Color": np.array([0], dtype=np.int16)}, [1.0]
            )

    def test_does_not_alias_metric_or_ids(self, schema):
        metric = np.array([1.0, 2.0, 3.0])
        ids = np.array([7, 8, 9], dtype=np.int64)
        ds = Dataset.from_codes(
            schema,
            {
                "Color": np.array([0, 1, 2], dtype=np.int16),
                "Size": np.array([0, 0, 0], dtype=np.int16),
            },
            metric,
            ids=ids,
        )
        metric[0] = 999.0
        ids[0] = 999
        assert ds.metric[0] == 1.0
        assert int(ds.ids[0]) == 7

    def test_rejects_wrapping_codes(self, schema):
        """Codes that would wrap through the int16 cast must fail loudly."""
        with pytest.raises(DatasetError, match="outside domain"):
            Dataset.from_codes(
                schema,
                {
                    "Color": np.array([65536, 1], dtype=np.int32),  # wraps to 0
                    "Size": np.array([0, 0], dtype=np.int16),
                },
                [1.0, 2.0],
            )

    def test_rejects_float_codes(self, schema):
        with pytest.raises(DatasetError, match="integer array"):
            Dataset.from_codes(
                schema,
                {
                    "Color": np.array([0.9, 1.0]),
                    "Size": np.array([0, 0], dtype=np.int16),
                },
                [1.0, 2.0],
            )
