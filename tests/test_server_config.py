"""ServerConfig / DatasetConfig: validation, round-trips, file loading."""

import json

import pytest

from repro.cli import main
from repro.exceptions import SpecError
from repro.server.config import ClusterConfig, DatasetConfig, ServerConfig


def minimal() -> dict:
    return {
        "server": {"port": 0},
        "datasets": {
            "salary": {"source": "salary_reduced", "records": 300, "seed": 3}
        },
    }


class TestDatasetConfig:
    def test_generator_source_builds(self):
        cfg = DatasetConfig(name="d", source="salary_reduced", records=200, seed=1)
        dataset = cfg.build_dataset()
        assert len(dataset) == 200

    def test_unknown_source_rejected(self):
        with pytest.raises(SpecError, match="unknown source"):
            DatasetConfig(name="d", source="no_such_generator")

    def test_csv_source_needs_path_and_metric(self):
        with pytest.raises(SpecError, match="needs a 'path'"):
            DatasetConfig(name="d", source="csv")
        with pytest.raises(SpecError, match="metric"):
            DatasetConfig(name="d", source="csv", path="x.csv")

    def test_csv_source_round_trips_dataset(self, tmp_path, mini_dataset):
        from repro.data.csvio import write_csv

        path = tmp_path / "mini.csv"
        write_csv(mini_dataset, path)
        cfg = DatasetConfig(
            name="mini", source="csv", path=str(path), metric="Salary"
        )
        loaded = cfg.build_dataset()
        assert len(loaded) == len(mini_dataset)

    def test_bad_budgets_rejected(self):
        with pytest.raises(SpecError, match="budget"):
            DatasetConfig(name="d", budget=-1.0)
        with pytest.raises(SpecError, match="tenant_budget"):
            DatasetConfig(name="d", tenant_budget=0.0)
        with pytest.raises(SpecError, match="tenant 'x'"):
            DatasetConfig(name="d", tenant_budgets={"x": -0.5})

    def test_bad_name_rejected(self):
        with pytest.raises(SpecError, match="slash-free"):
            DatasetConfig(name="a/b")

    @pytest.mark.parametrize(
        "name", ["", "x?y", "a b", "a#b", "a%20b", "tab\there", "é", ".", ".."]
    )
    def test_name_must_be_one_unescaped_path_segment(self, name):
        """A name the HTTP API cannot address is refused at load: a ``?``
        or ``#`` splits the URL, a space cannot be sent, ``%`` would be
        decoded, and clients collapse the dot segments ``.``/``..``."""
        with pytest.raises(SpecError, match="dataset name"):
            DatasetConfig(name=name)
        with pytest.raises(SpecError, match="dataset name"):
            ServerConfig.from_dict({"datasets": {name: {"records": 10}}})

    @pytest.mark.parametrize("name", ["ds-0", "a.b_c~d", "Salary2024"])
    def test_unreserved_names_load(self, name):
        config = ServerConfig.from_dict({"datasets": {name: {"records": 10}}})
        assert list(config.datasets) == [name]

    def test_bad_profile_capacity_rejected(self):
        """A store bound below one entry would fail every admitted (and
        already charged) release, so it is refused at load."""
        for capacity in (0, -5, 2.5, "1000", True):
            with pytest.raises(SpecError, match="profile_capacity"):
                DatasetConfig(name="d", profile_capacity=capacity)
        assert DatasetConfig(name="d", profile_capacity=1).profile_capacity == 1
        # A whole float (JSON's ``1e6``) counts as an integer.
        assert DatasetConfig(name="d", profile_capacity=1e6).profile_capacity == 1_000_000
        with pytest.raises(SpecError, match="profile_capacity"):
            ServerConfig.from_dict(
                {"datasets": {"d": {"source": "salary_reduced", "profile_capacity": 0}}}
            )

    @pytest.mark.parametrize(
        "field", ["records", "seed", "max_batch", "workers", "profile_capacity"]
    )
    @pytest.mark.parametrize("value", ["four", "4", 2.5, True, None])
    def test_integer_fields_are_typed(self, field, value):
        """A non-integer is a typed SpecError at load, never a bare
        ValueError out of ``int()`` (a traceback from ``pcor serve``) nor a
        fraction stored as given."""
        if value is None:
            value = [4]
        with pytest.raises(SpecError, match=f"{field} must be an integer"):
            DatasetConfig(name="d", **{field: value})

    @pytest.mark.parametrize(
        "field", ["budget", "tenant_budget", "max_delay_ms"]
    )
    @pytest.mark.parametrize("value", ["five", "5", True, [5]])
    def test_number_fields_are_typed(self, field, value):
        with pytest.raises(SpecError, match=f"{field} must be a number"):
            DatasetConfig(name="d", **{field: value})
        with pytest.raises(SpecError, match="tenant 'a' budget must be a number"):
            DatasetConfig(name="d", tenant_budgets={"a": value})

    def test_whole_numbers_load_as_int(self):
        cfg = DatasetConfig(name="d", records=300.0, max_batch=4.0, workers=2.0, seed=7)
        assert (cfg.records, cfg.max_batch, cfg.workers, cfg.seed) == (300, 4, 2, 7)
        assert all(
            type(v) is int for v in (cfg.records, cfg.max_batch, cfg.workers, cfg.seed)
        )
        assert type(DatasetConfig(name="d", max_delay_ms=5).max_delay_ms) is float

    def test_non_numeric_max_batch_from_toml_is_spec_error(self, tmp_path):
        path = tmp_path / "server.toml"
        path.write_text(
            '[datasets.d]\nsource = "salary_reduced"\nmax_batch = "four"\n'
        )
        with pytest.raises(SpecError, match="max_batch must be an integer"):
            ServerConfig.from_file(path)

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "thread"):
            with pytest.raises(SpecError, match="unknown backend"):
                DatasetConfig(name="d", backend=name)


class TestClusterConfig:
    @pytest.mark.parametrize("value", ["two", 2.5, True])
    def test_workers_must_be_an_integer(self, value):
        with pytest.raises(SpecError, match="cluster workers must be an integer"):
            ClusterConfig(workers=value)

    def test_workers_stored_as_checked_integer(self):
        assert type(ClusterConfig(workers=2.0).workers) is int

    @pytest.mark.parametrize("field", ["heartbeat_interval_s", "heartbeat_timeout_s"])
    def test_heartbeats_must_be_numbers(self, field):
        with pytest.raises(SpecError, match=f"cluster {field} must be a number"):
            ClusterConfig(workers=1, **{field: "soon"})

    def test_from_dict_surfaces_the_error(self):
        body = minimal()
        body["cluster"] = {"workers": "2"}
        with pytest.raises(SpecError, match="cluster workers must be an integer"):
            ServerConfig.from_dict(body)


class TestServerConfig:
    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("server", "port", "x", "port must be an integer"),
            ("observability", "sample_rate", "all", "sample_rate must be a number"),
            ("observability", "slow_request_ms", "1s", "slow_request_ms must be a number"),
            ("observability", "events_buffer", 2.5, "events_buffer must be an integer"),
        ],
    )
    def test_numeric_fields_are_typed(self, section, field, value, message):
        body = minimal()
        body.setdefault(section, {})[field] = value
        with pytest.raises(SpecError, match=message):
            ServerConfig.from_dict(body)

    def test_from_dict_minimal(self):
        config = ServerConfig.from_dict(minimal())
        assert config.port == 0
        assert config.ledger == "memory"
        assert list(config.datasets) == ["salary"]
        assert config.datasets["salary"].name == "salary"

    def test_no_datasets_rejected(self):
        with pytest.raises(SpecError, match="no datasets"):
            ServerConfig.from_dict({"server": {}, "datasets": {}})

    def test_unknown_sections_and_fields_rejected(self):
        body = minimal()
        body["extra"] = {}
        with pytest.raises(SpecError, match="unknown server config section"):
            ServerConfig.from_dict(body)
        body = minimal()
        body["server"]["tls"] = True
        with pytest.raises(SpecError, match=r"unknown \[server\] field"):
            ServerConfig.from_dict(body)

    def test_unknown_dataset_field_is_one_error_line(self, tmp_path, capsys):
        body = minimal()
        body["datasets"]["salary"]["bogus"] = 1
        message = r"unknown \[datasets\.salary\] field\(s\) \['bogus'\]; known: \["
        with pytest.raises(SpecError, match=message):
            ServerConfig.from_dict(body)
        path = tmp_path / "server.json"
        path.write_text(json.dumps(body))
        assert main(["serve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown [datasets.salary] field(s) ['bogus']")
        assert "'source'" in err and "'name'" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("section", ["cluster", "observability"])
    def test_constructor_checks_section_fields(self, section):
        datasets = minimal()["datasets"]
        unknown = rf"unknown \[{section}\] field\(s\) \['bogus'\]"
        with pytest.raises(SpecError, match=unknown):
            ServerConfig(datasets=datasets, **{section: {"bogus": 1}})
        not_mapping = f"'{section}' must be a mapping of {section} options, got int"
        with pytest.raises(SpecError, match=not_mapping):
            ServerConfig(datasets=datasets, **{section: 3})

    def test_constructor_checks_dataset_fields(self):
        unknown = r"unknown \[datasets\.s\] field\(s\) \['bogus'\]"
        with pytest.raises(SpecError, match=unknown):
            ServerConfig(datasets={"s": {"source": "salary_reduced", "bogus": 1}})
        with pytest.raises(SpecError, match="dataset 's' config must be a mapping"):
            ServerConfig(datasets={"s": 3})
        named = ServerConfig(datasets={"s": {"name": "other", "records": 300}})
        assert named.datasets["s"].name == "s"

    def test_jsonl_ledger_needs_dir(self):
        body = minimal()
        body["server"]["ledger"] = "jsonl"
        with pytest.raises(SpecError, match="ledger_dir"):
            ServerConfig.from_dict(body)
        body["server"]["ledger_dir"] = "ledgers"
        assert ServerConfig.from_dict(body).ledger == "jsonl"

    def test_unknown_ledger_kind_rejected(self):
        body = minimal()
        body["server"]["ledger"] = "sqlite"
        with pytest.raises(SpecError, match="unknown ledger kind"):
            ServerConfig.from_dict(body)

    def test_round_trip_through_dict(self):
        body = minimal()
        body["server"].update({"ledger": "jsonl", "ledger_dir": "led"})
        body["datasets"]["salary"].update(
            {"budget": 2.0, "tenant_budget": 0.5, "tenant_budgets": {"a": 1.0}}
        )
        config = ServerConfig.from_dict(body)
        again = ServerConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps(minimal()))
        assert list(ServerConfig.from_file(path).datasets) == ["salary"]

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "server.toml"
        path.write_text(
            "\n".join(
                [
                    "[server]",
                    "port = 0",
                    'ledger = "jsonl"',
                    f'ledger_dir = "{tmp_path / "ledgers"}"',
                    "",
                    "[datasets.salary]",
                    'source = "salary_reduced"',
                    "records = 300",
                    "budget = 1.0",
                    "tenant_budget = 0.3",
                    "",
                    "[datasets.salary.tenant_budgets]",
                    "alice = 0.6",
                ]
            )
        )
        config = ServerConfig.from_file(path)
        assert config.ledger == "jsonl"
        cfg = config.datasets["salary"]
        assert cfg.budget == 1.0
        assert cfg.tenant_budgets == {"alice": 0.6}
