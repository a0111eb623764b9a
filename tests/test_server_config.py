"""ServerConfig / DatasetConfig: validation, round-trips, file loading."""

import json

import pytest

from repro.exceptions import SpecError
from repro.server.config import DatasetConfig, ServerConfig


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

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "thread"):
            with pytest.raises(SpecError, match="unknown backend"):
                DatasetConfig(name="d", backend=name)


class TestServerConfig:
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
