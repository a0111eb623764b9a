"""DatasetRegistry: lazy engines, independent budgets, durable wiring."""

import pytest

from repro.exceptions import ServerError
from repro.server.config import ServerConfig
from repro.server.ledger import InMemoryLedgerStore, JsonlLedgerStore
from repro.server.registry import DatasetRegistry


def config(tmp_path=None, **server) -> ServerConfig:
    body = {
        "server": {"port": 0, **server},
        "datasets": {
            "a": {"source": "salary_reduced", "records": 200, "seed": 1,
                  "budget": 1.0, "tenant_budget": 0.5},
            "b": {"source": "salary_reduced", "records": 200, "seed": 2,
                  "budget": 2.0},
        },
    }
    if tmp_path is not None:
        body["server"].update(
            {"ledger": "jsonl", "ledger_dir": str(tmp_path / "ledgers")}
        )
    return ServerConfig.from_dict(body)


class TestRegistry:
    def test_engines_are_lazy(self):
        with DatasetRegistry(config()) as registry:
            assert registry.names() == ["a", "b"]
            assert not registry.get("a").built
            engine = registry.get("a").engine
            assert registry.get("a").built
            assert registry.get("a").engine is engine  # memoised
            assert not registry.get("b").built  # untouched neighbour

    def test_unknown_dataset_raises_server_error(self):
        with DatasetRegistry(config()) as registry:
            with pytest.raises(ServerError, match="unknown dataset"):
                registry.get("nope")
            assert "a" in registry and "nope" not in registry

    def test_budgets_are_independent_and_shared_with_engine(self):
        with DatasetRegistry(config()) as registry:
            a, b = registry.get("a"), registry.get("b")
            a.tenants.admit("alice", "q", 0.5)
            assert a.tenants.totals()["spent"] == pytest.approx(0.5)
            assert b.tenants.totals()["spent"] == 0.0
            # The engine is unbudgeted: the entry's tenant ledger admits.
            assert a.engine.accountant is None

    def test_memory_ledger_by_default(self):
        with DatasetRegistry(config()) as registry:
            assert isinstance(registry.get("a").tenants.store, InMemoryLedgerStore)

    def test_jsonl_ledger_per_dataset(self, tmp_path):
        cfg = config(tmp_path)
        with DatasetRegistry(cfg) as registry:
            store = registry.get("a").tenants.store
            assert isinstance(store, JsonlLedgerStore)
            registry.get("a").tenants.admit("alice", "q", 0.25)
        ledger_dir = tmp_path / "ledgers"
        assert (ledger_dir / "a.ledger.jsonl").exists()
        assert (ledger_dir / "b.ledger.jsonl").exists()

        # A fresh registry on the same dir replays the spend.
        with DatasetRegistry(config(tmp_path)) as registry:
            assert registry.get("a").tenants.spent("alice") == pytest.approx(0.25)
            assert registry.get("a").tenants.totals()["spent"] == pytest.approx(0.25)
            assert registry.get("b").tenants.totals()["spent"] == 0.0

    def test_close_is_idempotent(self):
        registry = DatasetRegistry(config())
        registry.get("a").engine  # build one
        registry.close()
        registry.close()
