"""The dataset registry: names → lazily-built release engines.

One PCOR server hosts many datasets, each with its own
:class:`~repro.service.engine.ReleaseEngine` (mask index, profile caches,
execution backend) and its own :class:`~repro.server.tenants.TenantBudgets`
— the dataset budget and the tenant quotas — over a durable
:class:`~repro.server.ledger.LedgerStore`.  The engine is built
unbudgeted: the server admits every release through the entry's
``TenantBudgets`` and then only asks the engine to ``execute`` it.
Engines are built on first use — a server hosting twenty datasets starts
instantly and only pays the bit-pack/detector costs of the datasets
analysts actually query — but the *ledger* of a durable entry is replayed
eagerly at registration, because budget truth must exist before any
request is admitted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.exceptions import ServerError
from repro.server.config import DatasetConfig, ServerConfig
from repro.server.ledger import InMemoryLedgerStore, JsonlLedgerStore, LedgerStore
from repro.server.tenants import TenantBudgets
from repro.service.engine import ReleaseEngine


@dataclass
class DatasetEntry:
    """One hosted dataset: its config, budgets, and (lazy) engine."""

    config: DatasetConfig
    tenants: TenantBudgets
    _engine: Optional[ReleaseEngine] = None
    _lock: threading.RLock = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self._lock = threading.RLock()

    @property
    def built(self) -> bool:
        return self._engine is not None

    @property
    def dataset_version(self) -> int:
        """The served dataset's version, without building the engine (an
        engine that does not exist yet has committed no append)."""
        engine = self._engine
        return engine.dataset_version if engine is not None else 0

    @property
    def engine(self) -> ReleaseEngine:
        """The entry's release engine, constructed on first access."""
        with self._lock:
            if self._engine is None:
                cfg = self.config
                kwargs = {}
                if cfg.profile_capacity is not None:
                    kwargs["profile_capacity"] = cfg.profile_capacity
                self._engine = ReleaseEngine(
                    cfg.build_dataset(),
                    backend=cfg.backend,
                    workers=cfg.workers,
                    **kwargs,
                )
            return self._engine

    def close(self) -> None:
        with self._lock:
            if self._engine is not None:
                self._engine.close()
        self.tenants.close()


class DatasetRegistry:
    """Name → :class:`DatasetEntry` mapping behind the HTTP app.

    Parameters
    ----------
    config:
        The :class:`ServerConfig` naming every hosted dataset and the
        ledger policy.  ``ledger = "jsonl"`` gives each dataset an
        append-only WAL at ``{ledger_dir}/{name}.ledger.jsonl``, replayed
        at registration so restarted budgets resume exhausted.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self._entries: Dict[str, DatasetEntry] = {}
        for name, cfg in config.datasets.items():
            self._entries[name] = DatasetEntry(
                config=cfg,
                tenants=TenantBudgets(
                    cfg.budget,
                    default_budget=cfg.tenant_budget,
                    budgets=cfg.tenant_budgets,
                    store=self._make_store(name),
                    dataset=name,
                ),
            )

    def _make_store(self, name: str) -> LedgerStore:
        if self.config.ledger == "jsonl":
            path = Path(self.config.ledger_dir) / f"{name}.ledger.jsonl"
            return JsonlLedgerStore(path, fsync=self.config.fsync)
        return InMemoryLedgerStore()

    def names(self) -> List[str]:
        return sorted(self._entries)

    def get(self, name: str) -> DatasetEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise ServerError(
                f"unknown dataset {name!r}; hosted: {self.names()}"
            )
        return entry

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def close(self) -> None:
        """Close every engine and ledger store (idempotent)."""
        for entry in self._entries.values():
            entry.close()

    def __enter__(self) -> "DatasetRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DatasetRegistry(datasets={self.names()}, ledger={self.config.ledger!r})"
