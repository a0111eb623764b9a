"""The PCOR server: a multi-tenant HTTP release service.

The deployment story the paper tells (Sections 1, 6.3) — a data owner
operating PCOR as a service for analysts issuing repeated budgeted
queries — made concrete, stdlib-only:

* :mod:`repro.server.ledger` — durable, crash-replayable privacy ledgers
  (:class:`LedgerStore`, :class:`InMemoryLedgerStore`,
  :class:`JsonlLedgerStore`), the server's only per-charge record.
* :mod:`repro.server.tenants` — :class:`TenantBudgets`, per-analyst quotas
  and the dataset-global budget, admitted atomically as running totals
  over the ledger.
* :mod:`repro.server.registry` — :class:`DatasetRegistry`, names to
  lazily-built :class:`~repro.service.engine.ReleaseEngine`\\ s.
* :mod:`repro.server.config` — :class:`ServerConfig` /
  :class:`DatasetConfig`, the ``pcor serve --config`` schema.
* :mod:`repro.server.app` — :class:`PCORServer`, the
  ``ThreadingHTTPServer`` JSON API.
* :mod:`repro.server.batching` — :class:`ReleaseCoalescer`, the
  coalescing admission front end (``max_batch``/``max_delay_ms`` per
  dataset) that batches concurrent releases through one group-commit
  admission and one ``execute_many`` call.
* :mod:`repro.server.client` — :class:`PCORClient`, the urllib analyst
  handle (``release_many`` fans out over pooled connections).

>>> from repro.server import PCORClient, PCORServer, ServerConfig
>>> config = ServerConfig.from_dict({
...     "server": {"port": 0},
...     "datasets": {"salary": {"source": "salary_reduced", "records": 500,
...                             "budget": 2.0, "tenant_budget": 0.5}},
... })
>>> with PCORServer(config) as server:  # doctest: +SKIP
...     client = PCORClient(server.url, tenant="alice")
...     client.release("salary", record_id=17,
...                    spec={"detector": "lof", "epsilon": 0.2}, seed=42)
"""

from repro.server.app import PCORServer, TENANT_HEADER
from repro.server.batching import CoalescerClosed, ReleaseCoalescer
from repro.server.client import PCORClient
from repro.server.config import (
    ClusterConfig,
    DatasetConfig,
    ObservabilityConfig,
    ServerConfig,
)
from repro.server.ledger import (
    InMemoryLedgerStore,
    JsonlLedgerStore,
    LedgerStore,
)
from repro.server.registry import DatasetEntry, DatasetRegistry
from repro.server.tenants import TenantBudgets

__all__ = [
    "PCORServer",
    "PCORClient",
    "ServerConfig",
    "ClusterConfig",
    "DatasetConfig",
    "ObservabilityConfig",
    "DatasetRegistry",
    "DatasetEntry",
    "TenantBudgets",
    "ReleaseCoalescer",
    "CoalescerClosed",
    "LedgerStore",
    "InMemoryLedgerStore",
    "JsonlLedgerStore",
    "TENANT_HEADER",
]
