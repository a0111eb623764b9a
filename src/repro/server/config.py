"""Declarative server configuration (``pcor serve --config server.toml``).

A :class:`ServerConfig` names everything one PCOR server hosts: the bind
address, the ledger policy, and one :class:`DatasetConfig` per dataset —
its source (a built-in generator or a CSV file), its dataset-global budget,
and its per-tenant quota policy.  Like :class:`~repro.service.spec.PipelineSpec`
it validates eagerly, round-trips through ``to_dict``/``from_dict``, and
loads from JSON or TOML via the shared
:func:`~repro.service.spec.load_mapping_file` helper:

.. code-block:: toml

    [server]
    host = "127.0.0.1"
    port = 8320
    ledger = "jsonl"          # or "memory"
    ledger_dir = "ledgers"    # one JSONL WAL per dataset

    [datasets.salary]
    source = "salary_reduced" # any built-in generator, or "csv"
    records = 2000
    seed = 7
    budget = 5.0              # dataset-global OCDP budget
    tenant_budget = 1.0       # default per-analyst quota
    [datasets.salary.tenant_budgets]
    alice = 2.0               # per-analyst overrides
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.data.csvio import read_csv
from repro.data.table import Dataset
from repro.exceptions import SpecError
from repro.service.spec import load_mapping_file

#: Ledger store kinds a config may name.
LEDGER_KINDS = ("jsonl", "memory")

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8320


def _dataset_factories() -> Dict[str, Any]:
    # Local import: the experiments package is heavy and the harness module
    # imports half the library; only pay for it when a generator is named.
    from repro.experiments.harness import DATASET_FACTORIES

    return DATASET_FACTORIES


def _integer(value: Any, what: str) -> int:
    """``value`` as an ``int``: an integer, or a whole float such as JSON's
    ``1e6``.  Bools, strings and fractions raise :class:`SpecError`."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value: Any, what: str) -> float:
    """``value`` as a ``float``; bools and strings raise :class:`SpecError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DatasetConfig:
    """One hosted dataset: source, size, budgets, execution knobs.

    Parameters
    ----------
    name:
        Registry key — the ``{name}`` in ``/v1/datasets/{name}/release``.
    source:
        A built-in generator name (``salary_reduced``, ``homicide_reduced``,
        ``salary_full``, ``homicide_full``) or ``"csv"`` (then ``path`` and
        ``metric`` describe the file, loaded via
        :func:`repro.data.csvio.read_csv`).
    records / seed:
        Generator parameters (ignored for CSV sources).
    path / metric:
        CSV file location and numeric-metric column (CSV sources only).
    budget:
        Dataset-global OCDP budget (``None`` = unbudgeted — tenant quotas,
        if any, still apply).
    tenant_budget / tenant_budgets:
        Default per-analyst quota and per-analyst overrides.
    profile_capacity / backend / workers:
        Passed through to the dataset's :class:`ReleaseEngine` (``None``
        keeps the engine defaults).
    max_batch / max_delay_ms:
        Request-coalescing knobs.  ``max_batch > 1`` puts a
        :class:`~repro.server.batching.ReleaseCoalescer` between the HTTP
        handlers and this dataset's engine: concurrent releases queue, a
        flusher collects up to ``max_batch`` of them (lingering at most
        ``max_delay_ms`` after the first arrives), admits them as one
        batch and executes them through one ``execute_many`` call.
        ``max_batch = 1`` (the default) disables coalescing — every
        request takes the direct admit-then-execute path, exactly the
        pre-batching server behavior.  The linger only ever *adds* up to
        ``max_delay_ms`` to an isolated request's latency; under load the
        queue refills before the flusher returns and the linger never
        triggers.
    """

    name: str
    source: str = "salary_reduced"
    records: int = 2000
    seed: int = 0
    path: Optional[str] = None
    metric: Optional[str] = None
    budget: Optional[float] = None
    tenant_budget: Optional[float] = None
    tenant_budgets: Mapping[str, float] = field(default_factory=dict)
    profile_capacity: Optional[int] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    max_batch: int = 1
    max_delay_ms: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "source", str(self.source))
        if not self.name or "/" in self.name:
            raise SpecError(f"dataset name {self.name!r} must be non-empty and slash-free")
        where = f"dataset {self.name!r}:"
        for key in ("records", "seed", "max_batch"):
            object.__setattr__(self, key, _integer(getattr(self, key), f"{where} {key}"))
        for key in ("workers", "profile_capacity"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _integer(getattr(self, key), f"{where} {key}"))
        object.__setattr__(
            self, "max_delay_ms", _number(self.max_delay_ms, f"{where} max_delay_ms")
        )
        object.__setattr__(
            self,
            "tenant_budgets",
            {
                str(k): _number(v, f"{where} tenant {str(k)!r} budget")
                for k, v in dict(self.tenant_budgets).items()
            },
        )
        if self.source == "csv":
            if not self.path:
                raise SpecError(f"dataset {self.name!r}: csv source needs a 'path'")
            if not self.metric:
                raise SpecError(
                    f"dataset {self.name!r}: csv source needs a 'metric' column name"
                )
        elif self.source not in _dataset_factories():
            raise SpecError(
                f"dataset {self.name!r}: unknown source {self.source!r}; "
                f"use 'csv' or one of {sorted(_dataset_factories())}"
            )
        elif self.records < 1:
            raise SpecError(f"dataset {self.name!r}: records must be >= 1")
        for label, value in (
            ("budget", self.budget),
            ("tenant_budget", self.tenant_budget),
        ):
            if value is not None:
                value = _number(value, f"{where} {label}")
                object.__setattr__(self, label, value)
                if not (value > 0.0 and math.isfinite(value)):
                    raise SpecError(
                        f"dataset {self.name!r}: {label} must be positive and "
                        f"finite, got {value}"
                    )
        for tenant, quota in self.tenant_budgets.items():
            if not (quota > 0.0 and math.isfinite(quota)):
                raise SpecError(
                    f"dataset {self.name!r}: tenant {tenant!r} budget must be "
                    f"positive and finite, got {quota}"
                )
        if self.backend is not None:
            from repro.runtime import available_backends

            key = str(self.backend).lower()
            if key not in available_backends():
                raise SpecError(
                    f"dataset {self.name!r}: unknown backend {self.backend!r}; "
                    f"available: {available_backends()}"
                )
            object.__setattr__(self, "backend", key)
        if self.workers is not None and self.workers < 1:
            raise SpecError(f"dataset {self.name!r}: workers must be >= 1")
        if self.profile_capacity is not None and self.profile_capacity < 1:
            raise SpecError(
                f"dataset {self.name!r}: profile_capacity must be >= 1, "
                f"got {self.profile_capacity}"
            )
        if self.max_batch < 1:
            raise SpecError(
                f"dataset {self.name!r}: max_batch must be >= 1 "
                f"(1 disables coalescing), got {self.max_batch}"
            )
        if not (0.0 <= self.max_delay_ms <= 10_000.0):
            raise SpecError(
                f"dataset {self.name!r}: max_delay_ms must be in [0, 10000], "
                f"got {self.max_delay_ms}"
            )

    def build_dataset(self) -> Dataset:
        """Materialise the dataset this config describes."""
        if self.source == "csv":
            return read_csv(self.path, metric=self.metric)
        factory = _dataset_factories()[self.source]
        return factory(n_records=self.records, seed=self.seed)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"source": self.source}
        if self.source == "csv":
            out["path"] = self.path
            out["metric"] = self.metric
        else:
            out["records"] = self.records
            out["seed"] = self.seed
        for key in ("budget", "tenant_budget", "profile_capacity", "backend", "workers"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.max_batch != 1:
            out["max_batch"] = self.max_batch
        if self.max_delay_ms != 2.0:
            out["max_delay_ms"] = self.max_delay_ms
        if self.tenant_budgets:
            out["tenant_budgets"] = dict(self.tenant_budgets)
        return out


#: Worker-manager kinds a cluster config may name (``process`` spawns real
#: subprocesses; ``thread`` hosts workers in-process — tests and dev).
MANAGER_KINDS = ("process", "thread")


@dataclass(frozen=True)
class ClusterConfig:
    """The ``[cluster]`` section: sharded serving behind a router.

    With ``workers >= 1``, ``pcor serve`` starts a
    :class:`~repro.cluster.router.PCORRouter` plus ``workers``
    release-worker processes instead of a single :class:`PCORServer`.
    Datasets are partitioned over workers by consistent hashing of the
    dataset name, so each dataset's budget ledger has exactly one writer.

    Parameters
    ----------
    workers:
        Release-worker count.  ``0`` (the default when the section is
        absent) keeps single-process serving.
    heartbeat_interval_s:
        How often each worker reports to the router.
    heartbeat_timeout_s:
        Heartbeat silence after which the router declares a worker dead
        (must exceed the interval — a single delayed beat is not a death).
    respawn:
        Whether the router's supervisor restarts dead workers.  A
        respawned worker replays its datasets' ledgers before accepting
        traffic, so budget truth survives the crash (with a durable
        ledger; an in-memory ledger forgets spend with its process).
    manager:
        Where workers run: ``"process"`` (local subprocesses via
        ``LocalProcessManager``) or ``"thread"`` (in-process, for tests).
        The :class:`~repro.cluster.manager.WorkerManager` protocol leaves
        room for remote managers later.
    """

    workers: int = 0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 5.0
    respawn: bool = True
    manager: str = "process"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", _integer(self.workers, "cluster workers"))
        for key in ("heartbeat_interval_s", "heartbeat_timeout_s"):
            object.__setattr__(self, key, _number(getattr(self, key), f"cluster {key}"))
        object.__setattr__(self, "respawn", bool(self.respawn))
        object.__setattr__(self, "manager", str(self.manager).lower())
        if self.workers < 0:
            raise SpecError(f"cluster workers must be >= 0, got {self.workers}")
        if not (self.heartbeat_interval_s > 0.0):
            raise SpecError(
                "cluster heartbeat_interval_s must be > 0, "
                f"got {self.heartbeat_interval_s}"
            )
        if not (self.heartbeat_timeout_s > self.heartbeat_interval_s):
            raise SpecError(
                "cluster heartbeat_timeout_s must exceed heartbeat_interval_s "
                f"({self.heartbeat_interval_s}), got {self.heartbeat_timeout_s}"
            )
        if self.manager not in MANAGER_KINDS:
            raise SpecError(
                f"unknown cluster manager {self.manager!r}; "
                f"use one of {MANAGER_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"workers": self.workers}
        if self.heartbeat_interval_s != 1.0:
            out["heartbeat_interval_s"] = self.heartbeat_interval_s
        if self.heartbeat_timeout_s != 5.0:
            out["heartbeat_timeout_s"] = self.heartbeat_timeout_s
        if not self.respawn:
            out["respawn"] = False
        if self.manager != "process":
            out["manager"] = self.manager
        return out


#: Structured-log output formats the config may name.
LOG_FORMATS = ("text", "json")


@dataclass(frozen=True)
class ObservabilityConfig:
    """The ``[observability]`` section: tracing, logging, slow-request dumps.

    Parameters
    ----------
    enabled:
        Master switch for trace contexts.  ``False`` removes every
        per-request tracing branch from the hot path (the metrics
        registry and ``/v1/metrics`` stay on — they are load-bearing).
    sample_rate:
        Fraction of traces that record spans, decided deterministically
        from the trace id so router and workers always agree.  Unsampled
        requests keep a trace id for log correlation but skip all span
        timing.  ``1.0`` traces everything (the default — the overhead
        benchmark gates it at <3% p50).
    slow_request_ms:
        Releases slower than this dump their full span timeline to the
        log at WARNING as a ``slow_request`` event.
    log_format:
        ``"text"`` (terse ``key=value`` lines) or ``"json"`` (one
        parseable object per line); ``pcor serve --log-format``
        overrides it.
    events_buffer:
        Capacity of the in-memory ring of recent structured events
        behind ``GET /v1/debug/events``.  ``0`` disables the ring (the
        endpoint then 404s); the default keeps the last 512 events.
    """

    enabled: bool = True
    sample_rate: float = 1.0
    slow_request_ms: float = 1000.0
    log_format: str = "text"
    events_buffer: int = 512

    def __post_init__(self) -> None:
        object.__setattr__(self, "enabled", bool(self.enabled))
        for key in ("sample_rate", "slow_request_ms"):
            object.__setattr__(self, key, _number(getattr(self, key), f"observability {key}"))
        object.__setattr__(self, "log_format", str(self.log_format).lower())
        object.__setattr__(
            self, "events_buffer", _integer(self.events_buffer, "observability events_buffer")
        )
        if not (0.0 <= self.sample_rate <= 1.0):
            raise SpecError(
                f"observability sample_rate must be in [0, 1], "
                f"got {self.sample_rate}"
            )
        if not (self.slow_request_ms >= 0.0 and math.isfinite(self.slow_request_ms)):
            raise SpecError(
                "observability slow_request_ms must be finite and >= 0, "
                f"got {self.slow_request_ms}"
            )
        if self.log_format not in LOG_FORMATS:
            raise SpecError(
                f"unknown log_format {self.log_format!r}; "
                f"use one of {LOG_FORMATS}"
            )
        if self.events_buffer < 0:
            raise SpecError(
                "observability events_buffer must be >= 0 (0 disables the "
                f"event ring), got {self.events_buffer}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if not self.enabled:
            out["enabled"] = False
        if self.sample_rate != 1.0:
            out["sample_rate"] = self.sample_rate
        if self.slow_request_ms != 1000.0:
            out["slow_request_ms"] = self.slow_request_ms
        if self.log_format != "text":
            out["log_format"] = self.log_format
        if self.events_buffer != 512:
            out["events_buffer"] = self.events_buffer
        return out


@dataclass(frozen=True)
class ServerConfig:
    """Everything one ``pcor serve`` process hosts.

    Programmatic construction permits an empty ``datasets`` mapping — a
    cluster worker whose shard happens to hold no datasets still needs a
    servable (if idle) config.  :meth:`from_dict` (and hence every config
    file) still rejects it: a top-level server hosting nothing is a typo.
    """

    datasets: Mapping[str, DatasetConfig] = field(default_factory=dict)
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    ledger: str = "memory"
    ledger_dir: Optional[str] = None
    fsync: bool = True
    cluster: Optional[ClusterConfig] = None
    observability: Optional[ObservabilityConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "host", str(self.host))
        object.__setattr__(self, "port", _integer(self.port, "port"))
        object.__setattr__(self, "ledger", str(self.ledger).lower())
        object.__setattr__(self, "fsync", bool(self.fsync))
        coerced: Dict[str, DatasetConfig] = {}
        for name, cfg in dict(self.datasets).items():
            if isinstance(cfg, DatasetConfig):
                coerced[str(name)] = cfg
            elif isinstance(cfg, Mapping):
                body = dict(cfg)
                body.pop("name", None)
                coerced[str(name)] = DatasetConfig(name=str(name), **body)
            else:
                raise SpecError(
                    f"dataset {name!r} config must be a mapping, "
                    f"got {type(cfg).__name__}"
                )
        object.__setattr__(self, "datasets", coerced)
        if not (0 <= self.port <= 65535):
            raise SpecError(f"port must be in [0, 65535], got {self.port}")
        if self.ledger not in LEDGER_KINDS:
            raise SpecError(
                f"unknown ledger kind {self.ledger!r}; use one of {LEDGER_KINDS}"
            )
        if self.ledger == "jsonl" and not self.ledger_dir:
            raise SpecError("ledger = 'jsonl' needs a 'ledger_dir'")
        if self.cluster is not None and not isinstance(self.cluster, ClusterConfig):
            if not isinstance(self.cluster, Mapping):
                raise SpecError(
                    "'cluster' must be a mapping of cluster options, "
                    f"got {type(self.cluster).__name__}"
                )
            object.__setattr__(self, "cluster", ClusterConfig(**self.cluster))
        if self.observability is not None and not isinstance(
            self.observability, ObservabilityConfig
        ):
            if not isinstance(self.observability, Mapping):
                raise SpecError(
                    "'observability' must be a mapping of observability "
                    f"options, got {type(self.observability).__name__}"
                )
            object.__setattr__(
                self, "observability", ObservabilityConfig(**self.observability)
            )

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "server": {
                "host": self.host,
                "port": self.port,
                "ledger": self.ledger,
                "fsync": self.fsync,
            },
            "datasets": {
                name: cfg.to_dict() for name, cfg in self.datasets.items()
            },
        }
        if self.ledger_dir is not None:
            out["server"]["ledger_dir"] = self.ledger_dir
        if self.cluster is not None:
            out["cluster"] = self.cluster.to_dict()
        if self.observability is not None:
            out["observability"] = self.observability.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServerConfig":
        if not isinstance(data, Mapping):
            raise SpecError(
                f"server config must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"server", "datasets", "cluster", "observability"})
        if unknown:
            raise SpecError(
                f"unknown server config section(s) {unknown}; "
                "known: ['cluster', 'datasets', 'observability', 'server']"
            )
        server = dict(data.get("server", {}))
        known = {f.name for f in fields(cls)} - {"datasets", "cluster", "observability"}
        bad = sorted(set(server) - known)
        if bad:
            raise SpecError(
                f"unknown [server] field(s) {bad}; known: {sorted(known)}"
            )
        datasets = data.get("datasets", {})
        if not isinstance(datasets, Mapping):
            raise SpecError("'datasets' must map names to dataset configs")
        if not datasets:
            raise SpecError("server config hosts no datasets")
        cluster = data.get("cluster")
        if cluster is not None:
            if not isinstance(cluster, Mapping):
                raise SpecError(
                    "'cluster' must be a mapping of cluster options, "
                    f"got {type(cluster).__name__}"
                )
            bad = sorted(set(cluster) - {f.name for f in fields(ClusterConfig)})
            if bad:
                raise SpecError(
                    f"unknown [cluster] field(s) {bad}; known: "
                    f"{sorted(f.name for f in fields(ClusterConfig))}"
                )
            cluster = ClusterConfig(**cluster)
        observability = data.get("observability")
        if observability is not None:
            if not isinstance(observability, Mapping):
                raise SpecError(
                    "'observability' must be a mapping of observability "
                    f"options, got {type(observability).__name__}"
                )
            bad = sorted(
                set(observability) - {f.name for f in fields(ObservabilityConfig)}
            )
            if bad:
                raise SpecError(
                    f"unknown [observability] field(s) {bad}; known: "
                    f"{sorted(f.name for f in fields(ObservabilityConfig))}"
                )
            observability = ObservabilityConfig(**observability)
        return cls(
            datasets=datasets,
            cluster=cluster,
            observability=observability,
            **server,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ServerConfig":
        """Load a server config from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(load_mapping_file(path, what="server config"))
