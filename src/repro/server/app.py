"""The PCOR HTTP service: a stdlib-only multi-tenant release API.

:class:`PCORServer` wraps a :class:`~http.server.ThreadingHTTPServer` around
a :class:`~repro.server.registry.DatasetRegistry`.  Each request thread
performs tenant-layered admission and then delegates the release to the
dataset's :class:`~repro.service.engine.ReleaseEngine` (whose execution
backend — serial or process — does the heavy fan-out), so the handler pool
stays thin.

Routes (all JSON):

=======  ===================================  =====================================
Method   Path                                 Body / semantics
=======  ===================================  =====================================
GET      ``/healthz``                         liveness + hosted dataset names
                                              (answered even while draining,
                                              with ``"status": "draining"``)
GET      ``/v1/datasets``                     per-dataset budget/engine summary
GET      ``/v1/budget``                       caller's budgets (tenant header;
                                              optional ``?dataset=NAME``)
GET      ``/v1/metrics``                      monotonic counters per dataset,
                                              incl. per-tenant spend breakdown
GET      ``/v1/metrics/prometheus``           the same counters (plus request
                                              latency histograms) in the
                                              Prometheus text exposition
GET      ``/v1/debug/profile``                sample this process's stacks for
                                              ``?seconds=N`` at ``?hz=M`` and
                                              return collapsed ("folded") stacks
                                              with engine-phase annotations
GET      ``/v1/debug/events``                 the last ``?n=K`` structured
                                              events from the in-memory ring
POST     ``/v1/datasets/{name}/release``      ``{"record_id", "spec", "seed"?,
                                              "starting_context"?}`` →
                                              ``PCORResult.to_dict()`` (plus a
                                              ``trace`` span timeline for
                                              sampled requests)
=======  ===================================  =====================================

Analysts authenticate with the ``X-PCOR-Tenant`` header (required on
``/v1/budget`` and releases).  Errors come back as typed payloads
``{"error": {"type", "message", "status"}}``: budget exhaustion maps to
402, validation to 400, unknown datasets/routes to 404, releases that fail
mid-run to 422, shutdown drain to 503 (with ``Retry-After``) — and the
client resurrects the original exception class from ``type``.  The
serving shell (listener, drain window, serve thread, ``/healthz``, the
debug routes) and the wire dialect (handler core, error mapping) live in
:mod:`repro.server.http`, shared with the cluster router; this module
holds what only a dataset-hosting server does.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from typing import Any, Dict, Mapping, Optional, Union
from urllib.parse import parse_qs, urlparse

from repro.core.result import PCORResult
from repro.exceptions import DatasetError, SchemaError, ServerError
from repro.obs.logs import log_event
from repro.obs.metrics import render_text
from repro.obs.export import dataset_families
from repro.obs.trace import TRACE_HEADER, Trace, span
from repro.server.batching import CoalescerClosed, ReleaseCoalescer
from repro.server.config import ServerConfig
from repro.server.http import (
    TENANT_HEADER,
    JsonRequestHandler,
    _BadRequest,
    _JsonService,
)
from repro.server.registry import DatasetRegistry
from repro.service.engine import ReleaseRequest
from repro.service.spec import PipelineSpec

logger = logging.getLogger("repro.server")

__all__ = ["PCORServer", "TENANT_HEADER", "TRACE_HEADER"]


class _Handler(JsonRequestHandler):
    """One request against a :class:`PCORServer` (``self.server.app``)."""

    def _route_get(self, raw: bytes) -> None:
        url = urlparse(self.path)
        if url.path != "/v1/budget":
            return super()._route_get(raw)
        dataset = parse_qs(url.query).get("dataset", [None])[0]
        self._respond(200, self._app().budget(self._tenant(), dataset=dataset))

    def _route_post(self, raw: bytes) -> None:
        url = urlparse(self.path)
        parts = url.path.strip("/").split("/")
        if len(parts) == 4 and parts[:2] == ["v1", "datasets"] and parts[3] == "release":
            body = self._parse_json(raw)
            trace = self._app().trace_for(self.headers)
            payload = self._app().release(
                parts[2], self._tenant(), body, trace=trace
            )
            self._respond(200, payload)
        elif len(parts) == 4 and parts[:2] == ["v1", "datasets"] and parts[3] == "append":
            body = self._parse_json(raw)
            self._respond(
                200, self._app().append(parts[2], self._tenant(), body)
            )
        else:
            raise ServerError(f"no such route: POST {url.path}")


class PCORServer(_JsonService):
    """The multi-tenant PCOR release service.

    The listener, drain barrier, serve thread, ``/healthz`` and the debug
    routes come from the shared serving shell
    (:class:`~repro.server.http._JsonService`); this class adds the
    hosted datasets — their registry, coalescers and release path.

    Parameters
    ----------
    config:
        A :class:`ServerConfig` (or a path-free mapping accepted by
        :meth:`ServerConfig.from_dict`), *or* a pre-built
        :class:`DatasetRegistry`.
    host / port:
        Bind address overrides (``port=0`` binds an ephemeral port —
        read the real one off :attr:`port` after construction).

    Use as a context manager, or call :meth:`start` / :meth:`shutdown`
    explicitly.  :meth:`serve_forever` blocks (the CLI path).  Shutdown
    drains in-flight requests, then the coalescers flush whatever is
    still queued, and only then do the ledgers and the listener close.
    Ledger stores fsync on every admitted charge, so shutdown never loses
    recorded spend.
    """

    def __init__(
        self,
        config: Union[ServerConfig, Mapping, DatasetRegistry],
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        if isinstance(config, DatasetRegistry):
            self.registry = config
        else:
            if not isinstance(config, ServerConfig):
                config = ServerConfig.from_dict(config)
            self.registry = DatasetRegistry(config)
        try:
            super().__init__(self.registry.config, host, port, _Handler)
        except ServerError:
            self.registry.close()
            raise
        self._lock = threading.Lock()
        self._release_latency = self.metrics_registry.histogram(
            "pcor_release_latency_seconds",
            "End-to-end release latency as served (admission + execution).",
            labelnames=("dataset",),
        )
        # One coalescer per dataset that opted in (max_batch > 1); the
        # engine_for thunk keeps dataset construction lazy.
        self._coalescers: Dict[str, ReleaseCoalescer] = {}
        for name in self.registry.names():
            entry = self.registry.get(name)
            if entry.config.max_batch > 1:
                self._coalescers[name] = ReleaseCoalescer(
                    tenants=entry.tenants,
                    engine_for=(lambda e=entry: e.engine),
                    max_batch=entry.config.max_batch,
                    max_delay_ms=entry.config.max_delay_ms,
                    name=name,
                )
        # Validated-spec cache: analysts overwhelmingly resubmit the same
        # pipeline with new records/seeds, and eager PipelineSpec validation
        # (registry + signature checks) costs ~0.1 ms — worth skipping.
        # PipelineSpec is frozen, so cached instances are safe to share.
        self._spec_cache: Dict[str, PipelineSpec] = {}

    def _health_fields(self) -> Dict[str, Any]:
        return {"datasets": self.registry.names()}

    def _close(self) -> None:
        for coalescer in self._coalescers.values():
            coalescer.close()
        self.registry.close()

    # ------------------------------------------------------------ endpoints

    def list_datasets(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in self.registry.names():
            entry = self.registry.get(name)
            accountant = entry.accountant
            out[name] = {
                "source": entry.config.source,
                "built": entry.built,
                "budget": accountant.budget if accountant is not None else None,
                "spent": accountant.spent if accountant is not None else None,
                "remaining": (
                    accountant.remaining if accountant is not None else None
                ),
                "tenant_budget": entry.config.tenant_budget,
            }
        return {"datasets": out}

    def budget(self, tenant: str, dataset: Optional[str] = None) -> Dict[str, Any]:
        names = [dataset] if dataset is not None else self.registry.names()
        budgets = {}
        for name in names:
            entry = self.registry.get(name)  # unknown name -> 404
            budgets[name] = entry.tenants.describe(tenant)
        return {"tenant": tenant, "datasets": budgets}

    def metrics(self) -> Dict[str, Any]:
        """Monotonic service counters (safe to difference between scrapes)."""
        datasets: Dict[str, Any] = {}
        for name in self.registry.names():
            entry = self.registry.get(name)
            if entry.built:
                m = entry.engine.metrics()
                m.spend_by_tenant = entry.tenants.spend_by_tenant()
                body = m.to_dict()
            else:
                accountant = entry.accountant
                body = {
                    "epsilon_spent": (
                        accountant.spent if accountant is not None else 0.0
                    ),
                    "epsilon_budget": (
                        accountant.budget if accountant is not None else None
                    ),
                    "epsilon_remaining": (
                        accountant.remaining if accountant is not None else None
                    ),
                    "ledger_charges": (
                        accountant.charge_count if accountant is not None else 0
                    ),
                    "spend_by_tenant": entry.tenants.spend_by_tenant(),
                }
            rejections = entry.tenants.rejections()
            body["tenant_rejections"] = rejections
            # Served releases are admitted by the tenant ledgers, never by
            # the engine's own charge, so their refusals are added here.
            body["requests_rejected"] = body.get("requests_rejected", 0) + sum(
                rejections.values()
            )
            coalescer = self._coalescers.get(name)
            if coalescer is not None:
                # Overwrite the engine's zeroed batch_* placeholders with
                # the live coalescer counters (same keys, same monotonicity
                # contract as EngineMetrics documents).
                body.update(coalescer.snapshot())
            datasets[name] = body
        responses = {key[0]: int(value) for key, value in self._responses.items()}
        return {"server": {"responses_by_status": responses}, "datasets": datasets}

    def prometheus_metrics(self) -> str:
        """The Prometheus text exposition: the registry's own families
        (HTTP responses, release latency histograms) plus a scrape-time
        derived view of the per-dataset JSON counters."""
        families = self.metrics_registry.collect()
        families.extend(dataset_families(self.metrics()["datasets"]))
        return render_text(families)

    def release(
        self,
        dataset: str,
        tenant: str,
        body: Mapping[str, Any],
        trace: Optional[Trace] = None,
    ) -> Dict[str, Any]:
        """Admit (both ledgers, atomically) then execute one release.

        Datasets configured with ``max_batch > 1`` route through their
        :class:`~repro.server.batching.ReleaseCoalescer`: the handler
        thread parks on a future while the flusher admits and executes a
        whole batch at once.  The ``result`` payload is bit-identical
        either way — coalescing only changes *when* the work runs, never
        what a given ``(record_id, spec, seed)`` releases.

        With a sampled ``trace``, the request carries it through every
        layer and the response gains a top-level ``trace`` key — the span
        timeline — *next to* ``result``, so the release result itself
        stays bit-identical with tracing on or off.  Every release also
        emits one structured ``request`` log event; releases slower than
        ``observability.slow_request_ms`` dump their spans as a
        ``slow_request`` warning.
        """
        handle = span(
            "server.handle", trace, dataset=dataset, tenant=tenant, status="ok"
        )
        epsilon: Optional[float] = None
        try:
            with handle:
                try:
                    entry = self.registry.get(dataset)  # unknown name -> 404
                    request = self._parse_release(body, trace=trace)
                    epsilon = request.spec.epsilon
                    payload = {
                        "result": self._admit_and_execute(
                            dataset, entry, tenant, request
                        ).to_dict(),
                        "budget": entry.tenants.describe(tenant),
                    }
                except Exception as exc:
                    handle.attrs["status"] = type(exc).__name__
                    raise
        finally:
            self._log_release(handle, epsilon)
        if trace is not None and trace.sampled:
            payload["trace"] = trace.to_dict()
        return payload

    def _admit_and_execute(
        self, dataset: str, entry, tenant: str, request: ReleaseRequest
    ) -> PCORResult:
        """Admit ``request`` on both ledgers and run it: through the
        dataset's coalescer when it has one, else directly."""
        epsilon = request.spec.epsilon
        # The version stamp lines each WAL charge up with the dataset
        # snapshot it was admitted against, as the engine's own charge
        # labels do.
        label = (
            f"release(tenant={tenant}, record={request.record_id}, "
            f"sampler={request.spec.sampler}, epsilon={epsilon:g}, "
            f"dataset_v{entry.dataset_version})"
        )
        coalescer = self._coalescers.get(dataset)
        if coalescer is not None:
            try:
                future = coalescer.submit(tenant, label, request)
            except CoalescerClosed:
                # Racing shutdown: the direct path below still answers
                # correctly (admission + execution, no queue involved).
                pass
            else:
                return future.result()  # raises what the direct path would
        # Admission happens before the engine (and hence the dataset and
        # detector) is even built: an over-budget tenant is rejected with
        # 402 before a single f_M evaluation, restart or not.
        with span("admission", request.trace, batch=1):
            entry.tenants.admit(tenant, label, epsilon)
        return entry.engine.execute(request)

    def append(
        self,
        dataset: str,
        tenant: str,
        body: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """Append records to a served dataset (``POST .../append``).

        The engine grows its mask index incrementally and bumps the
        dataset version; cached profiles whose contexts contain an
        appended record are invalidated, everything else survives.
        Releases concurrent with the append run against either the old or
        the new version — each response's ``result.dataset_version`` says
        which.  Appends charge no privacy budget: the OCDP guarantee is
        per-release, and the new records are protected by the same
        mechanism from their first release onward.
        """
        entry = self.registry.get(dataset)  # unknown name -> 404
        unknown = sorted(set(body) - {"records"})
        if unknown:
            raise _BadRequest(
                f"unknown append field(s) {unknown}; known: ['records']"
            )
        records = body.get("records")
        if not isinstance(records, list) or not records:
            raise _BadRequest(
                "append body needs a non-empty 'records' list of objects"
            )
        for i, row in enumerate(records):
            if not isinstance(row, Mapping):
                raise _BadRequest(
                    f"records[{i}] must be an object, got {type(row).__name__}"
                )
        started = time.monotonic()
        try:
            info = entry.engine.append(records)
        except (DatasetError, SchemaError) as exc:
            # Well-formed JSON, bad data (unknown domain value, missing
            # attribute/metric): the client's fault, not a server fault.
            raise _BadRequest(str(exc)) from None
        log_event(
            logger,
            "append",
            tenant=tenant,
            dataset=dataset,
            appended=info["appended"],
            n_records=info["n_records"],
            dataset_version=info["dataset_version"],
            invalidated_profiles=info["invalidated_profiles"],
            duration_ms=round((time.monotonic() - started) * 1000.0, 3),
        )
        return {"dataset": dataset, **info}

    def _log_release(self, handle: span, epsilon: Optional[float]) -> None:
        """Observe a finished ``server.handle`` span: its latency, its
        ``request`` event, and its trace's spans when it was slow."""
        trace, attrs = handle.trace, handle.attrs
        tenant, dataset, status = attrs["tenant"], attrs["dataset"], attrs["status"]
        self._release_latency.observe(handle.elapsed, labels=(dataset,))
        duration_ms = round(handle.elapsed * 1000.0, 3)
        log_event(
            logger,
            "request",
            trace_id=trace.trace_id if trace is not None else None,
            tenant=tenant,
            dataset=dataset,
            epsilon=epsilon,
            status=status,
            duration_ms=duration_ms,
        )
        if (
            trace is not None
            and trace.sampled
            and duration_ms > self.obs.slow_request_ms
        ):
            log_event(
                logger,
                "slow_request",
                level=logging.WARNING,
                trace_id=trace.trace_id,
                tenant=tenant,
                dataset=dataset,
                status=status,
                duration_ms=duration_ms,
                spans=trace.spans(),
            )

    # -------------------------------------------------------------- parsing

    _SPEC_CACHE_MAX = 256

    def _parse_spec(self, spec_body: Mapping[str, Any]) -> PipelineSpec:
        try:
            key = json.dumps(spec_body, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            raise _BadRequest("spec must be a JSON-serializable object") from None
        with self._lock:
            spec = self._spec_cache.get(key)
        if spec is None:
            spec = PipelineSpec.from_dict(spec_body)  # SpecError -> 400
            with self._lock:
                if len(self._spec_cache) >= self._SPEC_CACHE_MAX:
                    self._spec_cache.clear()
                self._spec_cache[key] = spec
        return spec

    def _parse_release(
        self, body: Mapping[str, Any], trace: Optional[Trace] = None
    ) -> ReleaseRequest:
        unknown = sorted(
            set(body) - {"record_id", "spec", "seed", "starting_context"}
        )
        if unknown:
            raise _BadRequest(
                f"unknown release field(s) {unknown}; known: "
                "['record_id', 'seed', 'spec', 'starting_context']"
            )
        if "record_id" not in body:
            raise _BadRequest("release body is missing 'record_id'")
        record_id = body["record_id"]
        if isinstance(record_id, bool) or not isinstance(record_id, int):
            raise _BadRequest(
                f"record_id must be an integer, got {record_id!r}"
            )
        spec_body = body.get("spec")
        if not isinstance(spec_body, Mapping):
            raise _BadRequest(
                "release body needs a 'spec' object (a PipelineSpec mapping)"
            )
        spec = self._parse_spec(spec_body)
        seed = body.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            raise _BadRequest(
                f"seed must be an integer or null, got {seed!r}"
            )
        starting = body.get("starting_context")
        if starting is not None and (
            isinstance(starting, bool) or not isinstance(starting, int)
        ):
            raise _BadRequest(
                "starting_context must be an integer context bitmask or null, "
                f"got {starting!r}"
            )
        return ReleaseRequest(
            record_id=record_id,
            spec=spec,
            starting_context=starting,
            seed=seed,
            trace=trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PCORServer(url={self.url!r}, datasets={self.registry.names()})"
