"""The cluster front door: a thin HTTP router that owns no engines.

:class:`PCORRouter` binds the public address, spawns a
:class:`~repro.cluster.fleet.WorkerFleet` (one release worker per shard),
and proxies the existing ``/v1/*`` JSON API unchanged:

* **Per-dataset routes** (``/v1/datasets/{name}/release``,
  ``/v1/budget?dataset=NAME``) forward to the shard owning the dataset —
  the same consistent hash the workers compute — and pass the worker's
  response bytes through *verbatim*.  No re-serialization means releases
  through the router are bit-identical to single-process serving, and
  typed error payloads (402 budget exhaustion, 400 validation, ...)
  survive untouched.
* **Aggregate routes** (``/v1/datasets``, ``/v1/metrics``,
  ``/v1/budget`` without a dataset, ``/v1/metrics/prometheus``,
  ``/v1/debug/profile``, ``/v1/debug/events``) go through one fan-out
  that asks every live shard at once and merges the answers; shards with
  no live worker, or that do not answer, are reported in
  ``unavailable_shards`` rather than silently omitted.  The Prometheus
  exposition stamps every worker sample with a ``shard`` label and
  appends the router's own registry (proxy counters, per-shard latency
  histograms, the ``pcor_unavailable_shards`` gauge).
* **Control routes** (``/control/v1/register``, ``/control/v1/heartbeat``)
  are the workers' loopback-only channel into the fleet.

The listener, drain window, ``/healthz`` and the debug routes' dispatch
are the serving shell in :mod:`repro.server.http`, shared with
:class:`~repro.server.app.PCORServer`.

Every proxied request carries a trace: the router adopts the client's
``X-PCOR-Trace`` header or mints one, forwards it to the worker, and —
for sampled release responses — splices its own ``router.proxy`` span
into the ``trace`` block of the response JSON, so one trace id covers
the proxy hop, queue wait, admission, and engine execution.

Proxy retry policy mirrors :class:`~repro.server.client.PCORClient`:
a GET may be retried once on a fresh connection (reads are idempotent),
but a release POST is never blindly resent — the worker may have charged
the budget (fsync'd) before the response was lost, and a resend would
double-spend.  A shard with no live worker yields a typed 503
(:class:`~repro.exceptions.ShardUnavailableError`) with ``Retry-After``
set to the heartbeat interval — by then the supervisor has usually
respawned the worker and replayed its ledgers.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.exceptions import ServerError, ShardUnavailableError
from repro.obs.export import merged_exposition
from repro.obs.profiler import (
    merge_folded,
    profiler_supported,
    render_folded,
    validate_profile_args,
)
from repro.obs.trace import TRACE_HEADER
from repro.server.config import ServerConfig
from repro.server.http import (
    TENANT_HEADER,
    JsonRequestHandler,
    _BadRequest,
    _JsonService,
)
from repro.cluster.fleet import WorkerFleet
from repro.cluster.manager import WorkerManager, make_worker_manager

logger = logging.getLogger("repro.cluster")

__all__ = ["PCORRouter"]

#: Loopback peers allowed to speak the worker control protocol.
_LOOPBACK = ("127.0.0.1", "::1")


class _RouterHandler(JsonRequestHandler):
    """One request against a :class:`PCORRouter` (``self.server.app``)."""

    def _route_get(self, raw: bytes) -> None:
        url = urlparse(self.path)
        if url.path != "/v1/budget":
            return super()._route_get(raw)
        app: "PCORRouter" = self._app()
        dataset = parse_qs(url.query).get("dataset", [None])[0]
        if dataset is None:
            self._respond(200, app.budget(self._tenant()))
        else:
            # Single-dataset budget: pass through to the owning shard
            # verbatim (including 404s for unknown names).
            self._passthrough(app, dataset, "GET", self.path)

    def _route_post(self, raw: bytes) -> None:
        app: "PCORRouter" = self._app()
        url = urlparse(self.path)
        if url.path.startswith("/control/"):
            self._control(app, url.path, raw)
            return
        parts = url.path.strip("/").split("/")
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "datasets"]
            and parts[3] in ("release", "append")
        ):
            # Forward the request bytes verbatim: what the worker parses
            # is exactly what the client sent, so a release through the
            # router is bit-identical to one served directly.  Appends ride
            # the same per-dataset consistent-hash route, so the shard that
            # serves a dataset is the one that grows it.
            self._passthrough(app, parts[2], "POST", self.path, body=raw)
        else:
            raise ServerError(f"no such route: POST {url.path}")

    def _passthrough(
        self,
        app: "PCORRouter",
        dataset: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> None:
        tenant = (self.headers.get(TENANT_HEADER) or "").strip()
        trace = app.trace_for(self.headers)
        status, data, retry_after = app.proxy(
            dataset, method, path, body=body, tenant=tenant, trace=trace
        )
        if (
            trace is not None
            and trace.sampled
            and method == "POST"
            and status == 200
        ):
            data = app.inject_trace(data, trace)
        headers = {"Retry-After": retry_after} if retry_after else None
        self._respond_raw(status, data, headers=headers)

    def _control(self, app: "PCORRouter", path: str, raw: bytes) -> None:
        if self.client_address[0] not in _LOOPBACK:
            # The control channel is an implementation detail of the
            # router↔worker loopback pair, not part of the public API.
            raise ServerError(f"no such route: POST {path}")
        body = self._parse_json(raw)
        if path == "/control/v1/register":
            self._respond(200, app.fleet.register(body))
        elif path == "/control/v1/heartbeat":
            self._respond(200, app.fleet.heartbeat(body))
        else:
            raise ServerError(f"no such route: POST {path}")


class PCORRouter(_JsonService):
    """Sharded serving: a proxy front end plus a supervised worker fleet.

    The listener, drain barrier, serve thread, ``/healthz`` and the debug
    routes come from the shared serving shell
    (:class:`~repro.server.http._JsonService`); this class adds the fleet,
    the proxy and the fan-out behind the aggregate routes.  :meth:`start`
    opens the listener, spawns the fleet and (by default) blocks until
    every shard has registered; a start that times out shuts the router
    and its fleet down before it raises.

    Parameters
    ----------
    config:
        The full cluster :class:`ServerConfig` (``cluster.workers >= 1``).
        Workers derive their own shard sub-configs from the same document.
    host / port:
        Public bind overrides (``port=0`` picks an ephemeral port).
    manager:
        Worker supervisor override; defaults to what
        ``[cluster] manager`` names (subprocesses, or in-process threads).
    config_path:
        Where ``config`` already lives on disk, if anywhere — lets the
        process manager point workers at the original file instead of a
        temp copy.
    """

    thread_name = "pcor-router"
    responses_family = (
        "pcor_router_http_responses_total",
        "Router HTTP responses by status class.",
    )

    def __init__(
        self,
        config: Union[ServerConfig, Mapping],
        host: Optional[str] = None,
        port: Optional[int] = None,
        manager: Optional[WorkerManager] = None,
        config_path: Optional[str] = None,
    ) -> None:
        if not isinstance(config, ServerConfig):
            config = ServerConfig.from_dict(config)
        cluster = config.cluster
        if cluster is None or cluster.workers < 1:
            raise ServerError(
                "PCORRouter needs [cluster] workers >= 1; "
                "use PCORServer for single-process serving"
            )
        super().__init__(config, host, port, _RouterHandler)
        self.cluster = cluster
        # Router-side observability: registry-backed counters replace the
        # old hand-rolled dicts; the JSON ``/v1/metrics`` shapes are
        # derived views over these same children.
        self._proxy_requests = self.metrics_registry.counter(
            "pcor_proxy_requests_total",
            "Requests proxied to each shard.",
            labelnames=("shard",),
        )
        self._proxy_errors = self.metrics_registry.counter(
            "pcor_proxy_errors_total",
            "Proxy transport failures (no live worker, dropped connection).",
            labelnames=("shard",),
        )
        self._proxy_seconds = self.metrics_registry.counter(
            "pcor_proxy_seconds_total",
            "Wall seconds spent proxying to each shard.",
            labelnames=("shard",),
        )
        self._proxy_latency = self.metrics_registry.histogram(
            "pcor_router_proxy_latency_seconds",
            "Router-to-worker proxy latency per shard.",
            labelnames=("shard",),
        )
        self._unavailable = self.metrics_registry.gauge(
            "pcor_unavailable_shards",
            "Shards with no live worker at the last aggregation.",
        )
        self._unavailable.set(0.0)
        # Workers dial back over loopback even if the public bind is
        # wildcard — the fleet stays a single-host unit for now.
        self.control_url = f"http://127.0.0.1:{self.port}"
        if manager is None:
            manager = make_worker_manager(config, config_path=config_path)
        self.fleet = WorkerFleet(config, manager, router_url=self.control_url)
        # Keep-alive proxy connections, one per worker per handler thread
        # (handler threads die with their connection, taking these along).
        self._local = threading.local()

    def _health_fields(self) -> Dict[str, Any]:
        return {
            "role": "router",
            "workers": self.cluster.workers,
            "datasets": sorted(self.config.datasets),
            "shards": self.fleet.snapshot(),
        }

    def _launch(self) -> None:
        self.fleet.start()

    def _wait_ready(self, timeout: float) -> None:
        self.fleet.wait_ready(timeout=timeout)

    def _close(self) -> None:
        self.fleet.stop()

    # ---------------------------------------------------------------- proxy

    def proxy(
        self,
        dataset: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        tenant: str = "",
        trace=None,
    ) -> Tuple[int, bytes, Optional[str]]:
        """Forward one request to the shard owning ``dataset``.

        Returns ``(status, response_bytes, retry_after_header)`` for
        verbatim passthrough.  GETs may retry once on a fresh connection;
        POSTs never (see module docstring — double-spend).  A ``trace``
        is forwarded as the ``X-PCOR-Trace`` header so the worker joins
        the same trace, and the proxy hop is recorded as a
        ``router.proxy`` span on success.
        """
        shard = self.fleet.shard_for(dataset)
        worker_url = self.fleet.url_for_shard(shard)
        if worker_url is None:
            self._note_proxy(shard, 0.0, error=True)
            raise self._shard_unavailable(shard)
        headers = {}
        if tenant:
            headers[TENANT_HEADER] = tenant
        if trace is not None and trace.sampled:
            headers[TRACE_HEADER] = trace.header_value()
        started = time.monotonic()
        attempts = 2 if method == "GET" else 1
        for attempt in range(attempts):
            conn = self._connection(worker_url, fresh=attempt > 0)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                retry_after = response.getheader("Retry-After")
                ended = time.monotonic()
                self._note_proxy(shard, (ended - started) * 1000.0)
                if trace is not None:
                    trace.add_span(
                        "router.proxy",
                        started,
                        ended,
                        shard=shard,
                        method=method,
                        status=response.status,
                    )
                return response.status, data, retry_after
            except (OSError, http.client.HTTPException):
                self._drop_connection(worker_url)
                if attempt + 1 >= attempts:
                    self._note_proxy(
                        shard,
                        (time.monotonic() - started) * 1000.0,
                        error=True,
                    )
                    raise self._shard_unavailable(shard) from None
        raise AssertionError("unreachable")  # pragma: no cover

    def inject_trace(self, data: bytes, trace) -> bytes:
        """Splice the router's own spans into the worker's ``trace`` block.

        The release response already carries the worker-side span timeline
        for the same trace id; this appends the proxy hop so the payload
        the client sees is the full end-to-end timeline.  Only the
        ``trace`` block is touched — the JSON round-trip preserves the
        ``result`` values exactly (both sides serialize with
        :func:`json.dumps`).  Anything unexpected returns the bytes
        untouched.
        """
        try:
            payload = json.loads(data.decode("utf-8"))
            block = payload.get("trace")
            if (
                not isinstance(block, dict)
                or block.get("trace_id") != trace.trace_id
                or not isinstance(block.get("spans"), list)
            ):
                return data
            block["spans"].extend(trace.spans())
            block["spans"].sort(
                key=lambda s: (s.get("start_ms", 0.0), s.get("name", ""))
            )
            return json.dumps(payload).encode("utf-8")
        except (ValueError, AttributeError, TypeError):
            return data

    def _shard_unavailable(self, shard: int) -> ShardUnavailableError:
        exc = ShardUnavailableError(
            f"shard {shard} has no live worker; the supervisor "
            f"{'is respawning it' if self.cluster.respawn else 'will not respawn it'} "
            "- retry shortly"
        )
        # Surfaced as the Retry-After header: one heartbeat interval is
        # roughly when a respawned worker will have registered.
        exc.retry_after = self.cluster.heartbeat_interval_s
        return exc

    def _connection(self, url: str, fresh: bool = False):
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        if fresh or url not in pool:
            self._drop_connection(url)
            parsed = urlparse(url)
            pool[url] = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=60.0
            )
        return pool[url]

    def _drop_connection(self, url: str) -> None:
        pool = getattr(self._local, "pool", None)
        if pool is not None and url in pool:
            try:
                pool.pop(url).close()
            except OSError:  # pragma: no cover - best-effort close
                pass

    def _note_proxy(self, shard: int, ms: float, error: bool = False) -> None:
        labels = (str(shard),)
        self._proxy_requests.inc(labels=labels)
        self._proxy_seconds.inc(ms / 1000.0, labels=labels)
        self._proxy_latency.observe(ms / 1000.0, labels=labels)
        if error:
            self._proxy_errors.inc(labels=labels)

    def _fetch(
        self, url: str, path: str, tenant: str, timeout: float
    ) -> Optional[Any]:
        """One shard's 200 answer to ``GET path``: parsed JSON, or text for
        any other content type (the Prometheus exposition); ``None`` when
        the shard does not answer 200."""
        parsed = urlparse(url)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=timeout
        )
        try:
            conn.request(
                "GET", path, headers={TENANT_HEADER: tenant} if tenant else {}
            )
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                return None
            text = data.decode("utf-8")
            if response.getheader("Content-Type") == "application/json":
                return json.loads(text)
            return text
        except (OSError, http.client.HTTPException, ValueError):
            return None
        finally:
            conn.close()

    def _fan_out(
        self,
        path: str,
        tenant: str = "",
        timeout: float = 30.0,
        local: Optional[Callable[[], Any]] = None,
    ) -> Tuple[Dict[int, Any], List[int], Any]:
        """``GET path`` on every live shard at once.

        Returns ``(bodies, unavailable, own)``: each answering shard's body
        in shard order, the sorted shards with no live worker or no 200
        answer (also the ``pcor_unavailable_shards`` gauge), and what
        ``local()`` returned.  ``local`` runs on the calling thread while
        the shards answer, so a profile samples the router meanwhile.
        """
        live = self.fleet.live_urls()
        results: Dict[int, Any] = {}

        def fetch(shard: int, url: str) -> None:
            results[shard] = self._fetch(url, path, tenant, timeout)

        threads = [
            threading.Thread(
                target=fetch,
                args=(shard, url),
                name=f"pcor-fanout-shard{shard}",
                daemon=True,
            )
            for shard, url in sorted(live.items())
        ]
        for thread in threads:
            thread.start()
        own = local() if local is not None else None
        for thread in threads:
            thread.join(timeout=timeout + 30.0)
        results = dict(results)  # a fetch past its join may still write
        bodies = {
            shard: results[shard]
            for shard in sorted(live)
            if results.get(shard) is not None
        }
        failed = sorted(set(range(self.cluster.workers)) - set(bodies))
        self._unavailable.set(float(len(failed)))
        return bodies, failed, own

    # ------------------------------------------------------------ endpoints

    def _aggregate(self, path: str, tenant: str = "") -> Dict[str, Any]:
        """Every live shard's per-dataset map merged under ``"datasets"``;
        shards that did not answer are listed under
        ``"unavailable_shards"``, not silently dropped."""
        bodies, failed, _ = self._fan_out(path, tenant=tenant)
        out: Dict[str, Any] = {
            "datasets": {
                name: value
                for body in bodies.values()
                for name, value in body.get("datasets", {}).items()
            }
        }
        if failed:
            out["unavailable_shards"] = failed
        return out

    def list_datasets(self) -> Dict[str, Any]:
        return self._aggregate("/v1/datasets")

    def budget(self, tenant: str) -> Dict[str, Any]:
        return {"tenant": tenant, **self._aggregate("/v1/budget", tenant=tenant)}

    def metrics(self) -> Dict[str, Any]:
        """Fleet-wide monotonic counters plus the router's own shard view
        (request counts, proxy latency, heartbeat age, respawns).

        The ``router`` section and ``unavailable_shards`` are always
        present (an empty list when every shard is live) so dashboards
        never have to treat a missing key as "healthy".
        """
        merged = self._aggregate("/v1/metrics")
        responses = {key[0]: int(value) for key, value in self._responses.items()}
        shards = []
        for row in self.fleet.snapshot():
            labels = (str(row["shard"]),)
            requests = int(self._proxy_requests.value(labels))
            total_ms = self._proxy_seconds.value(labels) * 1000.0
            shards.append(
                {
                    "shard": row["shard"],
                    "status": row["status"],
                    "requests": requests,
                    "proxy_errors": int(self._proxy_errors.value(labels)),
                    "proxy_ms_mean": (
                        round(total_ms / requests, 3) if requests else None
                    ),
                    "heartbeat_age_s": row["heartbeat_age_s"],
                    "respawns": row["respawns"],
                }
            )
        return {
            "server": {"responses_by_status": responses},
            "router": {"workers": self.cluster.workers, "shards": shards},
            "datasets": merged["datasets"],
            "unavailable_shards": merged.get("unavailable_shards", []),
        }

    def prometheus_metrics(self) -> str:
        """The fleet-wide text exposition: every live shard's own
        ``/v1/metrics/prometheus`` body with a ``shard`` label stamped on
        each sample, plus the router's registry (proxy counters, latency
        histograms, ``pcor_unavailable_shards``)."""
        bodies, _, _ = self._fan_out("/v1/metrics/prometheus")
        return merged_exposition(
            list(bodies.items()), extra_families=self.metrics_registry.collect()
        )

    @staticmethod
    def _by_source(own, bodies: Dict[int, Any]):
        """``(source, body)`` pairs: the router's own first, then each
        answering shard as ``shard<N>``."""
        if own is not None:
            yield "router", own
        for shard, body in bodies.items():
            yield f"shard{shard}", body

    def debug_profile(
        self, seconds: Optional[float] = None, hz: Optional[float] = None
    ) -> Dict[str, Any]:
        """One merged flamegraph for the whole fleet.

        Fans ``/v1/debug/profile`` out to every live shard while the router
        samples *itself* on the handler thread, then merges the folded
        stacks under ``router;`` / ``shard<N>;`` roots.  Shards that die
        mid-scrape land in ``unavailable_shards`` — a partial profile
        renders rather than a 500.  Router shutdown disarms the local
        session, so a fleet profile never stalls the drain barrier.
        """
        try:
            seconds, hz = validate_profile_args(seconds, hz)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        # The workers block for the full sampling window before they
        # respond, so the fan-out timeout must exceed it.
        bodies, failed, own = self._fan_out(
            f"/v1/debug/profile?seconds={seconds:g}&hz={hz:g}",
            timeout=seconds + 30.0,
            local=partial(super().debug_profile, seconds, hz),
        )
        sources: Dict[str, Dict[str, Any]] = {}
        profiles = []
        for label, body in self._by_source(own, bodies):
            profiles.append((label, body.get("folded") or {}))
            sources[label] = {
                key: body.get(key)
                for key in ("samples", "threads", "duration_s", "disarmed")
            }
        folded = merge_folded(profiles)
        return {
            "supported": profiler_supported(),
            "seconds": seconds,
            "hz": hz,
            "samples": sum(s.get("samples") or 0 for s in sources.values()),
            "disarmed": any(s.get("disarmed") for s in sources.values()),
            "sources": sources,
            "folded": folded,
            "folded_text": render_folded(folded),
            "unavailable_shards": failed,
        }

    def debug_events(self, n: Optional[int] = None) -> Dict[str, Any]:
        """The fleet's recent structured events, merged and time-sorted.

        Each event is stamped with its ``source`` (``router`` or
        ``shard<N>``); per-source ring counters land under ``sources`` so
        an operator can tell when a window is incomplete.  Dead shards go
        to ``unavailable_shards``.
        """
        bodies, failed, own = self._fan_out(
            "/v1/debug/events" + (f"?n={n}" if n is not None else ""),
            local=(
                partial(super().debug_events, n)
                if self._events_handler is not None
                else None
            ),
        )
        sources: Dict[str, Dict[str, Any]] = {}
        events: list = []
        for label, body in self._by_source(own, bodies):
            for event in body.get("events", []):
                event["source"] = label
                events.append(event)
            sources[label] = {
                key: body.get(key)
                for key in ("capacity", "buffered", "total", "dropped")
            }
        events.sort(key=lambda e: (e.get("ts") or 0.0, str(e.get("source"))))
        if n is not None and len(events) > n:
            events = events[-n:]
        return {
            "events": events,
            "sources": sources,
            "unavailable_shards": failed,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PCORRouter(url={self.url!r}, workers={self.cluster.workers})"
        )
