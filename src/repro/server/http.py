"""The serving shell and wire dialect both PCOR tiers share.

:class:`~repro.server.app.PCORServer` (one process hosting engines) and
:class:`~repro.cluster.router.PCORRouter` (a thin proxy in front of a
worker fleet) speak the same JSON dialect and run the same lifecycle.
This module holds both, so a fix to either lands in both tiers at once:

* :class:`_JsonService` — the shell: binds the listener, owns the drain
  barrier and the serve thread (``start``, ``serve_forever``,
  ``shutdown``, ``abort``, the context manager), counts responses by
  status class, mints request traces, and keeps the debug state (profile
  sessions, the event ring) behind ``/healthz`` and ``/v1/debug/*``.  A
  tier subclasses it and supplies its routes' bodies and resources.
* :class:`JsonRequestHandler` — the request-handler core.  It answers the
  six GET routes both tiers serve alike (``/healthz``, ``/v1/datasets``,
  ``/v1/metrics``, ``/v1/metrics/prometheus``, ``/v1/debug/profile``,
  ``/v1/debug/events``); a tier's handler adds ``/v1/budget`` and its
  POST routes.  Body draining, tenant parsing, JSON responses, error
  mapping and the per-request drain window are shared.
* :class:`DrainState` — the shutdown drain barrier: counts in-flight
  requests, rejects late arrivals with a typed 503 (``Retry-After`` set),
  and lets ``/healthz`` through so probes can observe ``"draining"``.
* :func:`status_for` — exception class → HTTP status, shared so a payload
  proxied through the router maps exactly as one served directly.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.obs.events import install_event_buffer, uninstall_event_buffer
from repro.obs.logs import log_event
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.obs.profiler import ProfileSessions, ProfilerDisarmed
from repro.obs.trace import (
    TRACE_HEADER,
    Trace,
    process_rss_bytes,
    trace_for_request,
)
from repro.exceptions import (
    PrivacyBudgetError,
    ReproError,
    ServerError,
    ShardUnavailableError,
    SpecError,
)
from repro.server.config import ObservabilityConfig, ServerConfig

logger = logging.getLogger("repro.server")

#: Header naming the calling analyst.
TENANT_HEADER = "X-PCOR-Tenant"

#: Routes answered even while the drain window is closing (health probes
#: must be able to observe the ``"draining"`` status, not be refused).
HEALTH_PATH = "/healthz"


class _Draining(ServerError):
    """Request arrived after shutdown began (maps to 503; the client
    resurrects the public base, ServerError)."""

    #: Seconds a client should wait before retrying (``Retry-After``).
    retry_after = 1.0


class _BadRequest(SpecError):
    """Malformed request body/headers (maps to 400 like any SpecError)."""


#: Exception class → HTTP status for typed error payloads (first match in
#: iteration order wins, so subclasses precede their bases).
_STATUS_FOR = {
    _Draining: 503,
    ShardUnavailableError: 503,
    PrivacyBudgetError: 402,
    SpecError: 400,
    ServerError: 404,
}


def status_for(exc: Exception) -> int:
    """The HTTP status a typed error payload carries for ``exc``."""
    for cls, status in _STATUS_FOR.items():
        if isinstance(exc, cls):
            return status
    if isinstance(exc, ReproError):
        # The request was well-formed and admitted but the release failed
        # (no matching context, record outside the dataset, ...).
        return 422
    return 500


def query_number(query: Mapping[str, Any], key: str) -> Optional[float]:
    """One numeric query parameter (last occurrence wins), or ``None``.

    Shared by the server's and the router's debug routes; a non-numeric
    value is the caller's typo and maps to a typed 400.
    """
    values = query.get(key)
    if not values:
        return None
    try:
        return float(values[-1])
    except (TypeError, ValueError):
        raise _BadRequest(
            f"query parameter {key!r} must be a number, got {values[-1]!r}"
        ) from None


def _event_count(query: Mapping[str, Any]) -> Optional[int]:
    """``?n=`` of ``/v1/debug/events``: a finite number >= 0, or ``None``."""
    n = query_number(query, "n")
    if n is None:
        return None
    if not (math.isfinite(n) and n >= 0):
        raise _BadRequest(f"n must be a finite number >= 0, got {n:g}")
    return int(n)


class DrainState:
    """The graceful-shutdown drain barrier, shared by server and router.

    Handler threads are daemonic and never joined by ``server_close()``,
    so shared state (ledgers, worker fleets) must not be torn down until
    every request that entered a handler has left it.  The window is
    counted per *request*, not per connection: keep-alive handler threads
    spend their life blocked in ``readline`` between requests, and
    counting connections would make shutdown wait on idle sockets.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    def begin(self, exempt: bool = False) -> None:
        """Admit one request into the window; 503s requests racing
        shutdown unless ``exempt`` (health probes)."""
        with self._cond:
            if self._draining and not exempt:
                raise _Draining(
                    "server is shutting down; no new requests are admitted"
                )
            self._active += 1

    def end(self) -> None:
        with self._cond:
            self._active -= 1
            if self._active <= 0:
                self._cond.notify_all()

    def drain(self, timeout: float = 10.0) -> None:
        """Stop admitting requests and wait for active handlers to finish."""
        deadline = time.monotonic() + timeout
        with self._cond:
            self._draining = True
            log_event(logger, "drain", active=self._active)
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    logger.warning(
                        "shutdown drain timed out with %d request(s) still "
                        "active",
                        self._active,
                    )
                    break
                self._cond.wait(remaining)


class ThreadingJsonServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class JsonRequestHandler(BaseHTTPRequestHandler):
    """One request of the PCOR JSON dialect.

    All state lives on ``self.server.app``, a :class:`_JsonService`.
    :meth:`_route_get` answers the GET routes both tiers share; a tier's
    subclass handles ``/v1/budget`` first and defers every other GET path
    here, and implements ``_route_post(raw)``.  Routes raise
    :mod:`repro.exceptions` classes; the base maps them to typed payloads.
    """

    server_version = f"pcor/{__version__}"
    protocol_version = "HTTP/1.1"
    # Buffered writes + TCP_NODELAY: a response leaves in one segment
    # instead of one write per header, and keep-alive clients never hit
    # the Nagle/delayed-ACK 40 ms stall.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._guarded(self._route_post)

    def _route_get(self, raw: bytes) -> None:
        app = self._app()
        url = urlparse(self.path)
        query = parse_qs(url.query)
        if url.path == HEALTH_PATH:
            self._respond(200, app.health())
        elif url.path == "/v1/datasets":
            self._respond(200, app.list_datasets())
        elif url.path == "/v1/metrics":
            self._respond(200, app.metrics())
        elif url.path == "/v1/metrics/prometheus":
            self._respond_raw(
                200,
                app.prometheus_metrics().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        elif url.path == "/v1/debug/profile":
            self._respond(
                200,
                app.debug_profile(
                    seconds=query_number(query, "seconds"),
                    hz=query_number(query, "hz"),
                ),
            )
        elif url.path == "/v1/debug/events":
            self._respond(200, app.debug_events(n=_event_count(query)))
        else:
            raise ServerError(f"no such route: GET {url.path}")

    def _route_post(self, raw: bytes) -> None:
        raise ServerError(f"no such route: POST {urlparse(self.path).path}")

    def _guarded(self, route) -> None:
        """Run one routed request inside the app's drain window.

        Requests arriving after shutdown began get a typed 503 (with
        ``Retry-After``) — after the body is drained, so even the
        rejection leaves the keep-alive stream in sync.  ``/healthz`` is
        exempt from the rejection (it reports ``"draining"`` instead) but
        still counted, so teardown waits for its response too.
        """
        app = self._app()
        # Drain the body before anything else, even for requests that will
        # 404 or 503: unread body bytes left in rfile would be parsed as
        # the next request line, desyncing the keep-alive connection.
        try:
            raw = self._read_body()
        except _BadRequest as exc:
            # No usable Content-Length: where the body ends is unknown, so
            # the stream cannot be resynced.  Answer, then close it.
            self._respond_error(exc, headers={"Connection": "close"})
            return
        exempt = urlparse(self.path).path == HEALTH_PATH
        try:
            app.drain.begin(exempt=exempt)
        except Exception as exc:  # noqa: BLE001 — typed 503 payload
            self._respond_error(exc)
            return
        try:
            route(raw)
        except Exception as exc:  # noqa: BLE001 — mapped to typed payloads
            self._respond_error(exc)
        finally:
            app.drain.end()

    # -------------------------------------------------------------- helpers

    def _app(self):
        return self.server.app  # type: ignore[attr-defined]

    def _tenant(self) -> str:
        tenant = (self.headers.get(TENANT_HEADER) or "").strip()
        if not tenant:
            raise _BadRequest(
                f"missing {TENANT_HEADER} header: every analyst-facing route "
                "is tenant-scoped"
            )
        return tenant

    def _read_body(self) -> bytes:
        value = (self.headers.get("Content-Length") or "0").strip()
        if not (value.isascii() and value.isdigit()):
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, got {value!r}"
            )
        length = int(value)
        return self.rfile.read(length) if length > 0 else b""

    @staticmethod
    def _parse_json(raw: bytes) -> Dict[str, Any]:
        if not raw:
            raise _BadRequest("request body is empty; expected a JSON object")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise _BadRequest(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        return body

    def _respond(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._respond_raw(
            status, json.dumps(payload).encode("utf-8"), headers=headers
        )

    def _respond_raw(
        self,
        status: int,
        data: bytes,
        headers: Optional[Mapping[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        """Send a pre-encoded body verbatim (the router's proxy
        pass-through; the Prometheus exposition overrides the type)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        self._app()._count(status)

    def _respond_error(
        self, exc: Exception, headers: Optional[Mapping[str, str]] = None
    ) -> None:
        status = status_for(exc)
        if status == 500:
            logger.exception("unhandled error serving %s", self.path)
        # Publish the nearest *public* class name so the client can
        # resurrect the exception (internal helpers like _BadRequest
        # surface as their public base, SpecError).
        name = next(
            base.__name__
            for base in type(exc).__mro__
            if not base.__name__.startswith("_")
        )
        payload = {
            "error": {
                "type": name,
                "message": str(exc),
                "status": status,
            }
        }
        headers = dict(headers or {})
        if status == 503:
            # Every 503 is transient (drain or a dead shard): tell clients
            # when to come back.  PCORClient honors this for GETs only.
            retry_after = getattr(exc, "retry_after", None) or 1.0
            headers["Retry-After"] = str(max(1, math.ceil(float(retry_after))))
        self._respond(status, payload, headers=headers)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


class _JsonService:
    """The serving shell: listener, drain, serve thread and debug state.

    A tier subclasses it, passing its config, bind overrides and handler
    class, and supplies the bodies of the shared routes
    (``list_datasets``, ``metrics``, ``prometheus_metrics``) plus four
    hooks: :meth:`_health_fields`, :meth:`_launch`, :meth:`_wait_ready`
    and :meth:`_close`.  ``thread_name`` names the serve thread and
    ``responses_family`` the HTTP-responses counter family.
    """

    thread_name = "pcor-server"
    responses_family = (
        "pcor_http_responses_total",
        "HTTP responses by status class.",
    )

    def __init__(
        self,
        config: ServerConfig,
        host: Optional[str],
        port: Optional[int],
        handler: type,
    ) -> None:
        bind = (
            host if host is not None else config.host,
            port if port is not None else config.port,
        )
        try:
            self._httpd = ThreadingJsonServer(bind, handler)
        except OSError as exc:
            raise ServerError(f"cannot bind {bind[0]}:{bind[1]}: {exc}") from None
        self._httpd.app = self  # type: ignore[attr-defined]
        self.config = config
        self.obs = config.observability or ObservabilityConfig()
        # Shutdown drain: handler threads are daemonic and NOT joined by
        # server_close(), so shared state (ledgers, the fleet) must not
        # close until every request that entered a handler has left it.
        self.drain = DrainState()
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()
        # The typed registry behind both /v1/metrics JSON (derived view)
        # and the /v1/metrics/prometheus exposition.
        self.metrics_registry = MetricsRegistry()
        name, help_text = self.responses_family
        self._responses = self.metrics_registry.counter(
            name, help_text, labelnames=("status",)
        )
        # Debug introspection: in-flight /v1/debug/profile sessions (so
        # shutdown can disarm them before the drain barrier waits) and the
        # bounded ring of recent structured events behind /v1/debug/events.
        self._profiles = ProfileSessions()
        self._events_handler = (
            install_event_buffer(self.obs.events_buffer)
            if self.obs.events_buffer > 0
            else None
        )

    # ------------------------------------------------------------ lifecycle

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """True once shutdown began (mirrored by ``/healthz`` as
        ``"status": "draining"`` — worker heartbeats forward it)."""
        return self.drain.draining

    def start(self, wait_ready: bool = True, timeout: float = 30.0):
        """Serve in a background thread (idempotent); returns ``self``.

        A fresh serve thread also launches what the subclass runs behind
        the listener (the router's fleet, whose workers register through
        it); ``wait_ready`` then blocks up to ``timeout`` seconds until
        that is ready.  A start that raises shuts the service down first,
        so nothing it launched outlives it.
        """
        try:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    name=self.thread_name,
                    daemon=True,
                )
                self._thread.start()
                self._launch()
            if wait_ready:
                self._wait_ready(timeout)
        except BaseException:
            self.shutdown()
            raise
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` or ``KeyboardInterrupt`` (the CLI
        path): the serve loop runs on the background thread and this parks
        the caller."""
        thread = self.start(wait_ready=False)._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=1.0)

    def shutdown(self) -> None:
        """Stop serving and close everything behind the listener
        (idempotent).

        In-flight requests finish first: ``ThreadingHTTPServer`` uses
        daemonic handler threads that ``server_close()`` does *not* join,
        so a drain barrier waits for every request already inside a
        handler (including those parked on coalescer futures) before the
        subclass closes its resources, then the listener closes.
        """
        self._teardown(drain=True)

    def abort(self) -> None:
        """Tear down *without* draining (crash simulation).

        The same teardown as :meth:`shutdown` minus the drain barrier:
        requests still inside a handler are abandoned, the closest an
        in-process worker gets to ``kill -9``.  Ledgers fsync per admitted
        charge, so the durable state an abort leaves behind is what a real
        crash would: every admitted charge present, nothing else.
        """
        self._teardown(drain=False)

    def _teardown(self, drain: bool) -> None:
        # BaseServer.shutdown() blocks on serve_forever's exit event, which
        # only a *running* serve loop ever sets — skip it for a service
        # that was constructed (or already stopped) but never (re)started.
        if self._thread is not None and self._thread.is_alive():
            self._httpd.shutdown()
        # Disarm BEFORE the drain barrier waits: an in-flight profile
        # session would otherwise park its handler inside the drain window
        # for up to MAX_SECONDS and stall (then time out) the drain.
        self._profiles.disarm()
        if drain:
            self.drain.drain()
        self._close()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        # Detach the event ring so long-lived processes creating many
        # services don't leak handlers on the logger tree.
        if self._events_handler is not None:
            uninstall_event_buffer(self._events_handler)
            self._events_handler = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _count(self, status: int) -> None:
        self._responses.inc(labels=(f"{status // 100}xx",))

    def trace_for(self, headers: Mapping[str, str]) -> Optional[Trace]:
        """The trace context for one incoming request: adopt the
        ``X-PCOR-Trace`` header (router-minted) or mint fresh at this
        edge; ``None`` when tracing is disabled."""
        return trace_for_request(headers.get(TRACE_HEADER), self.obs)

    # ---------------------------------------------------------------- hooks

    def _health_fields(self) -> Dict[str, Any]:
        """The tier's own ``/healthz`` fields, after ``version``."""
        return {}

    def _launch(self) -> None:
        """Start what runs behind the listener, once it accepts."""

    def _wait_ready(self, timeout: float) -> None:
        """Block until what :meth:`_launch` started can serve."""

    def _close(self) -> None:
        """Close the tier's resources, after the drain and before the
        listener closes."""

    # ------------------------------------------------------------ endpoints

    def health(self) -> Dict[str, Any]:
        """Liveness + drain status.  Unlike every other route this is
        answered even mid-shutdown: the router heartbeat (and any
        orchestrator probe) distinguishes a *draining* process — stop
        routing to it, don't respawn it — from a dead one."""
        return {
            "status": "draining" if self.drain.draining else "ok",
            "version": __version__,
            **self._health_fields(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "rss_bytes": process_rss_bytes(),
            "observability": {
                "enabled": self.obs.enabled,
                "sample_rate": self.obs.sample_rate,
                "slow_request_ms": self.obs.slow_request_ms,
                "log_format": self.obs.log_format,
            },
        }

    def debug_profile(
        self, seconds: Optional[float] = None, hz: Optional[float] = None
    ) -> Dict[str, Any]:
        """Sample this process for ``seconds`` and return folded stacks.

        Blocks the calling handler thread for the sampling window (the
        service keeps serving on its other threads).  A shutdown arriving
        mid-session disarms it: the session returns early with whatever
        samples it gathered, flagged ``"disarmed": true``, and later
        attempts get the same typed 503 + ``Retry-After`` as any other
        drain-refused request.
        """
        try:
            return self._profiles.run(seconds=seconds, hz=hz)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        except ProfilerDisarmed as exc:
            raise _Draining(str(exc)) from None

    def debug_events(self, n: Optional[int] = None) -> Dict[str, Any]:
        """The last ``n`` structured events from this process's ring."""
        if self._events_handler is None:
            raise ServerError(
                "event ring is disabled (observability events_buffer = 0)"
            )
        return self._events_handler.buffer.snapshot(n)
