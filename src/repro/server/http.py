"""Shared HTTP plumbing for the PCOR serving tier.

:class:`~repro.server.app.PCORServer` (one process hosting engines) and
:class:`~repro.cluster.router.PCORRouter` (a thin proxy in front of a
worker fleet) speak the same JSON dialect: typed error payloads
``{"error": {"type", "message", "status"}}``, tenant headers, buffered
NODELAY responses, and a graceful drain window on shutdown.  This module
is that dialect, factored out of the original ``app.py`` handler so both
tiers serve byte-identical envelopes:

* :class:`JsonRequestHandler` — the request-handler core.  Subclasses
  implement ``_route_get`` / ``_route_post``; everything else (body
  draining, tenant parsing, JSON responses, error mapping, the
  per-request drain window) is shared.
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
from urllib.parse import urlparse

from repro import __version__
from repro.obs.logs import log_event
from repro.exceptions import (
    PrivacyBudgetError,
    ReproError,
    ServerError,
    ShardUnavailableError,
    SpecError,
)

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

    All state lives on ``self.server.app`` — an object exposing ``drain``
    (a :class:`DrainState`) and ``_count(status)``.  Subclasses implement
    ``_route_get(raw)`` / ``_route_post(raw)`` and raise
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
        raise ServerError(f"no such route: GET {urlparse(self.path).path}")

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
