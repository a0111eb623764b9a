"""A tiny stdlib client for the PCOR HTTP service.

:class:`PCORClient` speaks the ``/v1`` JSON API of
:class:`~repro.server.app.PCORServer` and resurrects the server's typed
error payloads as the original :mod:`repro.exceptions` classes — a 402
raises :class:`~repro.exceptions.PrivacyBudgetError` on the analyst's side
exactly as an in-process :meth:`ReleaseEngine.submit` would, so code moves
between the embedded and the served engine without changing its error
handling.

The client keeps one HTTP/1.1 keep-alive connection (with ``TCP_NODELAY``)
per instance and transparently reconnects if the server dropped it.  One
connection means one in-flight request: share a *server* between threads,
not a client — give each thread its own ``PCORClient``, or use
:meth:`PCORClient.release_many`, which fans a batch of releases out over
its own pool of keep-alive connections (and is what makes a coalescing
server see a batch at all).

>>> client = PCORClient("http://127.0.0.1:8320", tenant="alice")
>>> client.release("salary", record_id=17,
...                spec={"detector": "lof", "detector_kwargs": {"k": 10},
...                      "sampler": "bfs", "epsilon": 0.2}, seed=42)
... # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union
from urllib.parse import urlparse

import repro.exceptions as _exceptions
from repro.exceptions import ReproError, ServerError
from repro.server.app import TENANT_HEADER
from repro.service.spec import PipelineSpec


class PCORClient:
    """Analyst-side handle on one PCOR server.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8320"`` (trailing slash tolerated).
    tenant:
        Value of the ``X-PCOR-Tenant`` header sent with every request.
    timeout:
        Per-request socket timeout in seconds.
    retry_503:
        How many times an *idempotent GET* answered 503-with-``Retry-After``
        is retried after waiting (capped) for the advertised delay.  A
        sharded router 503s while a crashed worker respawns and during
        shutdown drain — both transient by design, so budget/metrics/
        dataset reads ride them out.  Release **POSTs are never blindly
        resent**, 503 or not: the server (or the worker behind a router)
        may have admitted — and fsync'd — the charge before the response
        was lost, and a blind retry would spend the analyst's epsilon
        twice.  Check ``/v1/budget`` before resubmitting a release.
    max_retry_after_s:
        Cap on each ``Retry-After`` wait (a server asking for a minute
        should not stall an interactive client that long).
    """

    def __init__(
        self,
        base_url: str,
        tenant: str = "default",
        timeout: float = 60.0,
        retry_503: int = 2,
        max_retry_after_s: float = 2.0,
    ) -> None:
        self.base_url = str(base_url).rstrip("/")
        self.tenant = str(tenant)
        self.timeout = float(timeout)
        self.retry_503 = max(0, int(retry_503))
        self.max_retry_after_s = float(max_retry_after_s)
        parsed = urlparse(self.base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServerError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------ endpoints

    def health(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request("GET", "/healthz", timeout=timeout)

    def healthz(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """The full ``/healthz`` body: status, version, hosted datasets,
        ``uptime_s``, ``rss_bytes``, and the active trace-sampling config
        under ``observability``.  Errors surface as their original typed
        exception classes exactly like every other endpoint (a *draining*
        server still answers 200 with ``"status": "draining"``; only an
        unreachable one raises :class:`~repro.exceptions.ServerError`)."""
        return self._request("GET", "/healthz", timeout=timeout)

    def prometheus_metrics(self, timeout: Optional[float] = None) -> str:
        """The Prometheus text exposition served by
        ``/v1/metrics/prometheus`` (raw text, not JSON)."""
        return self._request_text("GET", "/v1/metrics/prometheus", timeout=timeout)

    def datasets(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Hosted datasets with their global-budget summaries."""
        return self._request("GET", "/v1/datasets", timeout=timeout)["datasets"]

    def budget(
        self, dataset: Optional[str] = None, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """This tenant's budgets (one dataset, or all of them)."""
        path = "/v1/budget"
        if dataset is not None:
            path += f"?dataset={dataset}"
        return self._request("GET", path, timeout=timeout)

    def metrics(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics", timeout=timeout)

    def debug_profile(
        self,
        seconds: Optional[float] = None,
        hz: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Sample the server for ``seconds`` and return folded stacks.

        ``GET /v1/debug/profile`` — idempotent (sampling is read-only), so
        it inherits the transport-retry and 503/``Retry-After`` policies
        of every other GET.  The server blocks for the whole sampling
        window before responding; when ``timeout`` is not given, the
        socket timeout is widened to cover ``seconds`` so a long profile
        doesn't trip the client-wide default.  Against a router the
        profile covers the whole fleet (``router;``/``shard<N>;`` roots
        and a pre-rendered ``folded_text``).
        """
        params = []
        if seconds is not None:
            params.append(f"seconds={float(seconds):g}")
        if hz is not None:
            params.append(f"hz={float(hz):g}")
        path = "/v1/debug/profile" + ("?" + "&".join(params) if params else "")
        if timeout is None:
            timeout = self.timeout + (float(seconds) if seconds else 60.0)
        return self._request("GET", path, timeout=timeout)

    def debug_events(
        self, n: Optional[int] = None, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The server's last ``n`` structured events
        (``GET /v1/debug/events``; fleet-merged when aimed at a router).
        ``n`` is sent as given: the route checks it (finite, >= 0) and
        answers a bad value with :class:`SpecError`."""
        path = "/v1/debug/events" + (f"?n={n}" if n is not None else "")
        return self._request("GET", path, timeout=timeout)

    def release(
        self,
        dataset: str,
        record_id: int,
        spec: Union[PipelineSpec, Mapping[str, Any]],
        seed: Optional[int] = None,
        starting_context: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run one budgeted release; returns ``{"result": ..., "budget": ...}``.

        ``spec`` may be a :class:`PipelineSpec` (serialized via ``to_dict``)
        or an equivalent plain mapping.  Raises the same exception classes
        the embedded engine would — :class:`PrivacyBudgetError` once this
        tenant (or the dataset) is exhausted, :class:`SpecError` for a bad
        pipeline, and so on.  ``timeout`` overrides the client-level socket
        timeout for this one request — a release against a coalescing
        server parks in a queue before it executes, so an aggressive
        client-wide timeout can be relaxed exactly where it matters.
        """
        body = self._release_body(record_id, spec, seed, starting_context)
        return self._request(
            "POST", f"/v1/datasets/{dataset}/release", body, timeout=timeout
        )

    def append(
        self,
        dataset: str,
        records: Sequence[Mapping[str, Any]],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Append records to a served dataset; returns the append summary.

        The response carries the new ``dataset_version``, the fresh
        ``record_ids`` assigned to the appended rows, and how many cached
        profiles the append invalidated.  Like a release POST, an append is
        never blindly resent on a transport error — the server may have
        committed the append before the connection died, and replaying it
        would insert the records twice.  Check ``n_records`` (via a release
        response or a fresh append of nothing-new) before retrying.
        """
        body = {"records": [dict(r) for r in records]}
        return self._request(
            "POST", f"/v1/datasets/{dataset}/append", body, timeout=timeout
        )

    def release_many(
        self,
        dataset: str,
        records: Sequence[int],
        spec: Union[PipelineSpec, Mapping[str, Any]],
        seeds: Optional[Sequence[Optional[int]]] = None,
        concurrency: int = 8,
        timeout: Optional[float] = None,
        return_errors: bool = False,
    ) -> List[Any]:
        """Issue one release per record id, concurrently, in record order.

        One :class:`PCORClient` holds one keep-alive connection — one
        in-flight request.  This helper fans ``len(records)`` releases out
        over a pool of ``min(concurrency, len(records))`` pooled
        connections (same server, same tenant), which is what lets a
        coalescing server (``max_batch > 1``) actually see concurrent
        requests from a single analyst and batch them.

        Parameters
        ----------
        records:
            Record ids to release, one request each.
        spec:
            One pipeline spec shared by every request (serialized once).
        seeds:
            Optional per-record seeds (same length as ``records``).
            ``None`` entries — or omitting the argument — leave seeding to
            the server (fresh entropy per request).
        concurrency:
            Upper bound on pooled connections (and in-flight requests).
        timeout:
            Per-request socket timeout override for every request issued.
        return_errors:
            ``False`` (default): raise the first failure, in record order,
            after every request has settled — admitted charges are never
            silently abandoned mid-flight.  ``True``: failed requests
            yield their exception object in place of a response dict.

        Each release is still admitted and accounted individually by the
        server — sequential composition over the batch, exactly as if the
        requests had arrived one by one.
        """
        if isinstance(spec, PipelineSpec):
            spec = spec.to_dict()
        spec = dict(spec)
        if seeds is None:
            seeds = [None] * len(records)
        if len(seeds) != len(records):
            raise ServerError(
                f"seeds ({len(seeds)}) and records ({len(records)}) must "
                "have equal lengths"
            )
        if int(concurrency) < 1:
            raise ServerError(f"concurrency must be >= 1, got {concurrency}")
        if not records:
            return []
        n_workers = min(int(concurrency), len(records))
        pool: "queue.SimpleQueue[PCORClient]" = queue.SimpleQueue()
        clients = [
            PCORClient(
                self.base_url,
                tenant=self.tenant,
                timeout=self.timeout,
                retry_503=self.retry_503,
                max_retry_after_s=self.max_retry_after_s,
            )
            for _ in range(n_workers)
        ]
        for client in clients:
            pool.put(client)

        def one(record_id: int, seed: Optional[int]) -> Any:
            client = pool.get()
            try:
                return client.release(
                    dataset, record_id, spec, seed=seed, timeout=timeout
                )
            except Exception as exc:  # noqa: BLE001 — settled below, in order
                return exc
            finally:
                pool.put(client)

        try:
            with ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="pcor-client"
            ) as executor:
                outcomes = list(executor.map(one, records, seeds))
        finally:
            for client in clients:
                client.close()
        if not return_errors:
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        return outcomes

    @staticmethod
    def _release_body(
        record_id: int,
        spec: Union[PipelineSpec, Mapping[str, Any]],
        seed: Optional[int],
        starting_context: Optional[int],
    ) -> Dict[str, Any]:
        if isinstance(spec, PipelineSpec):
            spec = spec.to_dict()
        body: Dict[str, Any] = {"record_id": int(record_id), "spec": dict(spec)}
        if seed is not None:
            body["seed"] = int(seed)
        if starting_context is not None:
            body["starting_context"] = int(starting_context)
        return body

    # ------------------------------------------------------------ transport

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=timeout
        )
        try:
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ServerError(
                f"cannot reach {self.base_url}: {exc}"
            ) from None
        self._conn = conn
        return conn

    def _request_text(
        self, method: str, path: str, timeout: Optional[float] = None
    ) -> str:
        """A request whose success body is plain text, not JSON (the
        Prometheus exposition); errors still carry JSON typed payloads."""
        return self._request(method, path, timeout=timeout, parse_json=False)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
        parse_json: bool = True,
    ) -> Any:
        effective = self.timeout if timeout is None else float(timeout)
        data = None
        headers = {TENANT_HEADER: self.tenant, "Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # Two retry layers, both for *idempotent* GETs only.  Transport: a
        # keep-alive peer may have dropped an idle connection — reconnect
        # once.  Service: a 503 carrying Retry-After (router shard down,
        # shutdown drain) is transient by contract — wait (capped) and ask
        # again, up to retry_503 times.  A release POST is never resent on
        # either layer — the server may have admitted (and fsync'd) the
        # charge before the connection died or the 503 raced the drain,
        # and a blind retry would spend the analyst's epsilon twice.
        # Check /v1/budget before resubmitting a release.
        transport_retries = (0, 1) if method == "GET" else (0,)
        service_attempts = self.retry_503 if method == "GET" else 0
        while True:
            for attempt in transport_retries:
                conn = (
                    self._conn
                    if self._conn is not None
                    else self._connect(effective)
                )
                try:
                    # The keep-alive socket may carry an earlier request's
                    # timeout; pin this request's own before writing.
                    if conn.sock is not None:
                        conn.sock.settimeout(effective)
                    conn.request(method, path, body=data, headers=headers)
                    response = conn.getresponse()
                    status = response.status
                    retry_after = response.getheader("Retry-After")
                    raw = response.read()
                    break
                except (http.client.HTTPException, OSError) as exc:
                    self.close()
                    if attempt < transport_retries[-1]:
                        continue
                    raise ServerError(
                        f"cannot reach {self.base_url + path}: {exc}"
                    ) from None
            if status == 503 and service_attempts > 0 and retry_after:
                try:
                    delay = float(retry_after)
                except ValueError:
                    break  # HTTP-date form: not worth parsing, give up
                service_attempts -= 1
                time.sleep(max(0.0, min(delay, self.max_retry_after_s)))
                continue
            break
        if status >= 400:
            raise _error_from(status, raw)
        if not parse_json:
            return raw.decode("utf-8")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError:
            raise ServerError(
                f"{self.base_url + path} returned invalid JSON"
            ) from None
        if not isinstance(payload, dict):
            raise ServerError(
                f"{self.base_url + path} returned a non-object payload"
            )
        return payload

    def close(self) -> None:
        """Drop the keep-alive connection (reopened on next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "PCORClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PCORClient(base_url={self.base_url!r}, tenant={self.tenant!r})"


def _error_from(status: int, raw: bytes) -> ReproError:
    """Rebuild the server's typed error as its original exception class."""
    try:
        payload = json.loads(raw.decode("utf-8"))
        error = payload["error"]
        type_name = str(error["type"])
        message = str(error["message"])
    except Exception:  # noqa: BLE001 — not our JSON; fall back to HTTP text
        return ServerError(f"HTTP {status}: {raw[:200]!r}")
    cls = getattr(_exceptions, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ServerError(f"HTTP {status} [{type_name}]: {message}")
