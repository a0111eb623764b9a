"""The coalescing admission front end: batch concurrent releases.

PCOR's serving cost is dominated by detector (``f_M``) runs, which a batch
can spread over a :mod:`repro.runtime` backend's workers:
``submit_many``/``execute_many`` fan a batch's whole releases out, or run
them as a plain loop of lone releases on the serial backend.  But an HTTP
server that answers every request synchronously on its own handler thread
never *has* a batch: thirty-two concurrent single-record analysts are
thirty-two lonely ``execute`` calls racing one admission lock and one
fsync each.

:class:`ReleaseCoalescer` sits between the handlers and one dataset's
engine and manufactures the batch:

* handler threads :meth:`submit` validated ``(tenant, request)`` pairs and
  block on a per-request :class:`~concurrent.futures.Future`;
* one dedicated flusher thread per dataset collects whatever has
  accumulated — bounded by ``max_batch`` requests and a ``max_delay``
  linger after the first arrival (both config-driven via
  :class:`~repro.server.config.DatasetConfig`);
* each flush admits tenant + global budgets for the whole batch through
  one :meth:`TenantBudgets.admit_many <repro.server.tenants.TenantBudgets.admit_many>`
  call — per-request all-or-nothing, so one exhausted tenant gets its 402
  while the strangers batched alongside it proceed, and the admitted
  charges hit the WAL in one group-commit fsync;
* the admitted set executes through one
  :meth:`ReleaseEngine.execute_many <repro.service.engine.ReleaseEngine.execute_many>`
  call, which reports each request's outcome as soon as its release
  finishes; that request's future is completed right then — with the
  result, or the exception the direct path would have raised — while the
  rest of the flush runs on.  Request order is only the order
  ``execute_many`` returns, which the flush does not wait for.

**Latency.**  A coalesced request waits for its own release and the ones
ahead of it in its flush, not the ones behind it: on the serial backend
the flush's first request is answered when its own release ends, and on
the process backend each request is answered as its worker returns it.

**Grouping independence.**  ``execute_many`` plans one independent RNG
substream per request from the request seeds, so *where the flush
boundaries fall can never change a release*: a request coalesced into a
batch of 1, of ``k``, or of ``max_batch`` releases the bit-identical
context a lone ``engine.submit`` with the same seed would.  Batching is a
pure throughput lever; it is invisible in the results.

**Privacy semantics are unchanged.**  Admission still happens through the
same two-ledger :class:`~repro.server.tenants.TenantBudgets` path, charge
by charge, before any detector runs; coalescing only moves *when* the lock
is taken and the fsync happens.  The parallel-composition caveat of
``release_many`` extends to coalesced batches: requests in one flush are
accounted sequentially, exactly as if they had arrived one by one.

Shutdown drains: :meth:`close` flushes everything queued before returning,
so no future is ever left pending, and a :meth:`submit` that races
shutdown raises :class:`CoalescerClosed` — the server falls back to the
direct admit-then-execute path.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.exceptions import ReproError, ServerError
from repro.obs.logs import log_event
from repro.server.tenants import TenantBudgets
from repro.service.engine import ReleaseEngine, ReleaseRequest

logger = logging.getLogger("repro.server")

#: Flush sizes kept for the ``batch_size_p50`` metric (a recent window, so
#: the median tracks current traffic instead of averaging over the epoch).
SIZE_WINDOW = 1024


class CoalescerClosed(ServerError):
    """Raised by :meth:`ReleaseCoalescer.submit` once the coalescer is
    closed; callers should fall back to the direct release path."""


@dataclass
class _Pending:
    """One queued release: who asked, what they asked, where to answer."""

    tenant: str
    label: str
    request: ReleaseRequest
    future: Future
    enqueued_at: float


class ReleaseCoalescer:
    """Per-dataset request coalescer between HTTP handlers and the engine.

    Parameters
    ----------
    tenants:
        The dataset's two-ledger admission manager; every queued request is
        admitted through :meth:`TenantBudgets.admit_many` at flush time.
    engine_for:
        Zero-argument callable returning the dataset's
        :class:`~repro.service.engine.ReleaseEngine`.  Called on the first
        flush that admits anything — so a coalescing dataset still builds
        lazily, and a server hosting twenty of them still starts instantly.
    max_batch:
        Most requests one flush may carry (>= 1).
    max_delay_ms:
        Linger: after the first request of a flush arrives, the flusher
        waits up to this long for the batch to fill before executing.
        ``0`` flushes whatever a single dequeue finds (pure opportunistic
        batching, no added latency).
    name:
        Dataset name, for thread names and log lines.
    autostart:
        Spawn the flusher thread on first :meth:`submit` (the default).
        Tests pass ``False`` and drive :meth:`flush_now` directly to pin
        exact flush groupings.
    """

    def __init__(
        self,
        tenants: TenantBudgets,
        engine_for: Callable[[], ReleaseEngine],
        max_batch: int,
        max_delay_ms: float = 2.0,
        name: str = "dataset",
        autostart: bool = True,
    ) -> None:
        if int(max_batch) < 1:
            raise ServerError(f"max_batch must be >= 1, got {max_batch}")
        if not (0.0 <= float(max_delay_ms) <= 10_000.0):
            raise ServerError(
                f"max_delay_ms must be in [0, 10000], got {max_delay_ms}"
            )
        self.tenants = tenants
        self.engine_for = engine_for
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1000.0
        self.name = str(name)
        self.autostart = bool(autostart)
        self._cond = threading.Condition()
        self._queue: Deque[_Pending] = deque()
        self._thread: Optional[threading.Thread] = None
        self._closing = False
        # Metrics (all guarded by self._cond).
        self._flushes = 0
        self._flushed_requests = 0
        self._queue_wait_s = 0.0
        self._sizes: Deque[int] = deque(maxlen=SIZE_WINDOW)
        self._size_min: Optional[int] = None
        self._size_max: Optional[int] = None

    # ------------------------------------------------------------ enqueue

    def submit(self, tenant: str, label: str, request: ReleaseRequest) -> Future:
        """Queue one validated release; returns the future its handler
        thread should block on.

        The future resolves to the :class:`~repro.core.result.PCORResult`,
        or raises exactly what the direct path would have raised — a
        :class:`~repro.exceptions.PrivacyBudgetError` from admission, a
        :class:`~repro.exceptions.ReproError` from the release itself.

        Raises :class:`CoalescerClosed` (without queueing) once
        :meth:`close` has begun: nothing submitted after that point could
        be guaranteed a flush.
        """
        future: Future = Future()
        item = _Pending(
            tenant=str(tenant),
            label=str(label),
            request=request,
            future=future,
            enqueued_at=time.monotonic(),
        )
        with self._cond:
            if self._closing:
                raise CoalescerClosed(
                    f"coalescer for dataset {self.name!r} is shutting down"
                )
            self._queue.append(item)
            self._cond.notify_all()
            if self.autostart and (self._thread is None or not self._thread.is_alive()):
                self._thread = threading.Thread(
                    target=self._run,
                    name=f"pcor-coalescer-{self.name}",
                    daemon=True,
                )
                self._thread.start()
        return future

    # ------------------------------------------------------------- flusher

    def _run(self) -> None:
        """Flusher loop: collect, flush, repeat; drain fully on close."""
        while True:
            batch = self._collect()
            if batch is None:
                return
            try:
                self._flush(batch)
            except BaseException:  # noqa: BLE001 — the loop must survive
                # _flush already failed every future it was handed; this
                # catch only guards against bugs in the bookkeeping itself
                # so one poisoned batch cannot kill the flusher (stranding
                # every later request in the queue forever).
                logger.exception(
                    "coalescer flush for dataset %r failed", self.name
                )

    def _collect(self) -> Optional[List[_Pending]]:
        """Wait for work, linger for the batch to fill, pop one flush.

        Returns ``None`` when closing and the queue is fully drained.
        """
        with self._cond:
            while not self._queue and not self._closing:
                self._cond.wait()
            if not self._queue:
                return None  # closing, drained
            if (
                not self._closing
                and self.max_delay_s > 0
                and len(self._queue) < self.max_batch
            ):
                deadline = time.monotonic() + self.max_delay_s
                while len(self._queue) < self.max_batch and not self._closing:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            return self._pop_locked(self.max_batch)

    def _pop_locked(self, limit: int) -> List[_Pending]:
        n = min(limit, len(self._queue))
        batch = [self._queue.popleft() for _ in range(n)]
        now = time.monotonic()
        self._flushes += 1
        self._flushed_requests += n
        self._queue_wait_s += sum(now - item.enqueued_at for item in batch)
        self._sizes.append(n)
        self._size_min = n if self._size_min is None else min(self._size_min, n)
        self._size_max = n if self._size_max is None else max(self._size_max, n)
        return batch

    def _flush(self, batch: List[_Pending]) -> None:
        """Admit the batch (per-request all-or-nothing), execute the
        admitted set in one ``execute_many`` call, and complete each
        admitted request's future the moment ``execute_many`` reports its
        outcome, as it completes; request order is only the order
        ``execute_many`` returns, which the flush does not wait for.  If
        the pool fails mid-flush, the requests already answered keep their
        results (they were admitted and charged) and the rest get its
        error."""
        t_pop = time.monotonic()
        for item in batch:
            trace = item.request.trace
            if trace is not None:
                trace.add_span(
                    "queue.wait", item.enqueued_at, t_pop, dataset=self.name
                )
        try:
            errors = self.tenants.admit_many(
                [(item.tenant, item.label, item.request.spec.epsilon) for item in batch]
            )
            t_admit = time.monotonic()
            admitted: List[_Pending] = []
            for item, error in zip(batch, errors):
                if error is not None:
                    item.future.set_exception(error)
                else:
                    admitted.append(item)
                trace = item.request.trace
                if trace is not None:
                    # admit_many group-commits the WAL, so this span covers
                    # ledger admission *including* the fsync.
                    trace.add_span(
                        "admission",
                        t_pop,
                        t_admit,
                        batch=len(batch),
                        rejected=error is not None,
                    )
            if not admitted:
                self._log_flush(batch, 0, t_pop)
                return

            def answer(index: int, outcome) -> None:
                future = admitted[index].future
                if isinstance(outcome, ReproError):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)

            self.engine_for().execute_many(
                [item.request for item in admitted],
                return_exceptions=True,
                on_outcome=answer,
            )
            self._log_flush(batch, len(admitted), t_pop)
        except BaseException as exc:  # noqa: BLE001 — no future left pending
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            raise

    def _log_flush(self, batch: List[_Pending], admitted: int, started: float) -> None:
        if not logger.isEnabledFor(logging.INFO):
            return
        trace_ids = sorted(
            {
                item.request.trace.trace_id
                for item in batch
                if item.request.trace is not None
            }
        )
        log_event(
            logger,
            "flush",
            dataset=self.name,
            batch=len(batch),
            admitted=admitted,
            epsilon=round(
                sum(item.request.spec.epsilon for item in batch), 9
            ),
            duration_ms=round((time.monotonic() - started) * 1000.0, 3),
            trace_ids=trace_ids,
        )

    # ----------------------------------------------------------- test seam

    def flush_now(self, limit: Optional[int] = None) -> int:
        """Synchronously flush up to ``limit`` queued requests (all, when
        ``None``) on the calling thread; returns how many were flushed.

        The deterministic-grouping seam: tests construct the coalescer with
        ``autostart=False``, queue requests, and force flushes of exactly
        1, ``k`` or everything to prove grouping independence.
        """
        with self._cond:
            if not self._queue:
                return 0
            batch = self._pop_locked(
                len(self._queue) if limit is None else int(limit)
            )
        self._flush(batch)
        return len(batch)

    # ------------------------------------------------------------ shutdown

    def close(self, timeout: float = 30.0) -> None:
        """Drain the queue and stop the flusher (idempotent).

        Every request submitted before ``close`` began is flushed —
        admitted, executed, and its future completed — before this method
        returns; submissions racing the close raise
        :class:`CoalescerClosed` instead of queueing.  If the flusher
        thread fails to drain within ``timeout`` (or was never started),
        the remainder is flushed on the calling thread, so no future is
        ever left pending.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        # Whatever the flusher did not get to (never started, or timed
        # out): flush it here rather than strand the waiters.
        while self.flush_now(self.max_batch):
            pass

    def __enter__(self) -> "ReleaseCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- metrics

    def snapshot(self) -> Dict[str, Any]:
        """Batching counters for ``/v1/metrics`` (keys match the
        ``batch_*`` fields of
        :class:`~repro.service.engine.EngineMetrics`; same monotonicity
        contract)."""
        with self._cond:
            sizes = list(self._sizes)
            return {
                "batch_flushes": self._flushes,
                "batch_requests": self._flushed_requests,
                "batch_queue_depth": len(self._queue),
                "batch_queue_wait_s": self._queue_wait_s,
                "batch_size_min": self._size_min,
                "batch_size_p50": float(median(sizes)) if sizes else None,
                "batch_size_max": self._size_max,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._cond:
            depth = len(self._queue)
        return (
            f"ReleaseCoalescer(dataset={self.name!r}, max_batch={self.max_batch}, "
            f"max_delay_ms={self.max_delay_s * 1000:g}, queued={depth}, "
            f"flushes={self._flushes})"
        )
