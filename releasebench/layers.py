"""Per-layer span accounting for the traced round.

The wrappers are installed from outside the program, in the
system-under-test process, before it builds anything; no code under
``src/`` knows about them.  Each wraps one public entry point of a layer
and records, per layer, the number of calls and the self time: a span's
wall-clock duration minus the time its child spans cover.  A call into a
layer from inside the same layer is not a new span, so
``admit -> admit_many`` counts once.  Layer names are module names under
``repro``.

Names are wrapped where callers look them up (``find_starting_context`` in
the engine module, ``log_event`` in each server module) and methods on the
class that defines them (``scores`` and ``outlier_positions`` live on base
classes).  ``ProfileStore.get`` is never wrapped: a warm release calls it
thousands of times, so its counters are read instead.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

#: Every layer that gets spans, in report order.
LAYERS = (
    "outliers",
    "data.masks",
    "core.verification",
    "core.profiles",
    "core.utility",
    "core.sampling",
    "mechanisms.exponential",
    "core.starting",
    "service.engine",
    "server.http",
    "server.app",
    "server.tenants",
    "server.ledger",
    "server.batching",
    "obs",
)


class LayerClock:
    """Span totals per layer, one span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Seconds spent in the ledger-replaying constructors (set-up, so
        #: kept apart from the timed-phase totals that :meth:`reset` clears).
        self.replay_s = 0.0
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Dict[str, int] = defaultdict(int)
            self.self_s: Dict[str, float] = defaultdict(float)
            self.counts: Dict[str, float] = defaultdict(float)

    def report(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
            }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        layer: str,
        fn: Callable,
        counter: Optional[str] = None,
        size: Optional[Callable] = None,
        total: Optional[str] = None,
    ) -> Callable:
        """``fn`` as a span of ``layer``.

        ``counter`` is incremented by ``size(args)`` (default 1) on every
        call; ``total`` accumulates the span's full duration.
        """
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                clock.count(counter, size(args) if size is not None else 1)
            stack = clock._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            # [layer, time covered by child spans]
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with clock._lock:
                    clock.calls[layer] += 1
                    clock.self_s[layer] += elapsed - frame[1]
                    if total is not None:
                        clock.counts[total] += elapsed
        return wrapper

    def waited(self, layer: str, elapsed: float, own: float) -> None:
        """A wait of ``elapsed`` seconds inside the current span, of which
        only ``own`` belongs to ``layer``; the rest is covered by spans on
        another thread."""
        stack = self._stack()
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            self.self_s[layer] += own


def install(clock: LayerClock) -> None:
    """Wrap every layer's entry points; call before anything is built."""
    from repro.core.profiles import ProfileStore
    from repro.core.sampling.bfs import BFSSampler
    from repro.core.utility import UtilityFunction
    from repro.core.verification import OutlierVerifier
    from repro.data.masks import PredicateMaskIndex
    from repro.mechanisms.exponential import ExponentialMechanism
    from repro.obs.trace import Trace
    from repro.outliers.base import OutlierDetector
    from repro.server import app, batching, http, ledger, tenants
    from repro.service import engine

    def patch(owner, name: str, layer: str, **kwargs) -> None:
        setattr(owner, name, clock.wrap(layer, getattr(owner, name), **kwargs))

    def batch_size(args) -> int:
        return len(args[1])

    patch(OutlierDetector, "outlier_positions", "outliers",
          counter="outliers.records_scanned", size=batch_size)
    patch(PredicateMaskIndex, "population_masks", "data.masks",
          counter="data.masks.population_evals", size=batch_size)
    patch(PredicateMaskIndex, "positions_from_packed", "data.masks")
    for name in ("prepare_append", "commit_append"):
        patch(PredicateMaskIndex, name, "data.masks", total="data.masks.append_s")
    patch(OutlierVerifier, "profiles", "core.verification")
    patch(OutlierVerifier, "is_matching_many", "core.verification",
          counter="core.verification.fm_queries", size=batch_size)
    patch(OutlierVerifier, "is_matching", "core.verification",
          counter="core.verification.fm_queries")
    patch(OutlierVerifier, "context_profile", "core.verification")
    patch(ProfileStore, "invalidate_matching", "core.profiles",
          total="core.profiles.invalidate_s")
    patch(UtilityFunction, "scores", "core.utility")
    patch(BFSSampler, "sample", "core.sampling")
    patch(ExponentialMechanism, "select", "mechanisms.exponential")
    patch(engine, "find_starting_context", "core.starting")
    for name in ("submit", "execute", "execute_many", "append"):
        patch(engine.ReleaseEngine, name, "service.engine")
    for name in ("release", "append"):
        patch(app.PCORServer, name, "server.app")
    for name in ("admit", "admit_many"):
        patch(tenants.TenantBudgets, name, "server.tenants")
    patch(ledger.JsonlLedgerStore, "append_many", "server.ledger",
          counter="server.ledger.records", size=batch_size)
    for module in (app, batching, http):
        patch(module, "log_event", "obs")
    patch(Trace, "add_span", "obs")

    for cls in (ledger.JsonlLedgerStore, tenants.TenantBudgets):
        cls.__init__ = _timed_init(clock, cls.__init__)

    # The HTTP span also feeds the transport figure: client round trip
    # minus the time the server spent inside do_POST.
    do_post = clock.wrap("server.http", http.JsonRequestHandler.do_POST)

    @functools.wraps(do_post)
    def timed_do_post(handler):
        start = time.perf_counter()
        try:
            return do_post(handler)
        finally:
            if handler.path.endswith("/release"):
                clock.count("server.http.release_s", time.perf_counter() - start)

    http.JsonRequestHandler.do_POST = timed_do_post

    # The coalescer: a handler thread parks on a future while the flusher
    # thread admits and executes its batch.  The wait counts as
    # server.batching only until the flush starts; the flush itself is
    # covered by the flusher thread's own spans.
    submit = batching.ReleaseCoalescer.submit
    flush = batching.ReleaseCoalescer._flush

    def traced_submit(coalescer, tenant, label, request):
        future = submit(coalescer, tenant, label, request)
        wait = future.result

        def result(timeout=None):
            start = time.perf_counter()
            try:
                return wait(timeout)
            finally:
                end = time.perf_counter()
                flushed = getattr(future, "flush_started", end)
                clock.waited(
                    "server.batching", end - start, max(0.0, min(end, flushed) - start)
                )

        future.result = result
        return future

    def traced_flush(coalescer, batch):
        started = time.perf_counter()
        for item in batch:
            item.future.flush_started = started
        return flush(coalescer, batch)

    batching.ReleaseCoalescer.submit = clock.wrap("server.batching", traced_submit)
    batching.ReleaseCoalescer._flush = clock.wrap("server.batching", traced_flush)


def _timed_init(clock: LayerClock, init: Callable) -> Callable:
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            init(self, *args, **kwargs)
        finally:
            clock.replay_s += time.perf_counter() - start
    return wrapper
