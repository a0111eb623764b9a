"""Trace contexts: per-request ids and span timelines for the serving stack.

A :class:`Trace` is minted once at the edge (router or server), carried
through every layer of a release — HTTP handler, coalescer flush, engine
execution, runtime backend (including subprocess workers) — and records
a flat list of spans against one shared clock origin.

Propagation is explicit, not ambient: threads don't inherit
``contextvars`` through ``ThreadPoolExecutor``, so the trace rides on
the :class:`~repro.service.engine.ReleaseRequest` itself and crosses the
router→worker HTTP hop in the ``X-PCOR-Trace`` header
(``<trace_id>;t0=<monotonic>;s=<0|1>``).

``t0`` is a ``time.monotonic()`` origin captured when the trace is
minted.  ``CLOCK_MONOTONIC`` is system-wide uniform on Linux, so worker
subprocesses handed the same ``t0`` produce span offsets on the same
timeline as the parent — no cross-process clock stitching.

Unsampled traces keep their id (logs can still correlate) but record no
spans.

:class:`span` is the one timing primitive of the serving stack: it reads
``time.monotonic()`` on entry and exit, records into a sampled trace,
names the thread's phase for a live :mod:`~repro.obs.profiler` session,
and leaves its ``elapsed`` seconds for the caller's own counters.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs import profiler

TRACE_HEADER = "X-PCOR-Trace"

_HEX = set("0123456789abcdef")


class Trace:
    """One request's trace: an id, a clock origin, and a span timeline."""

    __slots__ = ("trace_id", "sampled", "t0", "_spans", "_lock")

    def __init__(
        self, trace_id: str, sampled: bool = True, t0: Optional[float] = None
    ):
        self.trace_id = trace_id
        self.sampled = bool(sampled)
        self.t0 = time.monotonic() if t0 is None else float(t0)
        self._spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    @classmethod
    def mint(cls, sampled: bool = True) -> "Trace":
        return cls(os.urandom(8).hex(), sampled=sampled)

    def add_span(
        self, name: str, started_at: float, ended_at: float, **attrs: Any
    ) -> None:
        """Record one span from monotonic timestamps (no-op when unsampled)."""
        if not self.sampled:
            return
        span: Dict[str, Any] = {
            "name": name,
            "start_ms": round((started_at - self.t0) * 1000.0, 3),
            "duration_ms": round((ended_at - started_at) * 1000.0, 3),
        }
        if attrs:
            span.update(attrs)
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: Optional[Iterable[Dict[str, Any]]]) -> None:
        """Graft spans recorded elsewhere (e.g. in a subprocess worker)."""
        spans = list(spans or ())
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)

    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "spans": sorted(
                self.spans(), key=lambda s: (s["start_ms"], s["name"])
            ),
        }

    # ------------------------------------------------------------------
    # header codec (router -> worker propagation)
    # ------------------------------------------------------------------
    def header_value(self) -> str:
        return f"{self.trace_id};t0={self.t0!r};s={1 if self.sampled else 0}"

    @classmethod
    def from_header(cls, value: str) -> Optional["Trace"]:
        """Parse an ``X-PCOR-Trace`` value; ``None`` if malformed."""
        parts = [p.strip() for p in value.split(";")]
        trace_id = parts[0]
        if not trace_id or len(trace_id) > 64 or not set(trace_id) <= _HEX:
            return None
        t0: Optional[float] = None
        sampled = True
        for part in parts[1:]:
            key, _, raw = part.partition("=")
            if key == "t0":
                try:
                    t0 = float(raw)
                except ValueError:
                    return None
            elif key == "s":
                sampled = raw != "0"
        return cls(trace_id, sampled=sampled, t0=t0)


class span:
    """Time a block: ``with span("engine.sample", trace, k=1) as s: ...``.

    On exit, also when the block raises, ``elapsed`` holds the block's
    wall-clock seconds and a sampled ``trace`` records the span with
    ``attrs``, which the block may still change.  While a profiler session
    is live, the thread's phase is ``name`` inside the block and the outer
    phase again after it.  Idle, with no trace and no session, a span
    costs two clock reads and one global read.
    """

    __slots__ = ("name", "trace", "attrs", "started", "elapsed", "_marked")

    def __init__(self, name: str, trace: Optional[Trace] = None, **attrs: Any):
        self.name = name
        self.trace = trace
        self.attrs = attrs
        self.elapsed = 0.0
        self._marked = None  # (thread ident, outer phase) once marked

    def __enter__(self) -> "span":
        if profiler._active_sessions > 0:
            ident = threading.get_ident()
            phases = profiler._engine_phases
            self._marked = (ident, phases.get(ident))
            phases[ident] = self.name
        self.started = time.monotonic()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        ended = time.monotonic()
        self.elapsed = ended - self.started
        if self._marked is not None:
            ident, outer = self._marked
            if outer is None:
                profiler._engine_phases.pop(ident, None)
            else:
                profiler._engine_phases[ident] = outer
        trace = self.trace
        if trace is not None and trace.sampled:
            trace.add_span(self.name, self.started, ended, **self.attrs)


def sampled_for(trace_id: str, rate: float) -> bool:
    """Deterministic-by-id sampling decision: same id, same verdict on
    every host — a trace is either followed everywhere or nowhere."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return int(trace_id[:8], 16) / 0xFFFFFFFF < rate


def trace_for_request(header_value: Optional[str], obs) -> Optional[Trace]:
    """The trace for an incoming request, or ``None`` when tracing is off.

    An incoming ``X-PCOR-Trace`` header is adopted verbatim — its
    sampling flag wins, because the minting edge already rolled the
    dice.  Otherwise a fresh trace is minted with a deterministic-by-id
    decision against ``obs.sample_rate``.
    """
    if obs is None or not obs.enabled:
        return None
    if header_value:
        trace = Trace.from_header(header_value)
        if trace is not None:
            return trace
    trace = Trace.mint()
    trace.sampled = sampled_for(trace.trace_id, obs.sample_rate)
    return trace


def process_rss_bytes() -> Optional[int]:
    """Resident set size of this process, or ``None`` if unreadable.

    Reads ``/proc/self/status`` (Linux); falls back to the peak-RSS
    rusage counter elsewhere.  No third-party process libraries.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without rusage
        return None
