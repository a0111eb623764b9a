"""Observability for the PCOR serving stack — zero dependencies.

Three primitives, wired through every layer (engine, runtime backends,
HTTP server + coalescer, sharded router/fleet):

* :mod:`repro.obs.trace` — per-request trace contexts with span
  timelines, propagated via the ``X-PCOR-Trace`` header and the release
  request itself (including into subprocess workers), and
  :class:`~repro.obs.trace.span`, the one timing primitive: a timed block
  that feeds a trace, the profiler's phase frame and its caller's
  counters.
* :mod:`repro.obs.metrics` — lock-cheap counters/gauges/histograms and
  the Prometheus text exposition; :mod:`repro.obs.export` maps the
  byte-compatible ``/v1/metrics`` JSON into labelled families through
  one table (``DATASET_METRICS``) and merges worker expositions at the
  router.
* :mod:`repro.obs.logs` — structured event logging (JSON or text lines)
  behind ``pcor serve --log-format``.

Two debug-introspection primitives ride on top of them:

* :mod:`repro.obs.profiler` — a sampling wall-clock profiler producing
  collapsed-stack ("folded flamegraph") output with span-phase frame
  annotations, behind ``GET /v1/debug/profile``.
* :mod:`repro.obs.events` — a bounded ring of recent structured events
  tee'd off :func:`log_event`, behind ``GET /v1/debug/events``.

Configured through the ``[observability]`` section of the server config
(:class:`repro.server.ObservabilityConfig`).
"""

from repro.obs.logs import (
    REQUIRED_KEYS,
    JsonEventFormatter,
    TextEventFormatter,
    configure_logging,
    log_event,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    render_text,
)
from repro.obs.export import (
    DATASET_METRICS,
    dataset_families,
    merge_expositions,
    merged_exposition,
    validate_exposition,
)
from repro.obs.events import (
    EventBuffer,
    EventBufferHandler,
    install_event_buffer,
    uninstall_event_buffer,
)
from repro.obs.profiler import (
    ProfileSessions,
    ProfilerDisarmed,
    SamplingProfiler,
    collect_profile,
    merge_folded,
    profiler_supported,
    profiling_active,
    render_folded,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Trace,
    process_rss_bytes,
    sampled_for,
    span,
    trace_for_request,
)

__all__ = [
    "TRACE_HEADER",
    "Trace",
    "span",
    "trace_for_request",
    "sampled_for",
    "process_rss_bytes",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "DEFAULT_LATENCY_BUCKETS",
    "render_text",
    "DATASET_METRICS",
    "dataset_families",
    "merge_expositions",
    "merged_exposition",
    "validate_exposition",
    "EventBuffer",
    "EventBufferHandler",
    "install_event_buffer",
    "uninstall_event_buffer",
    "ProfileSessions",
    "ProfilerDisarmed",
    "SamplingProfiler",
    "collect_profile",
    "merge_folded",
    "profiler_supported",
    "profiling_active",
    "render_folded",
    "configure_logging",
    "log_event",
    "JsonEventFormatter",
    "TextEventFormatter",
    "REQUIRED_KEYS",
]
