"""Lock-cheap metrics primitives + Prometheus text exposition (0.0.4).

Zero dependencies: counters, gauges, and fixed-bucket histograms with
optional label dimensions, registered in a :class:`MetricsRegistry` and
rendered in the Prometheus text exposition format.  Each metric guards
its children with one ``threading.Lock`` — an increment is a dict lookup
plus a float add under an uncontended lock, cheap enough for the serving
hot path (gated by ``benchmarks/bench_obs_overhead.py``).

The JSON bodies served by ``/v1/metrics`` stay byte-compatible: metrics
that back them expose ``items()`` snapshots so the legacy dict shapes
are derived views over the registry, not a second set of counters.

:class:`MetricFamily` is the neutral rendering unit — the registry
collects into families, and scrape-time derived metrics (per-dataset
engine counters, per-tenant spend) are built as families directly by
:mod:`repro.obs.export`, one per row of its ``DATASET_METRICS`` table,
without needing registry objects.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The Content-Type of the text exposition (served by
#: ``GET /v1/metrics/prometheus``).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Fixed latency buckets (seconds) — sub-ms to 10 s, Prometheus-style.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")

LabelValues = Tuple[str, ...]


@dataclass
class MetricFamily:
    """One exposition family: header lines plus flat samples.

    ``samples`` rows are ``(suffix, labels, value)`` — suffix is ``""``
    for plain samples and ``"_bucket"``/``"_sum"``/``"_count"`` for
    histogram series.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: List[Tuple[str, Dict[str, str], float]] = field(default_factory=list)


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_text(families: Iterable[MetricFamily]) -> str:
    """Render families in the Prometheus text format (one family block
    per metric name: ``# HELP``, ``# TYPE``, then the samples)."""
    lines: List[str] = []
    for fam in families:
        if not fam.samples:
            continue
        lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for suffix, labels, value in fam.samples:
            lines.append(
                f"{fam.name}{suffix}{_labels_text(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


class _Metric:
    """Base: a named family with label-tuple-keyed children."""

    kind = ""

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: LabelValues) -> LabelValues:
        labels = tuple(str(v) for v in labels)
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} label "
                f"value(s), got {len(labels)}"
            )
        return labels

    def _labels_dict(self, key: LabelValues) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """Monotonically non-decreasing count (resets only on restart)."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._children: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, labels: LabelValues = ()) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, labels: LabelValues = ()) -> float:
        key = self._key(labels)
        with self._lock:
            return self._children.get(key, 0.0)

    def items(self) -> List[Tuple[LabelValues, float]]:
        with self._lock:
            return sorted(self._children.items())

    def family(self) -> MetricFamily:
        return MetricFamily(
            self.name,
            self.kind,
            self.help,
            [("", self._labels_dict(k), v) for k, v in self.items()],
        )


class Gauge(_Metric):
    """A value that can go up and down (queue depth, budget remaining)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._children: Dict[LabelValues, float] = {}

    def set(self, value: float, labels: LabelValues = ()) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, labels: LabelValues = ()) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, labels: LabelValues = ()) -> float:
        key = self._key(labels)
        with self._lock:
            return self._children.get(key, 0.0)

    def items(self) -> List[Tuple[LabelValues, float]]:
        with self._lock:
            return sorted(self._children.items())

    def family(self) -> MetricFamily:
        return MetricFamily(
            self.name,
            self.kind,
            self.help,
            [("", self._labels_dict(k), v) for k, v in self.items()],
        )


class Histogram(_Metric):
    """Fixed-bucket histogram: per-bucket counts, sum, and count.

    Buckets are upper bounds in ascending order (``le`` semantics,
    inclusive); a final ``+Inf`` bucket is implicit.  Observation is a
    ``bisect`` plus two float adds under the metric lock.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be ascending and unique")
        self.buckets = bounds
        # child: [per-bucket counts (len(bounds)+1, last is +Inf), sum]
        self._children: Dict[LabelValues, List] = {}

    def observe(self, value: float, labels: LabelValues = ()) -> None:
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = [[0] * (len(self.buckets) + 1), 0.0]
                self._children[key] = child
            child[0][idx] += 1
            child[1] += value

    def snapshot(
        self, labels: LabelValues = ()
    ) -> Optional[Tuple[List[int], float, int]]:
        """``(per_bucket_counts, sum, count)`` or ``None`` if unobserved."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return None
            return list(child[0]), child[1], sum(child[0])

    def family(self) -> MetricFamily:
        with self._lock:
            children = {k: (list(v[0]), v[1]) for k, v in self._children.items()}
        samples: List[Tuple[str, Dict[str, str], float]] = []
        for key in sorted(children):
            counts, total = children[key]
            labels = self._labels_dict(key)
            cumulative = 0
            for bound, count in zip(self.buckets + (_INF,), counts):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(bound)
                samples.append(("_bucket", bucket_labels, float(cumulative)))
            samples.append(("_sum", labels, total))
            samples.append(("_count", dict(labels), float(cumulative)))
        return MetricFamily(self.name, self.kind, self.help, samples)


class MetricsRegistry:
    """Get-or-create registry of named metrics, rendered in one scrape."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labelnames=labelnames, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls) or metric.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    "type or label set"
                )
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._get(Histogram, name, help, labelnames, buckets=buckets)

    def collect(self) -> List[MetricFamily]:
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [m.family() for m in metrics]

    def render(self) -> str:
        return render_text(self.collect())
