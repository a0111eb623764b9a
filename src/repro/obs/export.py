"""Prometheus export of the serving stack's metrics.

Two concerns live here:

* :func:`dataset_families` — map the (byte-compatible, JSON-first)
  ``/v1/metrics`` per-dataset bodies into ``pcor_*`` metric families
  with a ``dataset`` label.  This is a scrape-time derived view: the
  engine/coalescer keep their typed counters, and the exposition is
  computed from the same snapshot the JSON endpoint serves, so the hot
  path pays nothing for the second format.
* :func:`merge_expositions` — the router-side aggregation: take each
  live worker's exposition text verbatim, inject a ``shard`` label into
  every sample, and merge family blocks so each metric name appears
  exactly once (duplicate ``# TYPE`` lines are invalid exposition).

Naming follows Prometheus conventions: counters end in ``_total``,
durations are ``_seconds`` — which is where the JSON key
``batch_queue_wait_s`` gets its properly unit-suffixed exposition name
``pcor_batch_queue_wait_seconds_total``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from repro.obs.metrics import MetricFamily, render_text

# (json_key, exposition name, help) — counters: monotone within a server
# process, reset on restart.
_DATASET_COUNTERS = (
    ("requests_submitted", "pcor_requests_submitted_total",
     "Release requests accepted for execution."),
    ("releases_completed", "pcor_releases_completed_total",
     "Releases executed to completion."),
    ("requests_rejected", "pcor_requests_rejected_total",
     "Admissions rejected (budget exhausted or invalid)."),
    ("ledger_charges", "pcor_ledger_charges_total",
     "Epsilon charges appended to the privacy ledger."),
    ("epsilon_spent", "pcor_epsilon_spent_total",
     "Total privacy budget charged against the dataset."),
    ("profile_hits", "pcor_profile_hits_total",
     "Context-profile cache hits."),
    ("profile_misses", "pcor_profile_misses_total",
     "Context-profile cache misses."),
    ("profile_evictions", "pcor_profile_evictions_total",
     "Context-profile cache evictions."),
    ("fm_evaluations", "pcor_fm_evaluations_total",
     "Detector (f_M) evaluations performed."),
    ("fm_queries", "pcor_fm_queries_total",
     "f_M questions asked, cached or not."),
    ("release_tasks", "pcor_release_tasks_total",
     "Release tasks dispatched to the runtime backend."),
    ("profile_tasks", "pcor_profile_tasks_total",
     "Profile warm-up tasks dispatched to the runtime backend."),
    ("wall_time_s", "pcor_engine_wall_seconds_total",
     "Engine wall-clock seconds spent executing releases."),
    ("batch_flushes", "pcor_batch_flushes_total",
     "Coalescer batch flushes."),
    ("batch_requests", "pcor_batch_requests_total",
     "Requests that flowed through the coalescer."),
    ("batch_queue_wait_s", "pcor_batch_queue_wait_seconds_total",
     "Seconds requests spent queued in the coalescer before flush."),
    ("appends", "pcor_appends_total",
     "Live append operations committed against the dataset."),
    ("profiles_invalidated", "pcor_profiles_invalidated_total",
     "Cached context profiles dropped by targeted append invalidation."),
)

# Gauges: point-in-time values, free to move either way.
_DATASET_GAUGES = (
    ("epsilon_budget", "pcor_epsilon_budget",
     "Configured dataset-global privacy budget."),
    ("epsilon_remaining", "pcor_epsilon_remaining",
     "Privacy budget still unspent."),
    ("profiles_cached", "pcor_profiles_cached",
     "Context profiles currently cached."),
    ("n_verifiers", "pcor_verifiers",
     "Verifier instances alive for the dataset."),
    ("backend_workers", "pcor_backend_workers",
     "Workers attached to the runtime backend."),
    ("batch_queue_depth", "pcor_batch_queue_depth",
     "Requests currently queued in the coalescer."),
    ("batch_size_min", "pcor_batch_size_min",
     "Smallest flushed batch in the recent window."),
    ("batch_size_p50", "pcor_batch_size_p50",
     "Median flushed batch size in the recent window."),
    ("batch_size_max", "pcor_batch_size_max",
     "Largest flushed batch in the recent window."),
    ("dataset_version", "pcor_dataset_version",
     "Append counter of the served dataset (0 = as loaded)."),
)


def dataset_families(datasets: Dict[str, dict]) -> List[MetricFamily]:
    """``pcor_*`` families over the ``/v1/metrics`` ``datasets`` section."""
    families: List[MetricFamily] = []

    for json_key, name, help in _DATASET_COUNTERS:
        fam = MetricFamily(name, "counter", help)
        for dataset in sorted(datasets):
            body = datasets[dataset]
            if json_key in body and body[json_key] is not None:
                fam.samples.append(
                    ("", {"dataset": dataset}, float(body[json_key]))
                )
        if fam.samples:
            families.append(fam)

    for json_key, name, help in _DATASET_GAUGES:
        fam = MetricFamily(name, "gauge", help)
        for dataset in sorted(datasets):
            body = datasets[dataset]
            value = body.get(json_key)
            if value is not None:
                fam.samples.append(("", {"dataset": dataset}, float(value)))
        if fam.samples:
            families.append(fam)

    phase_wall = MetricFamily(
        "pcor_phase_wall_seconds_total", "counter",
        "Engine wall-clock seconds by execution phase.",
    )
    phase_tasks = MetricFamily(
        "pcor_phase_tasks_total", "counter",
        "Backend tasks dispatched by execution phase.",
    )
    for dataset in sorted(datasets):
        body = datasets[dataset]
        for phase, wall in sorted((body.get("phase_wall_s") or {}).items()):
            phase_wall.samples.append(
                ("", {"dataset": dataset, "phase": phase}, float(wall))
            )
        for phase, tasks in sorted((body.get("phase_tasks") or {}).items()):
            phase_tasks.samples.append(
                ("", {"dataset": dataset, "phase": phase}, float(tasks))
            )
    families.extend(fam for fam in (phase_wall, phase_tasks) if fam.samples)

    spend = MetricFamily(
        "pcor_tenant_epsilon_spent", "gauge",
        "Privacy budget spent per tenant (spend-rate numerator).",
    )
    exhausted = MetricFamily(
        "pcor_epsilon_exhausted_total", "counter",
        "Admissions rejected per tenant for insufficient budget.",
    )
    for dataset in sorted(datasets):
        body = datasets[dataset]
        for tenant, eps in sorted((body.get("spend_by_tenant") or {}).items()):
            spend.samples.append(
                ("", {"dataset": dataset, "tenant": tenant}, float(eps))
            )
        for tenant, count in sorted(
            (body.get("tenant_rejections") or {}).items()
        ):
            exhausted.samples.append(
                ("", {"dataset": dataset, "tenant": tenant}, float(count))
            )
    families.extend(fam for fam in (spend, exhausted) if fam.samples)

    return families


def merge_expositions(shard_texts: Iterable[Tuple[int, str]]) -> List[str]:
    """Merge per-worker exposition texts, labelling samples by shard.

    Returns the merged lines (no trailing newline handling — the caller
    joins).  Family headers are emitted once per metric name, in
    first-seen order; every sample line gets ``shard="N"`` injected as
    its first label.  The injection point is found by splitting on the
    first ``{`` (metric names cannot contain ``{``), which is robust to
    ``}`` inside label values.
    """
    order: List[str] = []
    headers: Dict[str, List[str]] = {}
    samples: Dict[str, List[str]] = {}
    for shard, text in shard_texts:
        current = None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                name = line.split(" ", 3)[2]
                if name not in headers:
                    headers[name] = []
                    samples[name] = []
                    order.append(name)
                if len(headers[name]) < 2 and line not in headers[name]:
                    headers[name].append(line)
                current = name
                continue
            if line.startswith("#") or current is None:
                continue
            body, _, value = line.rpartition(" ")
            if not body:
                continue
            if "{" in body:
                body = body.replace("{", f'{{shard="{shard}",', 1)
            else:
                body = f'{body}{{shard="{shard}"}}'
            samples[current].append(f"{body} {value}")
    lines: List[str] = []
    for name in order:
        lines.extend(headers[name])
        lines.extend(samples[name])
    return lines


def merged_exposition(
    shard_texts: Iterable[Tuple[int, str]],
    extra_families: Iterable[MetricFamily] = (),
) -> str:
    """One exposition body: shard-labelled worker metrics + extras."""
    lines = merge_expositions(shard_texts)
    extra = render_text(extra_families)
    if extra.strip():
        lines.append(extra.rstrip("\n"))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ linting

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (?P<value>\S+)$"
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _parses_as_float(value: str) -> bool:
    if value in ("+Inf", "-Inf", "NaN"):
        return True
    try:
        float(value)
        return True
    except ValueError:
        return False


def validate_exposition(text: str) -> List[str]:
    """Lint a text-format-0.0.4 exposition; returns problem strings.

    Checks what a strict scraper would choke on: malformed ``# HELP`` /
    ``# TYPE`` headers, unknown metric types, duplicate ``# TYPE`` lines
    for one family (invalid after merging), sample lines that do not
    parse as ``name{labels} value``, samples whose name matches no
    declared family, and values that are not valid floats.  An empty
    list means the exposition is clean.  Used by the CI telemetry lint
    and the debug-endpoint tests.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    declared: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _METRIC_NAME.match(parts[2]):
                problems.append(f"line {lineno}: malformed header: {line!r}")
                continue
            kind, name = parts[1], parts[2]
            declared.add(name)
            if kind == "TYPE":
                if parts[3] not in _TYPES:
                    problems.append(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
                if name in typed:
                    problems.append(
                        f"line {lineno}: duplicate # TYPE for {name!r}"
                    )
                typed[name] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment: legal, ignored
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        base = name
        for suffix in _HISTOGRAM_SUFFIXES:
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        if base not in declared:
            problems.append(
                f"line {lineno}: sample {name!r} has no # HELP/# TYPE header"
            )
        if not _parses_as_float(match.group("value")):
            problems.append(
                f"line {lineno}: value {match.group('value')!r} is not a float"
            )
    return problems
