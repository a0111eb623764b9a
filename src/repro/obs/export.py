"""Prometheus export of the serving stack's metrics.

Two concerns live here:

* :data:`DATASET_METRICS` and :func:`dataset_families` — the one table
  of exported ``/v1/metrics`` per-dataset keys, and the loop that maps a
  JSON body through it into ``pcor_*`` families with a ``dataset`` label.
  This is a scrape-time derived view: the engine and coalescer keep their
  own counters, and the exposition is computed from the same snapshot the
  JSON endpoint serves, so the hot path pays nothing for the second
  format.
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
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricFamily, render_text

#: Every exported per-dataset ``/v1/metrics`` key, one row each:
#: ``(json key, kind, exposition name, help, label)``.  A ``counter`` is
#: monotone within one server process (two snapshots can be differenced
#: for rates) and resets only on restart; a ``gauge`` may move both ways.
#: ``label`` is ``None`` for a number and names the label of a
#: ``{label value: number}`` map.  Families render in row order, so the
#: exposition stays byte-stable.  The body's ``backend`` name is not a
#: metric and has no row.
DATASET_METRICS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("requests_submitted", "counter", "pcor_requests_submitted_total",
     "Release requests accepted for execution.", None),
    ("releases_completed", "counter", "pcor_releases_completed_total",
     "Releases executed to completion.", None),
    ("requests_rejected", "counter", "pcor_requests_rejected_total",
     "Admissions rejected (budget exhausted or invalid).", None),
    ("ledger_charges", "counter", "pcor_ledger_charges_total",
     "Epsilon charges appended to the privacy ledger.", None),
    ("epsilon_spent", "counter", "pcor_epsilon_spent_total",
     "Total privacy budget charged against the dataset.", None),
    ("profile_hits", "counter", "pcor_profile_hits_total",
     "Context-profile cache hits.", None),
    ("profile_misses", "counter", "pcor_profile_misses_total",
     "Context-profile cache misses.", None),
    ("profile_evictions", "counter", "pcor_profile_evictions_total",
     "Context-profile cache evictions.", None),
    # Uncached f_M runs, the paper's cost unit; a record-scoped run
    # scores only the record's window.
    ("fm_evaluations", "counter", "pcor_fm_evaluations_total",
     "Detector (f_M) evaluations performed.", None),
    ("fm_queries", "counter", "pcor_fm_queries_total",
     "f_M questions asked, cached or not.", None),
    ("release_tasks", "counter", "pcor_release_tasks_total",
     "Release tasks dispatched to the runtime backend.", None),
    ("wall_time_s", "counter", "pcor_engine_wall_seconds_total",
     "Engine wall-clock seconds spent executing releases.", None),
    ("batch_flushes", "counter", "pcor_batch_flushes_total",
     "Coalescer batch flushes.", None),
    ("batch_requests", "counter", "pcor_batch_requests_total",
     "Requests that flowed through the coalescer.", None),
    ("batch_queue_wait_s", "counter", "pcor_batch_queue_wait_seconds_total",
     "Seconds requests spent queued in the coalescer before flush.", None),
    ("appends", "counter", "pcor_appends_total",
     "Live append operations committed against the dataset.", None),
    ("profiles_invalidated", "counter", "pcor_profiles_invalidated_total",
     "Cached context profiles dropped by targeted append invalidation.",
     None),
    ("epsilon_budget", "gauge", "pcor_epsilon_budget",
     "Configured dataset-global privacy budget.", None),
    ("epsilon_remaining", "gauge", "pcor_epsilon_remaining",
     "Privacy budget still unspent.", None),
    ("profiles_cached", "gauge", "pcor_profiles_cached",
     "Context profiles currently cached.", None),
    ("n_verifiers", "gauge", "pcor_verifiers",
     "Verifier instances alive for the dataset.", None),
    ("backend_workers", "gauge", "pcor_backend_workers",
     "Workers attached to the runtime backend.", None),
    ("batch_queue_depth", "gauge", "pcor_batch_queue_depth",
     "Requests currently queued in the coalescer.", None),
    ("batch_size_min", "gauge", "pcor_batch_size_min",
     "Smallest flushed batch in the recent window.", None),
    ("batch_size_p50", "gauge", "pcor_batch_size_p50",
     "Median flushed batch size in the recent window.", None),
    ("batch_size_max", "gauge", "pcor_batch_size_max",
     "Largest flushed batch in the recent window.", None),
    # Monotone, but its value is an identity, not an event count to rate.
    ("dataset_version", "gauge", "pcor_dataset_version",
     "Append counter of the served dataset (0 = as loaded).", None),
    ("phase_wall_s", "counter", "pcor_phase_wall_seconds_total",
     "Engine wall-clock seconds by execution phase.", "phase"),
    ("phase_tasks", "counter", "pcor_phase_tasks_total",
     "Backend tasks dispatched by execution phase.", "phase"),
    ("spend_by_tenant", "gauge", "pcor_tenant_epsilon_spent",
     "Privacy budget spent per tenant (spend-rate numerator).", "tenant"),
    # Added to the body by the server, from its tenant ledgers.
    ("tenant_rejections", "counter", "pcor_epsilon_exhausted_total",
     "Admissions rejected per tenant (budget exhausted or invalid charge).",
     "tenant"),
)


def dataset_families(datasets: Dict[str, dict]) -> List[MetricFamily]:
    """``pcor_*`` families over the ``/v1/metrics`` ``datasets`` section:
    one per :data:`DATASET_METRICS` row some dataset has a value for."""
    families: List[MetricFamily] = []
    for key, kind, name, help, label in DATASET_METRICS:
        fam = MetricFamily(name, kind, help)
        for dataset in sorted(datasets):
            value = datasets[dataset].get(key)
            if value is None:
                continue
            if label is None:
                fam.samples.append(("", {"dataset": dataset}, float(value)))
                continue
            for item, number in sorted(value.items()):
                fam.samples.append(
                    ("", {"dataset": dataset, label: item}, float(number))
                )
        if fam.samples:
            families.append(fam)
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
