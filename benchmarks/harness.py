"""Continuous benchmark telemetry: normalized JSON, baselines, trajectory.

The bench scripts under ``benchmarks/`` print human-readable artefacts;
this module gives them a second, machine-readable output and a runner:

* :func:`write_bench_json` — one ``BENCH_<name>.json`` per benchmark in
  ``benchmarks/results/``, schema ``pcor-bench/1``: a list of named
  metrics (value + unit, optionally a regression ``direction`` and a
  noise ``tolerance``), an environment fingerprint, and the git sha.
* :func:`compare` — current document vs a committed baseline
  (``benchmarks/baselines/``), flagging directional metrics that moved
  beyond their tolerance.  Tolerances default to 25% relative: these
  benches run on shared CI machines, so only noise-immune estimators
  (median paired differences, best-of minimums, deterministic counters)
  should carry tight tolerances.
* :func:`run_benchmarks` — the registry-driven runner behind ``pcor
  bench``: each benchmark is one pytest subprocess (its internal assert
  gates still fail the run), and the JSON the scripts emitted is then
  schema-validated, compared against baselines, and appended to the
  ``trajectory.jsonl`` telemetry log that CI uploads as an artifact.

Deliberately stdlib-only and import-safe without ``repro`` on the path:
the CLI loads it by file location.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

SCHEMA = "pcor-bench/1"
DIRECTIONS = ("lower", "higher")
DEFAULT_TOLERANCE = 0.25

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"
TRAJECTORY = RESULTS_DIR / "trajectory.jsonl"

#: The runner registry: ``pcor bench`` names -> the pytest file that emits
#: the matching ``BENCH_*.json`` document(s).  ``quick`` marks the subset
#: cheap enough for per-commit CI (the rest are nightly/manual); ``emits``
#: names the documents the file produces, so the runner can flag a bench
#: that silently stopped emitting telemetry.
BENCHES: Dict[str, Dict[str, Any]] = {
    "service_overhead": {
        "file": "bench_service_overhead.py",
        "quick": True,
        "emits": ["service_overhead"],
    },
    "obs_overhead": {
        "file": "bench_obs_overhead.py",
        "quick": True,
        "emits": ["obs_overhead"],
    },
    "router_overhead": {
        "file": "bench_router_overhead.py",
        "quick": True,
        "emits": ["router_overhead"],
    },
    "micro_kernels": {
        "file": "bench_micro_kernels.py",
        "quick": False,
        "emits": [
            "batch_population_sizes",
            "release_many_amortisation",
            "append_incremental",
            "detector_kernels",
            "record_scoped_verdicts",
            "zscore_full_profiles",
        ],
    },
    "server_throughput": {
        "file": "bench_server_throughput.py",
        "quick": False,
        "emits": ["server_throughput", "server_coalescing"],
    },
    "parallel_scaling": {
        "file": "bench_parallel_scaling.py",
        "quick": False,
        "emits": ["parallel_scaling"],
    },
}


# ------------------------------------------------------------- documents


def metric(
    name: str,
    value: float,
    unit: str,
    direction: Optional[str] = None,
    tolerance: Optional[float] = None,
) -> Dict[str, Any]:
    """One normalized metric row.

    ``direction`` ("lower"/"higher" is better) arms baseline comparison;
    metrics without one are recorded but never gate.  ``tolerance`` is
    the relative move (vs baseline) tolerated before the comparison
    reports a regression.
    """
    if direction is not None and direction not in DIRECTIONS:
        raise ValueError(
            f"direction must be one of {DIRECTIONS} or None, got {direction!r}"
        )
    row: Dict[str, Any] = {
        "metric": str(name),
        "value": float(value),
        "unit": str(unit),
    }
    if direction is not None:
        row["direction"] = direction
        row["tolerance"] = (
            DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
        )
    return row


def _kernel_backend() -> str:
    """The mask-kernel implementation the bench process ran.

    Lazy and failure-proof: this module must stay importable without
    ``repro`` on the path, and a fingerprint is never worth crashing a
    bench run over.
    """
    try:
        from repro.bitops import kernel_backend_name

        return kernel_backend_name()
    except Exception:
        return "unknown"


def env_fingerprint() -> Dict[str, Any]:
    """Where this measurement ran — enough to judge comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "scale": os.environ.get("PCOR_BENCH_SCALE", "small"),
        "kernel_backend": _kernel_backend(),
    }


def git_sha(repo_root: Optional[Path] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root or BENCH_DIR.parent),
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def short_name(emit_name: str) -> str:
    """``bench_obs_overhead`` (the emit/artefact name) -> ``obs_overhead``."""
    return emit_name[6:] if emit_name.startswith("bench_") else emit_name


def bench_document(
    name: str,
    metrics: Sequence[Mapping[str, Any]],
    context: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "name": short_name(name),
        "created_unix": round(time.time(), 3),
        "git_sha": git_sha(),
        "env": env_fingerprint(),
        "metrics": [dict(m) for m in metrics],
    }
    if context:
        doc["context"] = dict(context)
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            f"refusing to write malformed bench document {name!r}: "
            + "; ".join(problems)
        )
    return doc


def write_bench_json(
    results_dir: Path,
    name: str,
    metrics: Sequence[Mapping[str, Any]],
    context: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write ``BENCH_<short-name>.json`` and return its path."""
    doc = bench_document(name, metrics, context=context)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------ validation


def validate_bench(doc: Any) -> List[str]:
    """Schema lint for one ``pcor-bench/1`` document; [] means valid."""
    problems: List[str] = []
    if not isinstance(doc, Mapping):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not doc.get("name") or not isinstance(doc.get("name"), str):
        problems.append("missing/non-string 'name'")
    if not isinstance(doc.get("created_unix"), (int, float)):
        problems.append("missing/non-numeric 'created_unix'")
    sha = doc.get("git_sha")
    if sha is not None and not isinstance(sha, str):
        problems.append("'git_sha' must be a string or null")
    env = doc.get("env")
    if not isinstance(env, Mapping):
        problems.append("missing 'env' fingerprint object")
    else:
        for key in ("python", "platform", "cpus", "scale"):
            if key not in env:
                problems.append(f"env fingerprint is missing {key!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        problems.append("'metrics' must be a non-empty list")
        return problems
    seen = set()
    for i, row in enumerate(metrics):
        where = f"metrics[{i}]"
        if not isinstance(row, Mapping):
            problems.append(f"{where}: must be an object")
            continue
        name = row.get("metric")
        if not name or not isinstance(name, str):
            problems.append(f"{where}: missing/non-string 'metric'")
        elif name in seen:
            problems.append(f"{where}: duplicate metric {name!r}")
        else:
            seen.add(name)
        value = row.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: 'value' must be a number, got {value!r}")
        if not isinstance(row.get("unit"), str):
            problems.append(f"{where}: missing/non-string 'unit'")
        direction = row.get("direction")
        if direction is not None:
            if direction not in DIRECTIONS:
                problems.append(
                    f"{where}: direction must be one of {DIRECTIONS}, "
                    f"got {direction!r}"
                )
            tolerance = row.get("tolerance")
            if (
                isinstance(tolerance, bool)
                or not isinstance(tolerance, (int, float))
                or tolerance < 0
            ):
                problems.append(
                    f"{where}: directional metric needs a numeric "
                    f"tolerance >= 0, got {tolerance!r}"
                )
    return problems


# ------------------------------------------------------------ comparison


def compare(
    current: Mapping[str, Any], baseline: Optional[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Per-metric comparison rows for one benchmark document.

    Statuses: ``regression`` / ``improved`` (directional metrics beyond
    tolerance), ``ok`` (within tolerance), ``new`` (no baseline value),
    ``info`` (no direction — recorded, never gated).
    """
    base_rows = {
        row.get("metric"): row
        for row in (baseline or {}).get("metrics", [])
        if isinstance(row, Mapping)
    }
    rows = []
    for row in current.get("metrics", []):
        name = row.get("metric")
        out: Dict[str, Any] = {
            "metric": name,
            "value": row.get("value"),
            "unit": row.get("unit"),
        }
        direction = row.get("direction")
        base = base_rows.get(name)
        if direction is None:
            out["status"] = "info"
        elif base is None or not isinstance(
            base.get("value"), (int, float)
        ):
            out["status"] = "new"
        else:
            base_value = float(base["value"])
            out["baseline"] = base_value
            value = float(row.get("value", 0.0))
            tolerance = float(row.get("tolerance", DEFAULT_TOLERANCE))
            if base_value == 0.0:
                delta = 0.0 if value == 0.0 else float("inf")
            else:
                delta = (value - base_value) / abs(base_value)
            out["delta"] = round(delta, 4) if delta != float("inf") else None
            worse = delta > tolerance if direction == "lower" else -delta > tolerance
            better = -delta > tolerance if direction == "lower" else delta > tolerance
            out["status"] = (
                "regression" if worse else "improved" if better else "ok"
            )
        rows.append(out)
    return rows


def load_results(results_dir: Path) -> Dict[str, Dict[str, Any]]:
    """Every parseable ``BENCH_*.json`` under ``results_dir``, by name."""
    docs: Dict[str, Dict[str, Any]] = {}
    for path in sorted(Path(results_dir).glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and isinstance(doc.get("name"), str):
            docs[doc["name"]] = doc
    return docs


def append_trajectory(
    docs: Iterable[Mapping[str, Any]], path: Path = TRAJECTORY
) -> Path:
    """Append one JSONL telemetry line per document (the CI artifact that
    accumulates the repo's performance trajectory over commits)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------- runner


def select_benches(
    names: Optional[Sequence[str]] = None, quick: bool = False
) -> List[str]:
    if names:
        unknown = sorted(set(names) - set(BENCHES))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown}; known: {sorted(BENCHES)}"
            )
        return list(names)
    return [
        name
        for name, spec in BENCHES.items()
        if not quick or spec.get("quick")
    ]


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    scale: Optional[str] = None,
    results_dir: Path = RESULTS_DIR,
    baselines_dir: Path = BASELINES_DIR,
    timeout: float = 1800.0,
    echo=print,
) -> Dict[str, Any]:
    """Run benchmarks as pytest subprocesses and build the full report.

    Returns ``{"runs": [...], "documents": {...}, "comparisons": {...},
    "problems": [...], "regressions": [...]}``.  ``problems`` are
    malformed/missing telemetry documents (CI fails the build on these);
    ``regressions`` are directional metrics beyond tolerance vs the
    committed baselines (reported, and gating only under ``--strict``).
    """
    selected = select_benches(names, quick=quick)
    env = dict(os.environ)
    if scale is not None:
        env["PCOR_BENCH_SCALE"] = scale
    runs: List[Dict[str, Any]] = []
    for name in selected:
        spec = BENCHES[name]
        path = BENCH_DIR / spec["file"]
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            str(path),
            "-q",
            "-p",
            "no:cacheprovider",
        ]
        echo(f"[pcor bench] {name}: {' '.join(cmd[3:])}")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=str(BENCH_DIR.parent),
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
            returncode = proc.returncode
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-12:]
        except subprocess.TimeoutExpired:
            returncode = -1
            tail = [f"timed out after {timeout:g}s"]
        duration = time.monotonic() - t0
        runs.append(
            {
                "bench": name,
                "file": spec["file"],
                "returncode": returncode,
                "duration_s": round(duration, 2),
            }
        )
        status = "ok" if returncode == 0 else f"FAILED (rc={returncode})"
        echo(f"[pcor bench] {name}: {status} in {duration:.1f}s")
        if returncode != 0:
            for line in tail:
                echo(f"    {line}")

    documents = load_results(results_dir)
    baselines = (
        load_results(baselines_dir) if Path(baselines_dir).is_dir() else {}
    )
    problems: List[str] = []
    comparisons: Dict[str, List[Dict[str, Any]]] = {}
    regressions: List[str] = []
    expected = [e for name in selected for e in BENCHES[name]["emits"]]
    for emitted in expected:
        doc = documents.get(emitted)
        if doc is None:
            problems.append(f"{emitted}: no BENCH_{emitted}.json was emitted")
            continue
        doc_problems = validate_bench(doc)
        if doc_problems:
            problems.extend(f"{emitted}: {p}" for p in doc_problems)
            continue
        rows = compare(doc, baselines.get(emitted))
        comparisons[emitted] = rows
        for row in rows:
            if row["status"] == "regression":
                regressions.append(
                    f"{emitted}.{row['metric']}: {row['value']:g} {row['unit']} "
                    f"vs baseline {row['baseline']:g} "
                    f"({row['delta'] * 100.0 if row['delta'] is not None else float('nan'):+.1f}%)"
                )
    return {
        "runs": runs,
        "documents": {
            name: documents[name] for name in expected if name in documents
        },
        "comparisons": comparisons,
        "problems": problems,
        "regressions": regressions,
    }


def render_report(report: Mapping[str, Any]) -> str:
    """Human-readable summary of one :func:`run_benchmarks` report."""
    lines: List[str] = []
    for run in report["runs"]:
        status = "ok" if run["returncode"] == 0 else "FAILED"
        lines.append(
            f"  {run['bench']:<20s} {status:<7s} {run['duration_s']:8.1f}s"
        )
    for name, rows in sorted(report["comparisons"].items()):
        lines.append(f"  {name}:")
        for row in rows:
            value = row["value"]
            detail = f"{value:g} {row['unit']}"
            if "baseline" in row and row.get("delta") is not None:
                detail += (
                    f"  (baseline {row['baseline']:g}, {row['delta'] * 100:+.1f}%)"
                )
            lines.append(
                f"    {row['metric']:<28s} {row['status']:<10s} {detail}"
            )
    for problem in report["problems"]:
        lines.append(f"  MALFORMED: {problem}")
    for regression in report["regressions"]:
        lines.append(f"  REGRESSION: {regression}")
    if not report["problems"] and not report["regressions"]:
        lines.append("  telemetry: all documents valid, no regressions")
    return "\n".join(lines)
