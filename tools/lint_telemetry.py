"""CI telemetry lint: expositions and benchmark JSON must parse cleanly.

Pure python, no third-party scraper or schema library:

* boots a minimal in-process :class:`PCORServer` (and a thread-manager
  router fleet) and runs :func:`repro.obs.validate_exposition` over their
  ``/v1/metrics/prometheus`` bodies — a malformed sample line would
  otherwise only surface when a real Prometheus scrape breaks in prod.
  The server first serves a release, a budget-rejected release and an
  append on a coalescing dataset, so every ``DATASET_METRICS`` key has a
  value, and each key's ``/v1/metrics`` JSON value must equal its
  exposition sample;
* validates every ``BENCH_*.json`` under ``benchmarks/results/`` and
  ``benchmarks/baselines/`` against the ``pcor-bench/1`` schema, and every
  line of ``trajectory.jsonl`` as parseable JSON.

Exit status is the number of problems (0 = clean), each printed on its
own line.  Run from the repo root:  PYTHONPATH=src python tools/lint_telemetry.py
"""

import importlib.util
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.exceptions import PrivacyBudgetError  # noqa: E402
from repro.obs import DATASET_METRICS, validate_exposition  # noqa: E402
from repro.server import PCORServer, ServerConfig  # noqa: E402

LINT_DATASET = {
    "source": "salary_reduced",
    "records": 300,
    "seed": 3,
    "budget": 10.0,
}

#: A record of ``LINT_DATASET`` with a matching context under ``SPEC``.
LINT_RECORD = 207
SPEC = {
    "detector": "zscore",
    "detector_kwargs": {"z_threshold": 2.5, "min_population": 8},
    "sampler": "uniform",
    "epsilon": 0.1,
    "n_samples": 3,
}


def load_harness():
    spec = importlib.util.spec_from_file_location(
        "pcor_bench_harness", REPO / "benchmarks" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drive(server: PCORServer) -> None:
    """One release, one budget-rejected release and one append."""
    release = {"record_id": LINT_RECORD, "spec": SPEC, "seed": 1}
    server.release("salary", "lint", release)
    try:
        server.release("salary", "lint", {**release, "seed": 2})
    except PrivacyBudgetError:
        pass  # the tenant budget admits one release
    dataset = server.registry.get("salary").engine.dataset
    row = dataset.record(int(dataset.ids[0]))
    server.append("salary", "lint", {"records": [row]})


def cross_check(datasets: dict, text: str) -> list:
    """Each ``DATASET_METRICS`` key's JSON value against its sample."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    problems = []
    for key, _kind, name, _help, label in DATASET_METRICS:
        for dataset, body in sorted(datasets.items()):
            value = body.get(key)
            if value is None or value == {}:
                problems.append(f"{dataset}: {key} has no value to check")
                continue
            if label is None:
                expected = {f'{name}{{dataset="{dataset}"}}': value}
            else:
                expected = {
                    f'{name}{{dataset="{dataset}",{label}="{item}"}}': number
                    for item, number in value.items()
                }
            for series, number in expected.items():
                if samples.get(series) != float(number):
                    problems.append(
                        f"{dataset}: {key} is {number!r} in JSON but "
                        f"{samples.get(series)!r} as {series}"
                    )
    return problems


def lint_expositions() -> list:
    """Server and router-fleet Prometheus bodies through the linter."""
    problems = []

    coalescing = {
        **LINT_DATASET, "tenant_budget": 0.15, "max_batch": 2, "max_delay_ms": 1
    }
    config = ServerConfig.from_dict(
        {"server": {"port": 0}, "datasets": {"salary": coalescing}}
    )
    server = PCORServer(config)
    try:
        drive(server)
        text = server.prometheus_metrics()
        for issue in validate_exposition(text):
            problems.append(f"server exposition: {issue}")
        for issue in cross_check(server.metrics()["datasets"], text):
            problems.append(f"server exposition: {issue}")
    finally:
        server.shutdown()

    from repro.cluster import PCORRouter

    cluster = ServerConfig.from_dict(
        {
            "server": {"port": 0},
            "datasets": {
                "salary": LINT_DATASET,
                "other": {**LINT_DATASET, "seed": 9},
            },
            "cluster": {"workers": 2, "manager": "thread"},
        }
    )
    with PCORRouter(cluster) as router:
        for issue in validate_exposition(router.prometheus_metrics()):
            problems.append(f"router exposition: {issue}")
    return problems


def lint_bench_json() -> list:
    harness = load_harness()
    problems = []
    for directory in (harness.RESULTS_DIR, harness.BASELINES_DIR):
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("BENCH_*.json")):
            rel = path.relative_to(REPO)
            try:
                doc = json.loads(path.read_text())
            except ValueError as exc:
                problems.append(f"{rel}: invalid JSON: {exc}")
                continue
            problems.extend(f"{rel}: {p}" for p in harness.validate_bench(doc))
    trajectory = harness.TRAJECTORY
    if trajectory.is_file():
        for lineno, line in enumerate(
            trajectory.read_text().splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                json.loads(line)
            except ValueError as exc:
                problems.append(
                    f"{trajectory.relative_to(REPO)}:{lineno}: "
                    f"invalid JSON line: {exc}"
                )
    return problems


def main() -> int:
    problems = lint_expositions() + lint_bench_json()
    for problem in problems:
        print(f"LINT: {problem}")
    if problems:
        print(f"telemetry lint: {len(problems)} problem(s)")
    else:
        print("telemetry lint: expositions and bench JSON are clean")
    return min(len(problems), 99)


if __name__ == "__main__":
    raise SystemExit(main())
