"""Benchmark-telemetry harness: schema, comparison, registry, baselines.

The harness itself lives at ``benchmarks/harness.py`` (stdlib-only, loaded
by file location); these tests cover the pieces CI depends on — document
validation, noise-aware baseline comparison, the bench registry staying in
sync with the files on disk, and the committed baselines parsing cleanly.
The actual benchmark execution path is exercised by ``pcor bench --quick``
in CI, not here (it runs whole benchmarks).
"""

import json
from pathlib import Path

import pytest

from repro.cli import load_bench_harness

harness = load_bench_harness()

REPO = Path(__file__).resolve().parents[1]


def valid_doc(name="demo", **overrides):
    doc = harness.bench_document(
        name,
        [
            harness.metric("p50_ms", 12.5, "ms", direction="lower", tolerance=0.5),
            harness.metric("rps", 80.0, "rps", direction="higher", tolerance=0.5),
            harness.metric("note", 1.0, "x"),
        ],
    )
    doc.update(overrides)
    return doc


class TestDocuments:
    def test_metric_rows(self):
        row = harness.metric("p50_ms", 12, "ms", direction="lower")
        assert row == {
            "metric": "p50_ms",
            "value": 12.0,
            "unit": "ms",
            "direction": "lower",
            "tolerance": harness.DEFAULT_TOLERANCE,
        }
        assert "direction" not in harness.metric("x", 1, "ms")
        with pytest.raises(ValueError, match="direction"):
            harness.metric("x", 1, "ms", direction="sideways")

    def test_document_shape_and_fingerprint(self):
        doc = valid_doc("bench_demo")
        assert doc["schema"] == harness.SCHEMA
        assert doc["name"] == "demo"  # bench_ prefix stripped
        assert doc["git_sha"] is None or len(doc["git_sha"]) == 40
        for key in ("python", "platform", "cpus", "scale"):
            assert key in doc["env"]
        assert harness.validate_bench(doc) == []

    def test_malformed_documents_are_rejected(self):
        assert harness.validate_bench("not a dict")
        assert harness.validate_bench({})
        cases = [
            {"schema": "pcor-bench/999"},
            {"metrics": []},
            {"metrics": [{"metric": "a", "value": "NaN-ish", "unit": "ms"}]},
            {"metrics": [{"metric": "a", "value": 1, "unit": "ms"}] * 2},
            {"metrics": [{"metric": "a", "value": 1, "unit": "ms", "direction": "lower"}]},
        ]
        for override in cases:
            assert harness.validate_bench(valid_doc(**override)), override
        with pytest.raises(ValueError, match="malformed"):
            harness.bench_document("bad", [{"metric": "a"}])

    def test_write_and_load_round_trip(self, tmp_path):
        path = harness.write_bench_json(
            tmp_path,
            "bench_demo",
            [harness.metric("p50_ms", 1.5, "ms", direction="lower")],
            context={"records": 300},
        )
        assert path.name == "BENCH_demo.json"
        loaded = harness.load_results(tmp_path)
        assert set(loaded) == {"demo"}
        assert loaded["demo"]["context"] == {"records": 300}
        assert harness.validate_bench(loaded["demo"]) == []

    def test_trajectory_appends_jsonl(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        harness.append_trajectory([valid_doc()], path=path)
        harness.append_trajectory([valid_doc()], path=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["name"] == "demo" for line in lines)


class TestComparison:
    def test_statuses(self):
        baseline = valid_doc()
        current = valid_doc()
        current["metrics"][0]["value"] = 12.5 * 1.6  # p50 +60% > 50% tol
        current["metrics"][1]["value"] = 80.0 * 1.7  # rps +70% (higher=better)
        rows = {r["metric"]: r for r in harness.compare(current, baseline)}
        assert rows["p50_ms"]["status"] == "regression"
        assert rows["rps"]["status"] == "improved"
        assert rows["note"]["status"] == "info"
        assert rows["p50_ms"]["baseline"] == 12.5
        assert rows["p50_ms"]["delta"] == pytest.approx(0.6)

    def test_within_tolerance_is_ok(self):
        baseline = valid_doc()
        current = valid_doc()
        current["metrics"][0]["value"] = 12.5 * 1.3  # +30% < 50% tolerance
        rows = {r["metric"]: r for r in harness.compare(current, baseline)}
        assert rows["p50_ms"]["status"] == "ok"

    def test_no_baseline_is_new_not_regression(self):
        rows = {r["metric"]: r for r in harness.compare(valid_doc(), None)}
        assert rows["p50_ms"]["status"] == "new"
        assert rows["note"]["status"] == "info"

    def test_zero_baseline_does_not_divide(self):
        baseline = valid_doc()
        baseline["metrics"][0]["value"] = 0.0
        rows = {r["metric"]: r for r in harness.compare(valid_doc(), baseline)}
        assert rows["p50_ms"]["status"] == "regression"
        assert rows["p50_ms"]["delta"] is None  # infinite relative move


class TestRegistry:
    def test_registry_files_exist(self):
        for name, spec in harness.BENCHES.items():
            assert (REPO / "benchmarks" / spec["file"]).is_file(), name
            assert spec["emits"], name

    def test_emitted_names_are_unique(self):
        emitted = [e for spec in harness.BENCHES.values() for e in spec["emits"]]
        assert len(emitted) == len(set(emitted))

    def test_select_benches(self):
        assert set(harness.select_benches(None, quick=True)) == {
            name
            for name, spec in harness.BENCHES.items()
            if spec["quick"]
        }
        assert harness.select_benches(["micro_kernels"]) == ["micro_kernels"]
        with pytest.raises(ValueError, match="unknown benchmark"):
            harness.select_benches(["nope"])

    def test_quick_subset_covers_at_least_three_documents(self):
        quick = harness.select_benches(None, quick=True)
        emitted = [e for name in quick for e in harness.BENCHES[name]["emits"]]
        assert len(emitted) >= 3  # the CI acceptance floor

    def test_committed_baselines_are_valid_documents(self):
        baselines = harness.load_results(harness.BASELINES_DIR)
        assert baselines, "no committed baselines under benchmarks/baselines/"
        for name, doc in baselines.items():
            assert harness.validate_bench(doc) == [], name

    def test_every_emitted_document_has_a_baseline(self):
        """Without one, ``compare`` reports every metric as new and no
        regression of that document can ever show."""
        baselines = harness.load_results(harness.BASELINES_DIR)
        emitted = {e for spec in harness.BENCHES.values() for e in spec["emits"]}
        assert sorted(emitted - set(baselines)) == []

    def test_render_report_smoke(self):
        report = {
            "runs": [{"bench": "demo", "returncode": 0, "duration_s": 1.0}],
            "comparisons": {"demo": harness.compare(valid_doc(), valid_doc())},
            "problems": [],
            "regressions": [],
        }
        text = harness.render_report(report)
        assert "demo" in text
        assert "no regressions" in text
