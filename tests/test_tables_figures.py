"""Smoke tests for the table/figure regeneration harness (micro scale).

These verify structure and invariants of every paper-table runner; the
bench-scale runs live in benchmarks/ (see the README's "Reproducing Section 6").
"""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.figures import figure_1, figure_4, figure_5
from repro.experiments.tables import (
    TABLE_RUNNERS,
    table_2_3,
    table_4_5,
    table_6_7,
    table_8_9,
    table_10_11,
)

MICRO = ExperimentScale(
    name="micro",
    salary_records=400,
    salary_reduced_records=400,
    homicide_reduced_records=400,
    repetitions=3,
    n_outlier_records=3,
    n_samples=8,
    coe_neighbors=1,
    coe_outliers=4,
)


@pytest.fixture(scope="module")
def t23():
    return table_2_3(MICRO, seed=0)


class TestTable23:
    def test_four_samplers(self, t23):
        perf, util = t23
        assert len(perf.rows) == 4
        assert len(util.rows) == 4
        labels = [row[0] for row in util.rows]
        assert labels == ["Uniform", "Random Walk", "DFS", "BFS"]

    def test_ids_and_render(self, t23):
        perf, util = t23
        assert perf.table_id == "2"
        assert util.table_id == "3"
        assert "Table 2" in perf.render()
        assert "Tmin" in perf.render()
        assert "CI (90%)" in util.render()

    def test_utilities_in_unit_interval(self, t23):
        _, util = t23
        for label, summary in util.summaries.items():
            assert 0.0 <= summary.utility_summary().mean <= 1.0 + 1e-9


class TestTable45:
    def test_structure(self):
        perf, util = table_4_5(MICRO, seed=0)
        assert [row[0] for row in perf.rows] == ["DFS", "BFS"]
        assert perf.table_id == "4"
        assert util.table_id == "5"
        for summary in util.summaries.values():
            assert summary.utility == "overlap"


class TestTable67:
    def test_structure(self):
        perf, util = table_6_7(MICRO, seed=0)
        assert [row[0] for row in perf.rows] == ["Grubbs", "Histogram"]
        for summary in util.summaries.values():
            assert summary.algorithm == "bfs"
        assert "BFS" in perf.rows[0]


class TestTable89:
    def test_epsilon_sweep(self):
        perf, util = table_8_9(MICRO, seed=0, epsilons=(0.1, 0.4))
        assert [row[0] for row in perf.rows] == ["0.1", "0.4"]
        for label, summary in util.summaries.items():
            assert summary.epsilon == float(label)


class TestTable1011:
    def test_sample_sweep(self):
        perf, util = table_10_11(MICRO, seed=0, sample_sizes=(5, 10))
        assert [row[0] for row in perf.rows] == ["5", "10"]
        for label, summary in util.summaries.items():
            assert summary.n_samples == int(label)


class TestRunnerRegistry:
    def test_all_tables_mapped(self):
        assert set(TABLE_RUNNERS) == {"2", "3", "4", "5", "6", "7", "8", "9", "10", "11"}


class TestFigures:
    def test_figure_1_reuses_summaries(self, t23):
        perf, _ = t23
        fig = figure_1(summaries=perf.summaries)
        assert fig.figure_id == "1"
        assert len(fig.panels) == 8  # 4 samplers x (utility, time)
        kinds = {p.kind for p in fig.panels}
        assert kinds == {"utility", "time"}

    def test_panels_render(self, t23):
        perf, _ = t23
        fig = figure_1(summaries=perf.summaries)
        text = fig.render(bins=5)
        assert "Figure 1" in text
        assert "#" in text

    def test_utility_panels_bounded(self, t23):
        perf, _ = t23
        fig = figure_1(summaries=perf.summaries)
        for panel in fig.panels:
            if panel.kind == "utility":
                counts, edges = panel.histogram(bins=5)
                assert edges[0] == 0.0
                assert edges[-1] == 1.0

    def test_figure_4_labels(self, t23):
        # Reuse table 2/3 summaries as a stand-in epsilon sweep.
        perf, _ = t23
        fig = figure_4(summaries=perf.summaries)
        assert all(p.label.startswith("eps=") for p in fig.panels)

    def test_figure_5_labels(self, t23):
        perf, _ = t23
        fig = figure_5(summaries=perf.summaries)
        assert all(p.label.startswith("n=") for p in fig.panels)
