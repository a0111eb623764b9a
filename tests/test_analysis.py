"""Tests for COE-structure analysis and budgeted release sessions."""

import numpy as np
import pytest

from repro.analysis.coe_structure import analyze_coe, coe_structure_report
from repro.analysis.session import ReleaseSession
from repro.core.pcor import PCOR
from repro.core.sampling import BFSSampler
from repro.core.starting import starting_context_from_reference
from repro.data.generators import salary_reduced
from repro.exceptions import EnumerationError, PrivacyBudgetError
from repro.outliers.lof import LOFDetector


class TestAnalyzeCOE:
    def test_counts_are_consistent(self, mini_reference, mini_outlier):
        s = analyze_coe(mini_reference, mini_outlier)
        assert s.record_id == mini_outlier
        assert s.n_matching == len(mini_reference.matching_contexts(mini_outlier))
        assert sum(s.component_sizes) == s.n_matching
        assert s.n_components == len(s.component_sizes)
        assert s.component_sizes == tuple(sorted(s.component_sizes, reverse=True))

    def test_coverage_and_ceiling_bounds(self, mini_reference, mini_outlier):
        s = analyze_coe(mini_reference, mini_outlier)
        assert 0.0 < s.max_component_coverage <= 1.0
        assert 0.0 < s.expected_ceiling_ratio <= 1.0 + 1e-12
        assert s.mean_distance_to_best >= 0.0

    def test_connected_means_full_coverage(self, mini_reference):
        for rid in mini_reference.outlier_records()[:20]:
            s = analyze_coe(mini_reference, rid)
            if s.is_connected:
                assert s.max_component_coverage == 1.0
                # A connected COE lets any search reach the global best.
                assert s.expected_ceiling_ratio == pytest.approx(1.0)

    def test_max_population_matches_reference(self, mini_reference, mini_outlier):
        s = analyze_coe(mini_reference, mini_outlier)
        assert s.max_population == int(
            mini_reference.max_population_utility(mini_outlier)
        )

    def test_no_matching_contexts_raises(self, mini_reference, mini_dataset):
        outliers = set(mini_reference.outlier_records())
        normal = next(int(r) for r in mini_dataset.ids if int(r) not in outliers)
        with pytest.raises(EnumerationError, match="no matching contexts"):
            analyze_coe(mini_reference, normal)

    def test_max_contexts_guard(self, mini_reference, mini_outlier):
        with pytest.raises(EnumerationError, match="refused"):
            analyze_coe(mini_reference, mini_outlier, max_contexts=1)

    def test_ceiling_predicts_sampler_limit(
        self, mini_dataset, mini_detector, mini_verifier, mini_reference
    ):
        """The structural ceiling really does bound BFS utility ratios."""
        rid = mini_reference.outlier_records()[0]
        structure = analyze_coe(mini_reference, rid)
        pcor = PCOR(
            mini_dataset, mini_detector, epsilon=5.0,  # near-greedy
            sampler=BFSSampler(n_samples=len(mini_reference.matching_contexts(rid))),
            verifier=mini_verifier,
        )
        # Start from the *worst* component seed: a min-population context.
        start = starting_context_from_reference(mini_reference, rid, mode="min")
        result = pcor.release(rid, starting_context=start, seed=0)
        reachable_best = max(
            mini_reference.population_size(b)
            for b in _component_of(mini_reference, rid, start.bits)
        )
        assert result.utility_value <= reachable_best + 1e-9


def _component_of(reference, rid, start_bits):
    t = reference.schema.t
    matching = set(reference.matching_contexts(rid))
    seen = {start_bits}
    frontier = [start_bits]
    while frontier:
        cur = frontier.pop()
        for b in range(t):
            nb = cur ^ (1 << b)
            if nb in matching and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


class TestStructureReport:
    def test_aggregate_metrics(self, mini_reference):
        rids = mini_reference.outlier_records()[:10]
        report = coe_structure_report(mini_reference, rids)
        assert report["n_records"] == 10.0
        assert 0.0 <= report["connected_fraction"] <= 1.0
        assert report["mean_components"] >= 1.0
        assert 0.0 < report["mean_ceiling_ratio"] <= 1.0 + 1e-12
        assert report["mean_coe_size"] > 0.0

    def test_empty_rejected(self, mini_reference):
        with pytest.raises(EnumerationError):
            coe_structure_report(mini_reference, [])


class TestReleaseSession:
    @pytest.fixture()
    def session(self, mini_dataset, mini_detector, mini_verifier):
        pcor = PCOR(
            mini_dataset, mini_detector, epsilon=0.2,
            sampler=BFSSampler(n_samples=6), verifier=mini_verifier,
        )
        return ReleaseSession(pcor, total_budget=0.5)

    def test_spend_accumulates(self, session, mini_reference, mini_outlier):
        start = starting_context_from_reference(mini_reference, mini_outlier, 0)
        session.release(mini_outlier, starting_context=start, seed=1)
        assert session.spent == pytest.approx(0.2)
        session.release(mini_outlier, starting_context=start, seed=2)
        assert session.spent == pytest.approx(0.4)
        assert len(session.results) == 2

    def test_over_budget_refused_before_release(
        self, session, mini_reference, mini_outlier
    ):
        start = starting_context_from_reference(mini_reference, mini_outlier, 0)
        session.release(mini_outlier, starting_context=start, seed=1)
        session.release(mini_outlier, starting_context=start, seed=2)
        assert not session.can_release()  # 0.1 left < 0.2 needed
        with pytest.raises(PrivacyBudgetError, match="remains"):
            session.release(mini_outlier, starting_context=start, seed=3)
        assert len(session.results) == 2  # third never happened

    def test_engine_shares_the_pipeline_mask_index(self):
        """The session's engine reads the pipeline's index, so it builds no
        second one and can append through it."""
        dataset = salary_reduced(n_records=300, seed=7)
        pcor = PCOR(dataset, LOFDetector(k=5), sampler=BFSSampler(n_samples=5))
        session = ReleaseSession(pcor, total_budget=1.0)
        assert session.engine.masks is pcor.verifier.masks
        rows = [dataset.record(int(rid)) for rid in dataset.ids[:2]]
        summary = session.engine.append(rows)
        assert summary["n_records"] == len(dataset) + 2
        assert len(session.engine.dataset) == len(dataset) + 2

    def test_ledger_report(self, session, mini_reference, mini_outlier):
        start = starting_context_from_reference(mini_reference, mini_outlier, 0)
        session.release(mini_outlier, starting_context=start, seed=1)
        report = session.ledger_report()
        assert "budget 0.5" in report
        assert f"record={mini_outlier}" in report
