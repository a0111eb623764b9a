"""Tests for the ReleaseEngine service layer.

Covers the acceptance criteria of the spec-driven redesign:

* engine-vs-facade equivalence — same seed, same released context bits,
  across all four samplers, including after a spec dict round-trip;
* one engine serving different detectors/epsilons charges one shared
  accountant and rejects over-budget requests before any ``f_M`` run;
* the callable-utility needs-starting-context fix.
"""

import json

import pytest

from repro.analysis.session import ReleaseSession
from repro.core.pcor import PCOR
from repro.core.starting import starting_context_from_reference
from repro.core.utility import OverlapUtility
from repro.core.verification import OutlierVerifier
from repro.exceptions import (
    PrivacyBudgetError,
    ReproError,
    SamplingError,
    VerificationError,
)
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

ZSCORE_KWARGS = {"z_threshold": 2.5, "min_population": 8}


@pytest.fixture()
def start(mini_reference, mini_outlier):
    return starting_context_from_reference(mini_reference, mini_outlier, 0)


def named_spec(**overrides):
    base = dict(
        detector="zscore",
        detector_kwargs=ZSCORE_KWARGS,
        epsilon=0.5,
        n_samples=6,
    )
    base.update(overrides)
    return PipelineSpec(**base)


class TestEquivalence:
    """ReleaseEngine.submit == PCOR.release, bit for bit, per seed."""

    @pytest.mark.parametrize("sampler", ["uniform", "random_walk", "dfs", "bfs"])
    @pytest.mark.parametrize("utility", ["population_size", "overlap"])
    def test_engine_matches_facade(
        self, mini_dataset, mini_detector, mini_outlier, start, sampler, utility
    ):
        from repro.core.sampling import make_sampler

        pcor = PCOR(
            mini_dataset,
            mini_detector,
            utility=utility,
            epsilon=0.5,
            sampler=make_sampler(sampler, 6),
            verifier=OutlierVerifier(mini_dataset, mini_detector),
        )
        facade = pcor.release(mini_outlier, starting_context=start, seed=11)

        engine = ReleaseEngine(mini_dataset)
        spec = named_spec(sampler=sampler, utility=utility)
        served = engine.submit(
            ReleaseRequest(
                record_id=mini_outlier,
                spec=spec,
                starting_context=start,
                seed=11,
            )
        )
        assert served.context.bits == facade.context.bits
        assert served.algorithm == facade.algorithm
        assert served.utility_value == facade.utility_value

    @pytest.mark.parametrize("sampler", ["uniform", "random_walk", "dfs", "bfs"])
    def test_spec_round_trip_preserves_release(
        self, mini_dataset, mini_outlier, start, sampler
    ):
        spec = named_spec(sampler=sampler)
        rehydrated = PipelineSpec.from_dict(json.loads(spec.to_json()))

        a = ReleaseEngine(mini_dataset).submit(
            ReleaseRequest(mini_outlier, spec, starting_context=start, seed=5)
        )
        b = ReleaseEngine(mini_dataset).submit(
            ReleaseRequest(mini_outlier, rehydrated, starting_context=start, seed=5)
        )
        assert a.context.bits == b.context.bits

    def test_automatic_starting_search_matches_facade(
        self, mini_dataset, mini_detector, mini_outlier
    ):
        pcor = PCOR(
            mini_dataset,
            mini_detector,
            epsilon=0.5,
            verifier=OutlierVerifier(mini_dataset, mini_detector),
        )
        facade = pcor.release(mini_outlier, seed=3)
        served = ReleaseEngine(mini_dataset).submit(
            ReleaseRequest(mini_outlier, named_spec(n_samples=50), seed=3)
        )
        assert served.context.bits == facade.context.bits

    def test_mapping_requests_accepted(self, mini_dataset, mini_outlier, start):
        spec = named_spec()
        a = ReleaseEngine(mini_dataset).submit(
            ReleaseRequest(mini_outlier, spec, starting_context=start, seed=2)
        )
        b = ReleaseEngine(mini_dataset).submit(
            {
                "record_id": mini_outlier,
                "spec": spec.to_dict(),
                "starting_context": start,
                "seed": 2,
            }
        )
        assert a.context.bits == b.context.bits

    def test_invalid_starting_context_rejected(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset)
        with pytest.raises(SamplingError, match="not a matching context"):
            engine.submit(
                ReleaseRequest(mini_outlier, named_spec(), starting_context=0, seed=1)
            )


class TestSharedState:
    def test_one_verifier_per_detector_config(self, mini_dataset, mini_outlier, start):
        engine = ReleaseEngine(mini_dataset)
        for seed in (1, 2):
            engine.submit(
                ReleaseRequest(mini_outlier, named_spec(), starting_context=start, seed=seed)
            )
        engine.submit(
            ReleaseRequest(
                mini_outlier,
                named_spec(detector="iqr", detector_kwargs={}),
                seed=3,
            )
        )
        metrics = engine.metrics()
        assert metrics.n_verifiers == 2
        assert metrics.releases_completed == 3

    def test_profile_cache_shared_across_specs(self, mini_dataset, mini_outlier, start):
        """Different sampler/epsilon specs over one detector share one cache."""
        engine = ReleaseEngine(mini_dataset)
        engine.submit(
            ReleaseRequest(mini_outlier, named_spec(), starting_context=start, seed=1)
        )
        fm_first = engine.metrics().fm_evaluations
        engine.submit(
            ReleaseRequest(
                mini_outlier,
                named_spec(sampler="uniform", epsilon=0.9),
                starting_context=start,
                seed=1,
            )
        )
        metrics = engine.metrics()
        assert metrics.n_verifiers == 1
        assert metrics.profile_hits > 0
        # The t=9 mini space is tiny, so the warmed cache absorbs most of the
        # second spec's probes even though its sampler differs.
        assert metrics.fm_evaluations < 2 * fm_first

    def test_adopted_verifier_serves_matching_requests(
        self, mini_dataset, mini_verifier, mini_outlier, start
    ):
        engine = ReleaseEngine(mini_dataset)
        engine.adopt_verifier(mini_verifier)
        engine.submit(
            ReleaseRequest(mini_outlier, named_spec(), starting_context=start, seed=1)
        )
        assert engine.metrics().n_verifiers == 1

    def test_adopt_foreign_dataset_rejected(self, mini_verifier, tiny_dataset):
        engine = ReleaseEngine(tiny_dataset)
        with pytest.raises(VerificationError, match="different dataset"):
            engine.adopt_verifier(mini_verifier)

    def test_pcor_rejects_mismatched_verifier(self, mini_dataset, mini_verifier):
        """An explicit verifier must carry the same detector configuration,
        or it would be silently bypassed by fingerprint-keyed resolution."""
        from repro.outliers.zscore import ZScoreDetector

        with pytest.raises(SamplingError, match="detector configuration"):
            PCOR(
                mini_dataset,
                ZScoreDetector(z_threshold=9.9, min_population=8),
                verifier=mini_verifier,
            )

    def test_adoption_skips_mask_index_build(self, mini_dataset, mini_verifier):
        """Engines serving only adopted verifiers never build a second index."""
        engine = ReleaseEngine(mini_dataset)
        engine.adopt_verifier(mini_verifier)
        assert engine._masks is None  # lazy: untouched by adoption

    def test_metrics_to_dict(self, mini_dataset, mini_outlier, start):
        engine = ReleaseEngine(mini_dataset)
        engine.submit(
            ReleaseRequest(mini_outlier, named_spec(), starting_context=start, seed=1)
        )
        snapshot = engine.metrics().to_dict()
        assert snapshot["releases_completed"] == 1
        assert snapshot["fm_evaluations"] > 0
        assert json.dumps(snapshot)  # JSON-able


class TestPhaseAccounting:
    """Engine phases are counted on exit, so a phase that raises counts
    like one that returns, whichever entry point ran it."""

    def test_failed_release_counts_on_every_path(self, mini_dataset):
        doomed = ReleaseRequest(10**9, named_spec(), seed=1)
        lone = ReleaseEngine(mini_dataset, backend="serial")
        with pytest.raises(ReproError):
            lone.execute(doomed)
        batched = ReleaseEngine(mini_dataset, backend="serial")
        (outcome,) = batched.execute_many([doomed], return_exceptions=True)
        assert isinstance(outcome, ReproError)
        for engine in (lone, batched):
            metrics = engine.metrics()
            assert metrics.phase_tasks == {"release": 1}
            assert set(metrics.phase_wall_s) == {"release"}
            assert metrics.releases_completed == 0

    def test_rejected_batch_times_its_admission(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, budget=0.3)
        requests = [
            ReleaseRequest(mini_outlier, named_spec(epsilon=0.2), seed=s)
            for s in (1, 2)
        ]
        with pytest.raises(PrivacyBudgetError):
            engine.submit_many(requests)
        metrics = engine.metrics()
        assert set(metrics.phase_wall_s) == {"admission"}
        assert metrics.phase_tasks == {}


class TestBudget:
    def test_over_budget_rejected_before_any_fm(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, budget=0.1)
        with pytest.raises(PrivacyBudgetError):
            engine.submit(ReleaseRequest(mini_outlier, named_spec(epsilon=0.2), seed=1))
        metrics = engine.metrics()
        assert metrics.fm_evaluations == 0
        assert metrics.n_verifiers == 0  # no component was even built
        assert metrics.requests_rejected == 1
        assert engine.spent == 0.0

    def test_mixed_detectors_and_epsilons_share_one_ledger(
        self, mini_dataset, mini_outlier, start
    ):
        engine = ReleaseEngine(mini_dataset, budget=0.4)
        engine.submit(
            ReleaseRequest(
                mini_outlier, named_spec(epsilon=0.1), starting_context=start, seed=1
            )
        )
        engine.submit(
            ReleaseRequest(
                mini_outlier,
                named_spec(detector="iqr", detector_kwargs={}, epsilon=0.15),
                seed=2,
            )
        )
        assert engine.spent == pytest.approx(0.25)
        assert engine.metrics().n_verifiers == 2

        fm_before = engine.metrics().fm_evaluations
        with pytest.raises(PrivacyBudgetError):
            engine.submit(
                ReleaseRequest(
                    mini_outlier, named_spec(epsilon=0.2), starting_context=start, seed=3
                )
            )
        assert engine.metrics().fm_evaluations == fm_before  # rejected pre-data
        assert engine.spent == pytest.approx(0.25)
        assert len(engine.accountant.ledger()) == 2
        assert engine.can_submit(0.15) and not engine.can_submit(0.2)

    def test_submit_many_rejects_whole_batch_upfront(self, mini_dataset, mini_outlier):
        """All-or-nothing: a rejected batch must not spend *any* budget."""
        engine = ReleaseEngine(mini_dataset, budget=0.3)
        requests = [
            ReleaseRequest(mini_outlier, named_spec(epsilon=0.2), seed=s)
            for s in (1, 2)
        ]
        with pytest.raises(PrivacyBudgetError, match="batch of 2"):
            engine.submit_many(requests)
        assert engine.spent == 0.0  # the first request was not charged either
        assert engine.metrics().fm_evaluations == 0
        assert engine.metrics().releases_completed == 0
        assert engine.metrics().requests_rejected == 2
        # The untouched budget still admits a single release.
        engine.submit(
            ReleaseRequest(mini_outlier, named_spec(epsilon=0.2), seed=1)
        )
        assert engine.spent == pytest.approx(0.2)

    def test_submit_many_matches_sequential_submits(
        self, mini_dataset, mini_outlier, start
    ):
        """Batch == sequence of singles under the substream contract: a
        shared generator yields one spawned child per request, in request
        order, on every execution backend."""
        import numpy as np

        spec = named_spec()
        batch = ReleaseEngine(mini_dataset).submit_many(
            [
                ReleaseRequest(mini_outlier, spec, starting_context=start, seed=gen)
                for gen in [np.random.default_rng(9)] * 2
            ]
        )
        engine = ReleaseEngine(mini_dataset)
        children = np.random.default_rng(9).spawn(2)
        sequential = [
            engine.submit(
                ReleaseRequest(mini_outlier, spec, starting_context=start, seed=child)
            )
            for child in children
        ]
        assert [r.context.bits for r in batch] == [
            r.context.bits for r in sequential
        ]


class TestAccountantInjection:
    """The server's hooks: a shared accountant and the execute() path."""

    def test_injected_accountant_is_charged_by_submit(
        self, mini_dataset, mini_outlier
    ):
        from repro.mechanisms.accounting import PrivacyAccountant

        shared = PrivacyAccountant(1.0)
        engine = ReleaseEngine(mini_dataset, accountant=shared)
        assert engine.accountant is shared
        engine.submit(ReleaseRequest(mini_outlier, named_spec(epsilon=0.25), seed=1))
        assert shared.spent == pytest.approx(0.25)
        # External charges count against the same ledger submit checks.
        shared.charge("external", 0.7)
        with pytest.raises(PrivacyBudgetError):
            engine.submit(
                ReleaseRequest(mini_outlier, named_spec(epsilon=0.25), seed=2)
            )
        engine.close()

    def test_budget_and_accountant_are_mutually_exclusive(self, mini_dataset):
        from repro.mechanisms.accounting import PrivacyAccountant

        with pytest.raises(PrivacyBudgetError, match="not both"):
            ReleaseEngine(
                mini_dataset, budget=1.0, accountant=PrivacyAccountant(1.0)
            )

    def test_execute_skips_the_ledger_but_counts_the_request(
        self, mini_dataset, mini_outlier
    ):
        engine = ReleaseEngine(mini_dataset, budget=0.1)
        result = engine.execute(
            ReleaseRequest(mini_outlier, named_spec(epsilon=0.5), seed=3)
        )
        assert result.record_id == mini_outlier
        assert engine.spent == 0.0  # admission happened elsewhere
        metrics = engine.metrics()
        assert metrics.requests_submitted == 1
        assert metrics.releases_completed == 1
        engine.close()

    def test_execute_matches_submit_bit_identically(
        self, mini_dataset, mini_outlier
    ):
        spec = named_spec(epsilon=0.5)
        submitting = ReleaseEngine(mini_dataset)
        executing = ReleaseEngine(mini_dataset)
        for seed in (5, 6):
            via_submit = submitting.submit(
                ReleaseRequest(mini_outlier, spec, seed=seed)
            )
            via_execute = executing.execute(
                ReleaseRequest(mini_outlier, spec, seed=seed)
            )
            assert via_execute.context.bits == via_submit.context.bits
        submitting.close()
        executing.close()

    def test_sinked_accountant_gives_durable_engine_accounting(
        self, mini_dataset, mini_outlier, tmp_path
    ):
        """Embedder path: an engine charging a sink-wired accountant gets
        the same WAL-replay durability the HTTP server has, without the
        tenant layer."""
        from repro.mechanisms.accounting import PrivacyAccountant
        from repro.server.ledger import JsonlLedgerStore

        path = tmp_path / "engine.ledger.jsonl"
        store = JsonlLedgerStore(path)
        accountant = PrivacyAccountant(
            0.5,
            sink=lambda label, cost: store.append(
                {"label": label, "epsilon": cost}
            ),
        )
        engine = ReleaseEngine(mini_dataset, accountant=accountant)
        engine.submit(ReleaseRequest(mini_outlier, named_spec(epsilon=0.3), seed=1))
        engine.close()
        store.close()

        # "Restart": replay the WAL into a fresh accountant; the budget
        # picture survives and over-budget submits stay rejected.
        replayed_store = JsonlLedgerStore(path)
        replayed = PrivacyAccountant(0.5)
        replayed.restore(
            [(r["label"], r["epsilon"]) for r in replayed_store.replay()]
        )
        restarted = ReleaseEngine(mini_dataset, accountant=replayed)
        assert restarted.spent == pytest.approx(0.3)
        with pytest.raises(PrivacyBudgetError):
            restarted.submit(
                ReleaseRequest(mini_outlier, named_spec(epsilon=0.3), seed=2)
            )
        restarted.close()
        replayed_store.close()

    def test_metrics_expose_ledger_breakdown(self, mini_dataset, mini_outlier):
        engine = ReleaseEngine(mini_dataset, budget=1.0)
        engine.submit(ReleaseRequest(mini_outlier, named_spec(epsilon=0.25), seed=1))
        metrics = engine.metrics()
        assert metrics.epsilon_budget == 1.0
        assert metrics.epsilon_remaining == pytest.approx(0.75)
        assert metrics.ledger_charges == 1
        body = metrics.to_dict()
        assert body["epsilon_budget"] == 1.0
        assert body["spend_by_tenant"] == {}  # filled by the server layer
        assert json.loads(json.dumps(body)) == body
        # Unbudgeted engines report the gauges as None, not 0.
        unbudgeted = ReleaseEngine(mini_dataset)
        assert unbudgeted.metrics().epsilon_budget is None
        engine.close()
        unbudgeted.close()


class TestCallableUtilityNeedsStart:
    """Satellite fix: callable specs are no longer silently start-free."""

    def test_attribute_flag_triggers_search(self, mini_dataset, mini_outlier):
        seen = {}

        def factory(verifier, record_id, starting_bits):
            seen["starting_bits"] = starting_bits
            return OverlapUtility(verifier, record_id, starting_bits)

        factory.needs_starting_context = True
        engine = ReleaseEngine(mini_dataset)
        result = engine.submit(
            ReleaseRequest(
                mini_outlier,
                named_spec(sampler="uniform", utility=factory),
                seed=4,
            )
        )
        assert seen["starting_bits"] is not None
        assert result.starting_context is not None

    def test_explicit_flag_via_pcor(self, mini_dataset, mini_detector, mini_outlier):
        seen = {}

        def factory(verifier, record_id, starting_bits):
            seen["starting_bits"] = starting_bits
            return OverlapUtility(verifier, record_id, starting_bits)

        from repro.core.sampling import UniformSampler

        pcor = PCOR(
            mini_dataset,
            mini_detector,
            utility=factory,
            epsilon=0.5,
            sampler=UniformSampler(n_samples=6),
            verifier=OutlierVerifier(mini_dataset, mini_detector),
            utility_needs_starting_context=True,
        )
        result = pcor.release(mini_outlier, seed=4)
        assert seen["starting_bits"] is not None
        assert result.starting_context is not None

    def test_unflagged_callable_stays_start_free(
        self, mini_dataset, mini_detector, mini_outlier
    ):
        """Without the flag, the engine keeps the historical behaviour."""
        seen = {}

        def factory(verifier, record_id, starting_bits):
            seen["starting_bits"] = starting_bits
            from repro.core.utility import PopulationSizeUtility

            return PopulationSizeUtility(verifier, record_id)

        from repro.core.sampling import UniformSampler

        pcor = PCOR(
            mini_dataset,
            mini_detector,
            utility=factory,
            epsilon=0.5,
            sampler=UniformSampler(n_samples=6),
            verifier=OutlierVerifier(mini_dataset, mini_detector),
        )
        result = pcor.release(mini_outlier, seed=4)
        assert seen["starting_bits"] is None
        assert result.starting_context is None


class TestFacadeIntegration:
    def test_pcor_exposes_its_engine(self, mini_dataset, mini_detector, mini_outlier, start):
        pcor = PCOR(
            mini_dataset,
            mini_detector,
            epsilon=0.5,
            verifier=OutlierVerifier(mini_dataset, mini_detector),
        )
        pcor.release(mini_outlier, starting_context=start, seed=1)
        assert pcor.engine.releases_completed == 1
        assert pcor.engine.metrics().fm_evaluations > 0

    def test_session_shares_engine_ledger(
        self, mini_dataset, mini_detector, mini_verifier, mini_outlier, start
    ):
        """Satellite fix: exactly one ledger between session and engine."""
        from repro.core.sampling import BFSSampler

        pcor = PCOR(
            mini_dataset,
            mini_detector,
            epsilon=0.2,
            sampler=BFSSampler(n_samples=6),
            verifier=mini_verifier,
        )
        session = ReleaseSession(pcor, total_budget=0.5)
        session.release(mini_outlier, starting_context=start, seed=1)
        session.release(mini_outlier, starting_context=start, seed=2)
        assert session.accountant is session.engine.accountant
        assert len(session.accountant.ledger()) == 2
        assert session.spent == pytest.approx(session.engine.spent)

    def test_session_results_share_objects(
        self, mini_dataset, mini_detector, mini_verifier, mini_outlier, start
    ):
        from repro.core.sampling import BFSSampler

        pcor = PCOR(
            mini_dataset,
            mini_detector,
            epsilon=0.2,
            sampler=BFSSampler(n_samples=6),
            verifier=mini_verifier,
        )
        session = ReleaseSession(pcor, total_budget=0.5)
        result = session.release(mini_outlier, starting_context=start, seed=1)
        listed = session.results
        assert listed[0] is result  # the result objects are shared...
        listed.append(None)
        assert len(session.results) == 1  # ...but the list is a fresh copy


class TestResultSerialization:
    def test_to_dict_round_trips_context_bits(
        self, mini_dataset, mini_outlier, start
    ):
        result = ReleaseEngine(mini_dataset).submit(
            ReleaseRequest(mini_outlier, named_spec(), starting_context=start, seed=1)
        )
        data = json.loads(result.to_json())
        assert data["record_id"] == mini_outlier
        assert data["context"]["bits"] == result.context.bits
        assert data["context"]["bitstring"] == result.context.to_bitstring()
        assert data["starting_context"]["bits"] == start.bits
        assert data["stats"]["candidates_collected"] >= 0
        assert data["epsilon_total"] == pytest.approx(0.5)

    def test_startless_result_serializes_null(self, mini_dataset, mini_outlier):
        result = ReleaseEngine(mini_dataset).submit(
            ReleaseRequest(mini_outlier, named_spec(sampler="uniform"), seed=1)
        )
        assert json.loads(result.to_json())["starting_context"] is None
