"""Algorithm 5 (BFS) scores each frontier context once, when it is admitted.

``RescoringBFS`` is a test-only copy of the loop this replaced, which
rescored the whole frontier before every draw.  A utility is fixed for a
dataset version, so both loops keep the same frontier in the same order and
hand the Exponential mechanism the same scores: their candidates, sampling
stats, RNG streams and ``f_M`` counts must be equal, and so must whole
releases through the engine.  A log of the utility's ``scores`` calls
checks that the kept loop scores the starting context and each admitted
child exactly once.  An append committed in the middle of a release checks
that the engine's final scoring, at the release's last dataset version,
keeps the release valid.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sampling import BFSSampler
from repro.core.sampling.base import SamplingRun, SamplingStats
from repro.core.utility import available_utilities, make_utility
from repro.core.verification import OutlierVerifier
from repro.data.generators import (
    SALARY_EMPLOYERS,
    SALARY_JOB_TITLES,
    SALARY_YEARS,
    salary_reduced,
    synthetic_salary_dataset,
)
from repro.data.masks import PredicateMaskIndex
from repro.exceptions import MechanismError
from repro.mechanisms.accounting import epsilon_one_for
from repro.mechanisms.exponential import ExponentialMechanism
from repro.schema import CategoricalAttribute, MetricAttribute, Schema
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

DETECTOR_KWARGS = {
    "lof": {"k": 5, "threshold": 1.5},
    "zscore": {"z_threshold": 2.5, "min_population": 8},
}

#: The micro schema of ``conftest.py``: three attributes of three values.
MINI_SCHEMA = Schema(
    attributes=[
        CategoricalAttribute("Jobtitle", SALARY_JOB_TITLES[:3]),
        CategoricalAttribute("Employer", SALARY_EMPLOYERS[:3]),
        CategoricalAttribute("Year", SALARY_YEARS[:3]),
    ],
    metric=MetricAttribute("Salary"),
)


def mini_dataset(n_records, seed):
    """``conftest.make_mini_dataset``."""
    return synthetic_salary_dataset(
        n_records=n_records, seed=seed, anomaly_fraction=0.04, schema=MINI_SCHEMA
    )


DATASETS = {
    "mini-300": lambda: mini_dataset(300, seed=3),
    "mini-160": lambda: mini_dataset(160, seed=11),
    "salary_reduced-600": lambda: salary_reduced(600, seed=1, anomaly_fraction=0.04),
    "salary_reduced-400": lambda: salary_reduced(400, seed=2, anomaly_fraction=0.04),
}


class RescoringBFS(BFSSampler):
    """The BFS loop as it was: every draw rescores the whole frontier."""

    def sample(self, verifier, utility, record_id, starting_bits, mechanism, rng):
        stats = SamplingStats()
        t = verifier.schema.t
        frontier = [int(starting_bits)]
        frontier_set = {int(starting_bits)}
        visited = []
        visited_set = set()
        while len(visited) < self.n_samples and frontier:
            stats.steps += 1
            scores = utility.scores(frontier)
            stats.mechanism_invocations += 1
            current, idx = mechanism.select(frontier, scores, rng)
            frontier[idx] = frontier[-1]
            frontier.pop()
            frontier_set.discard(current)
            visited.append(current)
            visited_set.add(current)
            stats.candidates_collected += 1
            children = [
                child
                for bit in range(t)
                if (child := current ^ (1 << bit)) not in visited_set
                and child not in frontier_set
            ]
            if children:
                stats.contexts_examined += len(children)
                matching = verifier.is_matching_many(children, record_id)
                for child, ok in zip(children, matching):
                    if ok:
                        frontier.append(child)
                        frontier_set.add(child)
        return SamplingRun(candidates=visited, stats=stats)


@functools.lru_cache(maxsize=None)
def dataset_and_masks(name):
    dataset = DATASETS[name]()
    return dataset, PredicateMaskIndex(dataset)


@functools.lru_cache(maxsize=None)
def exact_context_outliers(name, detector):
    """Records that are outliers of their own exact context, in id order."""
    dataset, _ = dataset_and_masks(name)
    verifier = fresh_verifier(name, detector)
    exact = sorted({dataset.record_bits(int(rid)) for rid in dataset.ids})
    found = set()
    for _, outliers in verifier.profiles(exact):
        found |= outliers
    return sorted(found)


def fresh_verifier(name, detector):
    dataset, masks = dataset_and_masks(name)
    spec = PipelineSpec(detector=detector, detector_kwargs=DETECTOR_KWARGS[detector])
    return OutlierVerifier(dataset, spec.build_detector(), masks)


def sample_with(sampler, verifier, utility_name, record_id, epsilon, seed):
    """One BFS sampling from the record's exact context; returns the run,
    the sampling RNG's final state and the ``f_M`` runs it made."""
    start = verifier.dataset.record_bits(record_id)
    utility = make_utility(utility_name, verifier, record_id, start)
    mechanism = ExponentialMechanism(
        epsilon_one_for("bfs", epsilon, sampler.n_samples),
        sensitivity=utility.sensitivity or 1.0,
    )
    rng = np.random.default_rng(seed)
    fm_before = verifier.fm_evaluations
    run = sampler.sample(verifier, utility, record_id, start, mechanism, rng)
    return run, rng.bit_generator.state, verifier.fm_evaluations - fm_before


def without_wall_time(result) -> dict:
    payload = result.to_dict()
    del payload["wall_time_s"]
    return payload


def spec_for(detector, utility, epsilon, n_samples, sampler="bfs"):
    return PipelineSpec(
        detector=detector,
        detector_kwargs=DETECTOR_KWARGS[detector],
        sampler=sampler,
        utility=utility,
        epsilon=epsilon,
        n_samples=n_samples,
    )


@st.composite
def bfs_cases(draw):
    name = draw(st.sampled_from(sorted(DATASETS)))
    detector = draw(st.sampled_from(sorted(DETECTOR_KWARGS)))
    outliers = exact_context_outliers(name, detector)
    record_id = draw(st.sampled_from(outliers))
    return dict(
        name=name,
        detector=detector,
        record_id=record_id,
        utility=draw(st.sampled_from(available_utilities())),
        epsilon=draw(st.sampled_from([0.01, 0.2, 1.0, 8.0])),
        n_samples=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestEqualsRescoringLoop:
    @given(case=bfs_cases())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sampling_is_identical(self, case):
        runs = []
        for sampler in (BFSSampler(case["n_samples"]), RescoringBFS(case["n_samples"])):
            verifier = fresh_verifier(case["name"], case["detector"])
            run, state, fm = sample_with(
                sampler, verifier, case["utility"], case["record_id"],
                case["epsilon"], case["seed"],
            )
            runs.append((run.candidates, asdict(run.stats), state, fm))
        assert runs[0] == runs[1]

    @given(case=bfs_cases())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_releases_are_identical(self, case):
        dataset, masks = dataset_and_masks(case["name"])
        payloads = []
        for sampler in ("bfs", RescoringBFS(case["n_samples"])):
            engine = ReleaseEngine(dataset, mask_index=masks, backend="serial")
            spec = spec_for(
                case["detector"], case["utility"], case["epsilon"],
                case["n_samples"], sampler,
            )
            result = engine.submit(
                ReleaseRequest(case["record_id"], spec, seed=case["seed"])
            )
            payloads.append(without_wall_time(result))
        assert payloads[0] == payloads[1]

    def test_batch_releases_are_identical(self):
        """A multi-record batch on the engine's configured backend (the
        process backend runs the kept loop in its workers) against the
        rescoring loop on a serial engine."""
        name = "salary_reduced-600"
        dataset, masks = dataset_and_masks(name)
        records = exact_context_outliers(name, "lof")[:4]
        assert len(records) == 4

        def requests(sampler):
            spec = spec_for("lof", "population_size", 0.5, 20, sampler)
            return [ReleaseRequest(rid, spec, seed=40 + i) for i, rid in enumerate(records)]

        with ReleaseEngine(dataset) as engine:
            kept = engine.execute_many(requests("bfs"))
            parallel = engine.backend.parallel
            if parallel:
                assert engine.metrics().release_tasks == len(records)
        reference = ReleaseEngine(dataset, mask_index=masks, backend="serial")
        rescored = reference.execute_many(requests(RescoringBFS(20)))
        for got, want in zip(kept, rescored):
            got, want = without_wall_time(got), without_wall_time(want)
            if parallel:
                # Worker stores start cold and take tasks in any order.
                del got["fm_evaluations"], want["fm_evaluations"]
            assert got == want


class ScoringLog:
    """Wraps ``utility.scores`` and ``verifier.is_matching_many`` on the
    instances: records every batch scored and the matching calls the
    sampler makes itself (not those a ``scores`` call makes)."""

    def __init__(self, verifier, utility):
        self.batches = []
        self.calls = []
        self._scoring = False
        inner_matching = verifier.is_matching_many
        inner_scores = utility.scores

        def is_matching_many(bits_seq, record_id):
            verdicts = inner_matching(bits_seq, record_id)
            if not self._scoring:
                self.calls.append((list(bits_seq), list(verdicts)))
            return verdicts

        def scores(bits_seq):
            self.batches.append([int(b) for b in bits_seq])
            self._scoring = True
            try:
                return inner_scores(bits_seq)
            finally:
                self._scoring = False

        verifier.is_matching_many = is_matching_many
        utility.scores = scores

    def admitted(self):
        return [b for bits, ok in self.calls for b, good in zip(bits, ok) if good]


class TestScoredOnce:
    @pytest.mark.parametrize("detector", sorted(DETECTOR_KWARGS))
    @pytest.mark.parametrize("utility_name", available_utilities())
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_admitted_context_scored_exactly_once(
        self, detector, utility_name, seed
    ):
        name = "salary_reduced-600"
        record_id = exact_context_outliers(name, detector)[seed]
        verifier = fresh_verifier(name, detector)
        start = verifier.dataset.record_bits(record_id)
        utility = make_utility(utility_name, verifier, record_id, start)
        log = ScoringLog(verifier, utility)
        mechanism = ExponentialMechanism(
            epsilon_one_for("bfs", 0.5, 30), sensitivity=utility.sensitivity or 1.0
        )
        run = BFSSampler(30).sample(
            verifier, utility, record_id, start, mechanism,
            np.random.default_rng(seed),
        )
        scored = [b for batch in log.batches for b in batch]
        assert scored == [start] + log.admitted()
        assert max(Counter(scored).values()) == 1
        # One scoring for the start, one per expansion that admitted any.
        assert len(log.batches) == 1 + sum(any(ok) for _, ok in log.calls)
        assert set(run.candidates) <= set(scored)
        assert len(run.candidates) > 1


def append_rows(dataset, record_id, count):
    """Clones of the record with every other value of its first attribute:
    they join the populations of contexts selecting those values, next to
    the record in metric order, and leave the record's exact context alone."""
    row = dict(dataset.record(record_id))
    attr = dataset.schema.attributes[0]
    others = [v for v in attr.domain if v != row[attr.name]]
    return [{**row, attr.name: others[i % len(others)]} for i in range(count)]


#: (detector, outlier index, appended rows, k, candidates the append made
#: stale): the k-th ``is_matching_many`` call after the starting-context
#: search commits the append.  In the stale cases a context matched when it
#: was collected and no longer matches at the release's last version.
APPEND_CASES = [
    ("lof", 0, 4, 5, 1),
    ("lof", 1, 4, 3, 0),
    ("zscore", 1, 4, 5, 1),
    ("zscore", 0, 12, 2, 0),
]

#: ``is_matching_many`` calls of the starting-context search: every case's
#: record matches its exact context, so the search asks one ``is_matching``,
#: a batch-of-one ``is_matching_many``.
START_SEARCH_CALLS = 1


class TestAppendMidRelease:
    @staticmethod
    def release_with_append(detector, outlier, n_rows, kth):
        """A lone release whose k-th ``is_matching_many`` call after the
        starting-context search first commits an append; returns the
        engine, the request and every mechanism selection ``(candidates,
        utilities, index)`` in order."""
        name = "mini-300"
        dataset, _ = dataset_and_masks(name)
        record_id = exact_context_outliers(name, detector)[outlier]
        engine = ReleaseEngine(dataset, backend="serial")
        request = ReleaseRequest(
            record_id, spec_for(detector, "population_size", 1.0, 25), seed=kth
        )
        verifier = engine.verifier_for(request.spec.build_detector())
        rows = append_rows(dataset, record_id, n_rows)
        inner = verifier.is_matching_many
        calls = []

        def is_matching_many(bits_seq, rid):
            calls.append(rid)
            if len(calls) == START_SEARCH_CALLS + kth:
                engine.append(rows)
            return inner(bits_seq, rid)

        selections = []
        inner_select = ExponentialMechanism.select

        def select(self, candidates, utilities, rng=None):
            chosen, idx = inner_select(self, candidates, utilities, rng)
            selections.append((list(candidates), np.asarray(utilities), idx))
            return chosen, idx

        verifier.is_matching_many = is_matching_many
        try:
            with mock.patch.object(ExponentialMechanism, "select", select):
                result = engine.submit(request)
        finally:
            assert len(calls) >= START_SEARCH_CALLS + kth
            assert len(engine.dataset) == len(dataset) + n_rows
        return engine, request, result, selections

    @pytest.mark.parametrize("detector,outlier,n_rows,kth,stale", APPEND_CASES)
    def test_release_is_valid_at_the_last_version(
        self, detector, outlier, n_rows, kth, stale
    ):
        engine, request, result, selections = self.release_with_append(
            detector, outlier, n_rows, kth
        )
        assert result.dataset_version == 1
        fresh = OutlierVerifier(engine.dataset, request.spec.build_detector())
        bits = result.context.bits
        assert fresh.is_matching(bits, request.record_id)
        utility = make_utility("population_size", fresh, request.record_id)
        assert result.utility_value == utility.score(bits)

        candidates, final, idx = selections[-1]
        assert candidates[idx] == bits
        assert np.isfinite(final[idx])
        # The engine's final scores are the grown dataset's.
        assert np.array_equal(final, utility.scores(candidates))
        assert int(np.isneginf(final).sum()) == stale

    def test_all_candidates_stale_releases_nothing(self):
        with pytest.raises(MechanismError, match="all candidates"):
            self.release_with_append("lof", 0, 4, 3)
