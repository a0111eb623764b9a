"""Failure-injection tests: broken components must fail loudly, not corrupt.

Production DP systems have a hard requirement: a malfunctioning component
must never silently degrade into releasing something unintended.  These
tests inject faults (raising detectors, absurd parameters, poisoned inputs)
and assert clean propagation.
"""

import numpy as np
import pytest

from repro.core.enumeration import COEEnumerator
from repro.core.pcor import PCOR
from repro.core.sampling import BFSSampler
from repro.core.sampling.base import SamplingStats
from repro.core.verification import OutlierVerifier
from repro.exceptions import MechanismError, ReproError, SamplingError
from repro.mechanisms.exponential import ExponentialMechanism
from repro.outliers.base import OutlierDetector


class ExplodingDetector(OutlierDetector):
    """Raises after ``fuse`` invocations — simulates a mid-run fault."""

    name = "exploding"

    def __init__(self, fuse: int = 0, min_population: int = 1):
        super().__init__(min_population=min_population)
        self.fuse = fuse
        self.calls = 0

    def _outlier_positions(self, values):
        self.calls += 1
        if self.calls > self.fuse:
            raise RuntimeError("detector hardware fault")
        return np.empty(0, dtype=np.int64)


class NonDeterministicDetector(OutlierDetector):
    """Violates the determinism contract — used to document cache semantics."""

    name = "nondeterministic"

    def __init__(self):
        super().__init__(min_population=1)
        self._rng = np.random.default_rng(0)

    def _outlier_positions(self, values):
        k = int(self._rng.integers(0, max(1, values.shape[0])))
        return np.array([k], dtype=np.int64) if values.shape[0] else np.empty(0, dtype=np.int64)


class TestDetectorFaults:
    def test_detector_fault_propagates_from_verifier(self, mini_dataset):
        verifier = OutlierVerifier(mini_dataset, ExplodingDetector(fuse=0))
        with pytest.raises(RuntimeError, match="hardware fault"):
            verifier.context_profile(mini_dataset.schema.full_bits)

    def test_detector_fault_propagates_from_enumeration(self, mini_dataset):
        verifier = OutlierVerifier(mini_dataset, ExplodingDetector(fuse=3))
        enumerator = COEEnumerator(verifier)
        with pytest.raises(RuntimeError):
            enumerator.coe(int(mini_dataset.ids[0]))

    def test_mid_run_fault_leaves_no_partial_cache_entry(self, mini_dataset):
        verifier = OutlierVerifier(mini_dataset, ExplodingDetector(fuse=0))
        bits = mini_dataset.schema.full_bits
        with pytest.raises(RuntimeError):
            verifier.context_profile(bits)
        # The failed context must not be cached as "no outliers".
        assert len(verifier.profile_store) == 0

    def test_nondeterministic_detector_is_masked_by_cache(self, mini_dataset):
        """The verifier caches per context, so within one verifier even a
        faulty nondeterministic detector yields stable answers — the cache
        is the last line of defence for release validity."""
        verifier = OutlierVerifier(mini_dataset, NonDeterministicDetector())
        bits = mini_dataset.schema.full_bits
        first = verifier.outlier_ids(bits)
        for _ in range(5):
            assert verifier.outlier_ids(bits) == first


class TestPoisonedInputs:
    def test_sampler_with_foreign_starting_context_rejected(
        self, mini_dataset, mini_detector, mini_verifier, mini_outlier
    ):
        pcor = PCOR(
            mini_dataset, mini_detector, sampler=BFSSampler(n_samples=4),
            verifier=mini_verifier,
        )
        with pytest.raises(ReproError):
            pcor.release(mini_outlier, starting_context=1 << 60, seed=0)

    def test_mechanism_rejects_poisoned_utilities(self, rng):
        mech = ExponentialMechanism(0.1)
        with pytest.raises(MechanismError):
            mech.select_index([1.0, float("nan"), 2.0], rng)

    def test_verifier_mismatched_pcor_dataset(self, mini_dataset, mini_detector):
        other = mini_dataset.without_records([int(mini_dataset.ids[0])])
        verifier = OutlierVerifier(other, mini_detector)
        with pytest.raises(SamplingError, match="different dataset"):
            PCOR(mini_dataset, mini_detector, verifier=verifier)


class TestStatsMerge:
    def test_merge_adds_counters(self):
        a = SamplingStats(candidates_collected=2, contexts_examined=10,
                          mechanism_invocations=1, steps=5)
        b = SamplingStats(candidates_collected=3, contexts_examined=7,
                          mechanism_invocations=2, steps=4)
        merged = a.merge(b)
        assert merged.candidates_collected == 5
        assert merged.contexts_examined == 17
        assert merged.mechanism_invocations == 3
        assert merged.steps == 9
        # Originals untouched.
        assert a.candidates_collected == 2
