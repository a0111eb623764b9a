"""Oracle tests: Algorithm 1 and the reference build through the batched
enumeration equal their per-context loops.

``per_context_release`` is the direct approach as its own pipeline: one
scalar ``is_matching`` call per containing context, then its own budget
split, Exponential mechanism and result assembly.  ``per_context_entries``
profiles the structurally valid contexts one ``context_profile`` call each,
and ``max_utility`` is checked against one ``score`` call per context.
Both run on fresh verifiers for the z-score mini detector, which computes
full profiles, and for a LOF detector, whose record-bound reads compute
record-scoped windows.  The enumeration chunk is shrunk so that a record's
64 containing contexts and the 343 valid contexts span several chunks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import Context, ContextSpace
from repro.core import enumeration
from repro.core.direct import DirectPCOR
from repro.core.reference import ContextEntry, ReferenceFile
from repro.core.result import PCORResult
from repro.core.sampling.base import SamplingStats
from repro.core.utility import available_utilities, make_utility
from repro.core.verification import OutlierVerifier
from repro.data.masks import PredicateMaskIndex
from repro.exceptions import SamplingError
from repro.mechanisms.accounting import epsilon_one_for
from repro.mechanisms.exponential import ExponentialMechanism
from repro.outliers.lof import LOFDetector
from repro.outliers.zscore import ZScoreDetector
from repro.rng import ensure_rng

SMALL_CHUNK = 5


def per_context_release(
    verifier, utility, record_id, epsilon, rng, half_sensitivity=False
) -> PCORResult:
    """Algorithm 1 with one scalar matching test per containing context."""
    gen = ensure_rng(rng)
    fm_before = verifier.fm_evaluations
    stats = SamplingStats()
    candidates = []
    record_bits = verifier.dataset.record_bits(record_id)
    for ctx in ContextSpace(verifier.schema).enumerate_containing(record_bits):
        stats.contexts_examined += 1
        if verifier.is_matching(ctx.bits, record_id):
            candidates.append(ctx.bits)
    stats.candidates_collected = len(candidates)
    if not candidates:
        raise SamplingError(
            f"record {record_id} has no matching context; COE_M is empty"
        )
    eps1 = epsilon_one_for("direct", epsilon)
    mechanism = ExponentialMechanism(
        eps1,
        sensitivity=utility.sensitivity or 1.0,
        half_sensitivity=half_sensitivity,
    )
    scores = utility.scores(candidates)
    stats.mechanism_invocations += 1
    chosen, _ = mechanism.select(candidates, scores, gen)
    return PCORResult(
        context=Context(verifier.schema, chosen),
        record_id=record_id,
        utility_value=float(utility.score(chosen)),
        utility_name=utility.name,
        epsilon_total=epsilon,
        epsilon_one=eps1,
        algorithm="direct",
        n_candidates=len(candidates),
        starting_context=None,
        stats=stats,
        fm_evaluations=verifier.fm_evaluations - fm_before,
        wall_time_s=0.0,
    )


def per_context_entries(verifier):
    """The reference file's ``(bits, entry)`` pairs, one profile per call."""
    out = []
    for ctx in ContextSpace(verifier.schema).enumerate_valid():
        pop, outliers = verifier.context_profile(ctx.bits)
        out.append((ctx.bits, ContextEntry(ctx.bits, pop, tuple(sorted(outliers)))))
    return out


def without_wall_time(result: PCORResult) -> dict:
    payload = result.to_dict()
    del payload["wall_time_s"]
    return payload


DETECTORS = {
    "zscore": lambda: ZScoreDetector(z_threshold=2.5, min_population=8),
    "lof": lambda: LOFDetector(k=5, threshold=1.5),
}


@pytest.fixture(scope="module", params=sorted(DETECTORS))
def bench(request, mini_dataset):
    """Mask index, detector and reference file for one mini detector."""
    detector = DETECTORS[request.param]()
    masks = PredicateMaskIndex(mini_dataset)
    reference = ReferenceFile.build(OutlierVerifier(mini_dataset, detector, masks))
    if request.param == "lof":
        assert detector.locality is not None  # record-scoped windows
    return masks, detector, reference


class TestDirectRelease:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_per_context_algorithm_1(self, bench, data):
        masks, detector, reference = bench
        record_id = data.draw(st.sampled_from(reference.outlier_records()))
        starting_bits = data.draw(
            st.sampled_from(reference.matching_contexts(record_id))
        )
        utility_name = data.draw(st.sampled_from(available_utilities()))
        epsilon = data.draw(st.floats(min_value=0.01, max_value=50.0))
        half_sensitivity = data.draw(st.booleans())
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))

        def fresh():
            verifier = OutlierVerifier(masks.dataset, detector, masks)
            utility = make_utility(utility_name, verifier, record_id, starting_bits)
            return verifier, utility

        verifier, utility = fresh()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "CHUNK_SIZE", SMALL_CHUNK)
            direct = DirectPCOR(
                verifier, epsilon=epsilon, half_sensitivity=half_sensitivity
            )
            released = direct.release(utility, record_id, seed)
        verifier, utility = fresh()
        expected = per_context_release(
            verifier, utility, record_id, epsilon, seed, half_sensitivity
        )
        assert without_wall_time(released) == without_wall_time(expected)


class TestReferenceBuild:
    @pytest.mark.parametrize("chunk", [SMALL_CHUNK, enumeration.CHUNK_SIZE])
    def test_equals_per_context_profiles(self, bench, chunk, monkeypatch):
        masks, detector, _ = bench
        batched = OutlierVerifier(masks.dataset, detector, masks)
        monkeypatch.setattr(enumeration, "CHUNK_SIZE", chunk)
        built = ReferenceFile.build(batched)
        looped = OutlierVerifier(masks.dataset, detector, masks)
        assert list(built._entries.items()) == per_context_entries(looped)
        assert batched.fm_evaluations == looped.fm_evaluations == len(built)

    def test_max_utility_equals_per_context_max(self, bench):
        masks, detector, reference = bench
        verifier = OutlierVerifier(masks.dataset, detector, masks)
        for record_id in reference.outlier_records()[::10]:
            matching = reference.matching_contexts(record_id)
            for name in available_utilities():
                utility = make_utility(name, verifier, record_id, matching[-1])
                expected = max(utility.score(bits) for bits in matching)
                assert reference.max_utility(record_id, utility) == expected
