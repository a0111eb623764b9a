"""Starting-context search (Section 5.2, footnote 5).

Every graph-based sampler begins at a *valid* starting context ``C_V`` for
the queried outlier, which "the data owner can obtain through an initial
search".  Two strategies are provided:

* :func:`find_starting_context` — a containment-preserving random local
  search from the record's exact context, requiring no precomputation.
* :func:`starting_context_from_reference` — draw from the record's known
  matching contexts in a prebuilt :class:`~repro.core.reference.ReferenceFile`
  (what the paper's evaluation effectively does).

The local search only ever *adds* predicates outside the record's own bits
or removes previously added ones, so every visited context contains ``V`` by
construction and each check is a single ``f_M`` call.
"""

from __future__ import annotations

from repro.context.context import Context
from repro.core.reference import ReferenceFile
from repro.core.verification import OutlierVerifier
from repro.exceptions import SamplingError
from repro.rng import RngLike, ensure_rng


def find_starting_context(
    verifier: OutlierVerifier,
    record_id: int,
    rng: RngLike = None,
    max_steps: int = 2000,
    restarts: int = 8,
) -> Context:
    """Random local search for a matching context of ``record_id``.

    Starts each restart from the record's exact context and randomly toggles
    bits outside the record's own values, checking ``f_M`` after every move.
    Raises :class:`SamplingError` when no matching context is found within
    the step budget — the record may simply not be a contextual outlier.
    """
    gen = ensure_rng(rng)
    schema = verifier.schema
    record_bits = verifier.dataset.record_bits(record_id)
    free_bits = [b for b in range(schema.t) if not (record_bits >> b) & 1]

    if verifier.is_matching(record_bits, record_id):
        return Context(schema, record_bits)

    steps_per_restart = max(1, max_steps // max(1, restarts))
    for _ in range(max(1, restarts)):
        bits = record_bits
        # Begin from a random superset: diversifies restarts.
        for b in free_bits:
            if gen.random() < 0.5:
                bits |= 1 << b
        if verifier.is_matching(bits, record_id):
            return Context(schema, bits)
        for _ in range(steps_per_restart):
            if not free_bits:
                break
            b = free_bits[int(gen.integers(0, len(free_bits)))]
            bits ^= 1 << b
            if verifier.is_matching(bits, record_id):
                return Context(schema, bits)
    raise SamplingError(
        f"no matching context found for record {record_id} within "
        f"{max_steps} steps; is it a contextual outlier under this detector?"
    )


def starting_context_from_reference(
    reference: ReferenceFile,
    record_id: int,
    rng: RngLike = None,
    mode: str = "random",
) -> Context:
    """Pick a starting context from the record's known matching contexts.

    ``mode``:
      * ``"random"`` — uniform over matching contexts (default; what an
        initial search would plausibly land on),
      * ``"min"`` / ``"max"`` — smallest / largest population, giving
        worst/best-case starting points for ablations.
    """
    matching = reference.matching_contexts(record_id)
    if not matching:
        raise SamplingError(
            f"record {record_id} has no matching context in the reference file"
        )
    if mode == "random":
        gen = ensure_rng(rng)
        bits = matching[int(gen.integers(0, len(matching)))]
    elif mode == "min":
        bits = min(matching, key=reference.population_size)
    elif mode == "max":
        bits = max(matching, key=reference.population_size)
    else:
        raise SamplingError(f"unknown starting-context mode {mode!r}")
    return Context(reference.schema, bits)
