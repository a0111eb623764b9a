"""Structural analysis of a record's matching-context set inside the graph.

The graph samplers explore the subgraph of the hypercube induced by
``COE_M(D, V)``.  Their utility ceiling is therefore determined by the
*structure* of that subgraph, not just its size:

* if the COE splits into several connected components, a search started in
  one component can never reach a maximum context in another;
* even within one component, the utility-directed search has to cover the
  Hamming distance from the starting context to the best context within its
  ``n`` visits.

:func:`analyze_coe` quantifies both effects for one record; aggregated over
records it explains (and predicts) when BFS/DFS approach the direct
approach's utility and when they cannot — the laptop-scale deviations
documented in EXPERIMENTS.md were diagnosed with exactly this tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.reference import ReferenceFile
from repro.exceptions import EnumerationError


@dataclass(frozen=True)
class COEStructure:
    """Connectivity profile of one record's matching-context subgraph."""

    record_id: int
    n_matching: int
    n_components: int
    #: Sizes of the connected components, descending.
    component_sizes: Tuple[int, ...]
    #: Fraction of matching contexts lying in the component that contains
    #: the maximum-population context.
    max_component_coverage: float
    #: Maximum population over the whole COE.
    max_population: int
    #: Best population reachable from a *random* component, averaged over
    #: components weighted by size (the expected ceiling of a search whose
    #: starting context is drawn uniformly from the COE).
    expected_reachable_max: float
    #: Mean Hamming distance from a context to the best context of its own
    #: component (how far a search must travel).
    mean_distance_to_best: float

    @property
    def is_connected(self) -> bool:
        return self.n_components == 1

    @property
    def expected_ceiling_ratio(self) -> float:
        """Expected best-reachable population over the global maximum.

        This is an *upper bound* on the expected utility ratio of any
        graph sampler with a uniformly drawn starting context — a structural
        limit no amount of budget can beat.
        """
        if self.max_population == 0:
            return 1.0
        return self.expected_reachable_max / self.max_population


def _components(t: int, matching: Sequence[int]) -> List[List[int]]:
    """Connected components of the subgraph of ``Q_t`` induced by ``matching``.

    Neighbours are one-bit flips.  A component starts at each unseen context
    in ``matching`` order and is sorted; the list is then stable-sorted by
    size, descending.  That is the order networkx's ``connected_components``
    yields over the same graph, and the float sums in :func:`analyze_coe`
    follow it.
    """
    unseen = set(matching)
    components = []
    for start in matching:
        if start not in unseen:
            continue
        unseen.remove(start)
        component = [start]
        frontier = [start]
        while frontier:
            bits = frontier.pop()
            for b in range(t):
                nb = bits ^ (1 << b)
                if nb in unseen:
                    unseen.remove(nb)
                    component.append(nb)
                    frontier.append(nb)
        component.sort()
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def analyze_coe(
    reference: ReferenceFile, record_id: int, max_contexts: int = 100_000
) -> COEStructure:
    """Compute the COE connectivity profile of one record."""
    matching = reference.matching_contexts(record_id)
    if not matching:
        raise EnumerationError(f"record {record_id} has no matching contexts")
    if len(matching) > max_contexts:
        raise EnumerationError(
            f"COE of record {record_id} has {len(matching)} contexts "
            f"(> {max_contexts}); analysis refused"
        )
    components = _components(reference.schema.t, matching)

    pops = {bits: reference.population_size(bits) for bits in matching}
    max_population = max(pops.values())
    best_overall = max(matching, key=lambda b: pops[b])

    component_sizes = tuple(len(c) for c in components)
    max_component = next(c for c in components if best_overall in c)
    coverage = len(max_component) / len(matching)

    # Expected ceiling for a uniform starting context: land in component c
    # w.p. |c| / |COE|; from there the best reachable is max over c.
    expected_reachable = 0.0
    distances: List[int] = []
    for comp in components:
        comp_best = max(comp, key=lambda b: pops[b])
        expected_reachable += (len(comp) / len(matching)) * pops[comp_best]
        for bits in comp:
            distances.append((bits ^ comp_best).bit_count())

    return COEStructure(
        record_id=record_id,
        n_matching=len(matching),
        n_components=len(components),
        component_sizes=component_sizes,
        max_component_coverage=coverage,
        max_population=max_population,
        expected_reachable_max=expected_reachable,
        mean_distance_to_best=float(np.mean(distances)),
    )


def coe_structure_report(
    reference: ReferenceFile,
    record_ids: Sequence[int],
) -> Dict[str, float]:
    """Aggregate COE-structure statistics over a set of records.

    Returns summary metrics that calibrate expectations for the utility
    experiments (see EXPERIMENTS.md):

    * ``connected_fraction`` — records whose COE is a single component,
    * ``mean_components`` / ``mean_coverage`` — fragmentation measures,
    * ``mean_ceiling_ratio`` — the structural upper bound on graph-sampler
      utility with uniform starting contexts,
    * ``mean_distance_to_best`` — how deep searches must travel.
    """
    if not record_ids:
        raise EnumerationError("no record ids supplied")
    structures = [analyze_coe(reference, rid) for rid in record_ids]
    return {
        "n_records": float(len(structures)),
        "connected_fraction": float(
            np.mean([s.is_connected for s in structures])
        ),
        "mean_components": float(np.mean([s.n_components for s in structures])),
        "mean_coverage": float(
            np.mean([s.max_component_coverage for s in structures])
        ),
        "mean_ceiling_ratio": float(
            np.mean([s.expected_ceiling_ratio for s in structures])
        ),
        "mean_distance_to_best": float(
            np.mean([s.mean_distance_to_best for s in structures])
        ),
        "mean_coe_size": float(np.mean([s.n_matching for s in structures])),
    }
