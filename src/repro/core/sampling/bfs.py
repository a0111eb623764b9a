"""Algorithm 5 — Differentially Private Breadth-First Search sampling.

The frontier ``C_M`` acts as a priority queue: at each iteration the
Exponential mechanism draws the next context to visit from the *whole*
frontier (weighted by utility), its matching unvisited children join the
frontier, and the loop continues until ``n`` contexts are visited or the
frontier empties.  Like DFS, each of the ``n`` draws costs
``2 * epsilon_1`` and the final selection another ``2 * epsilon_1``, so the
total is ``(2n + 2) * epsilon_1`` (Theorem 5.7).

BFS's edge over DFS (Tables 2-5): drawing from the whole frontier lets the
search jump to any promising region discovered so far instead of being
committed to the current branch.

Each frontier context is scored once, when it is admitted, and keeps that
score until it is drawn: ``frontier_scores`` sits beside ``frontier`` under
the same swap-pop.  That is exact.  A utility is deterministic for a
dataset version, so rescoring the frontier before every draw would return
the scores it already holds, in the same frontier order, and the Gumbel
draws, the candidates and the ``f_M`` runs stay the same; only store reads
go.  If an append lands mid-release, a kept score can be stale and a
context that no longer matches can be visited.  The engine rescores every
candidate at the release's last dataset version before the final
selection, where such a context scores ``-inf`` and cannot be released.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling.base import Sampler, SamplingRun, SamplingStats, register_sampler
from repro.core.utility import UtilityFunction
from repro.core.verification import OutlierVerifier
from repro.exceptions import SamplingError
from repro.mechanisms.exponential import ExponentialMechanism


class BFSSampler(Sampler):
    """Utility-directed, privacy-randomised best-first (breadth) search."""

    name = "bfs"
    accounting_name = "bfs"
    requires_starting_context = True

    def sample(
        self,
        verifier: OutlierVerifier,
        utility: UtilityFunction,
        record_id: int,
        starting_bits: int | None,
        mechanism: ExponentialMechanism,
        rng: np.random.Generator,
    ) -> SamplingRun:
        if starting_bits is None:
            raise SamplingError("BFS needs a starting context")
        stats = SamplingStats()
        t = verifier.schema.t
        frontier: list[int] = [int(starting_bits)]
        # Each frontier context's utility, scored once when it was admitted.
        frontier_scores: list[float] = utility.scores(frontier).tolist()
        frontier_set: set[int] = {int(starting_bits)}
        visited: list[int] = []
        visited_set: set[int] = set()

        while len(visited) < self.n_samples and frontier:
            stats.steps += 1
            stats.mechanism_invocations += 1
            current, idx = mechanism.select(frontier, frontier_scores, rng)
            # Remove from the frontier (swap-pop keeps this O(1)).
            frontier[idx] = frontier[-1]
            frontier.pop()
            frontier_scores[idx] = frontier_scores[-1]
            frontier_scores.pop()
            frontier_set.discard(current)

            visited.append(current)
            visited_set.add(current)
            stats.candidates_collected += 1

            # All t one-bit-flip children, tested in one batched f_M pass.
            children = [
                child
                for bit in range(t)
                if (child := current ^ (1 << bit)) not in visited_set
                and child not in frontier_set
            ]
            if children:
                stats.contexts_examined += len(children)
                matching = verifier.is_matching_many(children, record_id)
                admitted = [child for child, ok in zip(children, matching) if ok]
                if admitted:
                    frontier.extend(admitted)
                    frontier_scores.extend(utility.scores(admitted).tolist())
                    frontier_set.update(admitted)

        return SamplingRun(candidates=visited, stats=stats)


register_sampler("bfs", BFSSampler)
