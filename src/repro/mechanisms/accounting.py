"""Privacy-budget accounting for PCOR's five algorithms.

The paper proves per-algorithm OCDP costs in terms of the Exponential
mechanism's per-invocation parameter ``epsilon_1``:

========================  =======================  ======================
Algorithm                 Theorem                  Total OCDP epsilon
========================  =======================  ======================
Direct (Alg 1)            4.1                      ``2 * eps1``
Uniform sampling (Alg 2)  5.1                      ``2 * eps1``
Random walk (Alg 3)       5.3                      ``2 * eps1``
DP-DFS (Alg 4)            5.5                      ``(2n + 2) * eps1``
DP-BFS (Alg 5)            5.7                      ``(2n + 2) * eps1``
========================  =======================  ======================

(`n` = number of samples; all with ``Delta_u <= 1``.)  Section 6.3 confirms
the split: a total budget of 0.2 gives ``eps1 ~= 0.002`` for DFS/BFS at
``n = 50`` and ``eps1 = 0.1`` for Uniform/RandomWalk.

:func:`epsilon_one_for` is the single source of truth for this split;
:class:`PrivacyAccountant` tracks spend across multiple mechanism
invocations under basic (sequential) composition.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import PrivacyBudgetError

#: Budget multipliers, i.e. total epsilon = multiplier(n) * epsilon_1.
_SPLITS = {
    "direct": lambda n: 2.0,
    "uniform": lambda n: 2.0,
    "random_walk": lambda n: 2.0,
    "dfs": lambda n: 2.0 * n + 2.0,
    "bfs": lambda n: 2.0 * n + 2.0,
}


def budget_multiplier(algorithm: str, n_samples: int = 0) -> float:
    """``total_epsilon / epsilon_1`` for the named algorithm."""
    key = algorithm.lower()
    if key not in _SPLITS:
        raise PrivacyBudgetError(
            f"unknown algorithm {algorithm!r}; known: {sorted(_SPLITS)}"
        )
    if key in ("dfs", "bfs") and n_samples < 1:
        raise PrivacyBudgetError(
            f"{algorithm} needs n_samples >= 1 to split the budget, got {n_samples}"
        )
    return _SPLITS[key](n_samples)


def epsilon_one_for(algorithm: str, total_epsilon: float, n_samples: int = 0) -> float:
    """Per-invocation ``epsilon_1`` so the run costs ``total_epsilon`` of OCDP."""
    if not (total_epsilon > 0.0 and math.isfinite(total_epsilon)):
        raise PrivacyBudgetError(
            f"total_epsilon must be positive and finite, got {total_epsilon}"
        )
    return total_epsilon / budget_multiplier(algorithm, n_samples)


def total_epsilon_for(algorithm: str, epsilon_one: float, n_samples: int = 0) -> float:
    """Total OCDP budget consumed when invoking with ``epsilon_1``."""
    if not (epsilon_one > 0.0 and math.isfinite(epsilon_one)):
        raise PrivacyBudgetError(
            f"epsilon_one must be positive and finite, got {epsilon_one}"
        )
    return epsilon_one * budget_multiplier(algorithm, n_samples)


def group_privacy_epsilon(epsilon: float, group_size: int) -> float:
    """Budget implied for groups of ``group_size`` correlated records.

    Standard DP group privacy: an epsilon-DP mechanism is (k*epsilon)-DP for
    datasets differing in k records.  Section 6.7 evaluates PCOR's OCDP
    constraint at group distances Delta-D in {1, 5, 10, 25}; this helper
    gives the corresponding formal budget when the constraint holds at
    distance ``group_size``.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise PrivacyBudgetError(f"epsilon must be positive and finite, got {epsilon}")
    if group_size < 1:
        raise PrivacyBudgetError(f"group_size must be >= 1, got {group_size}")
    return epsilon * group_size


@dataclass
class PrivacyAccountant:
    """Sequential-composition ledger.

    Every mechanism invocation is charged at its worst-case cost; the
    accountant refuses charges that would exceed the budget.  The
    check-then-append in :meth:`charge` (and the batch variant
    :meth:`charge_many`) is atomic under the accountant's lock, so
    concurrent engine callers can never overdraw — or double-charge — the
    budget by racing each other.

    Persistence hooks:

    * ``sink`` — a callable ``(label, cost)`` invoked under the lock after
      every *admitted* charge, so an observer (e.g. a write-ahead ledger)
      sees charges in ledger order with no gaps or reorderings.  This is
      the hook for embedders who charge an accountant directly (say, a
      budgeted :class:`~repro.service.engine.ReleaseEngine` outside the
      HTTP server) and still want durable spend; the server's tenant
      layer instead writes richer tenant-stamped records itself, in
      :meth:`repro.server.tenants.TenantBudgets.admit`.  A sink that
      raises aborts the caller *after* the in-memory append — the
      conservative direction: budget counts as spent even if the durable
      record failed.
    * :meth:`restore` — re-append charges replayed from an authoritative
      ledger *without* the budget check (and without notifying the sink),
      so a restarted service faithfully reconstructs its spend even when
      the replayed total exceeds a since-lowered budget; subsequent
      charges are then rejected as over-budget.  The server's
      :class:`~repro.server.tenants.TenantBudgets` replays its
      write-ahead ledger into running totals by the same rules.
    """

    budget: float
    sink: Optional[Callable[[str, float], None]] = None
    _ledger: List[Tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (self.budget > 0.0 and math.isfinite(self.budget)):
            raise PrivacyBudgetError(f"budget must be positive and finite, got {self.budget}")
        self._lock = threading.RLock()
        # Running total, maintained on every append: admission and budget
        # snapshots run per request under the lock, and recomputing an
        # fsum over the whole ledger there would make a long-lived server
        # O(charges^2) cumulative.
        self._spent_total = math.fsum(cost for _, cost in self._ledger)

    @property
    def spent(self) -> float:
        with self._lock:
            return self._spent_total

    @property
    def remaining(self) -> float:
        with self._lock:
            return self.budget - self.spent

    def _check_and_append(self, charges: Sequence[Tuple[str, float]]) -> None:
        for label, cost in charges:
            if cost < 0.0 or not math.isfinite(cost):
                raise PrivacyBudgetError(
                    f"charge must be finite and >= 0, got {cost}"
                )
        total = math.fsum(cost for _, cost in charges)
        # Tolerate float dust from splitting eps across many invocations.
        if self.spent + total > self.budget * (1.0 + 1e-9):
            label = charges[0][0] if len(charges) == 1 else f"batch of {len(charges)}"
            raise PrivacyBudgetError(
                f"charge {label!r} of {total:.6g} exceeds remaining budget "
                f"{self.remaining:.6g} (total {self.budget:.6g})"
            )
        self._ledger.extend((label, float(cost)) for label, cost in charges)
        self._spent_total = math.fsum((self._spent_total, total))
        if self.sink is not None:
            for label, cost in charges:
                self.sink(label, float(cost))

    def can_charge(self, cost: float) -> bool:
        """Would :meth:`charge` admit ``cost`` right now?

        Uses the exact admission arithmetic of :meth:`charge` (including
        the float-dust tolerance), so a caller holding an outer lock that
        serialises every mutation of this accountant may rely on
        ``can_charge`` → ``charge`` never failing.
        """
        if cost < 0.0 or not math.isfinite(cost):
            return False
        with self._lock:
            return self.spent + cost <= self.budget * (1.0 + 1e-9)

    def charge(self, label: str, cost: float) -> None:
        """Record a charge; raises if it would overdraw the budget."""
        with self._lock:
            self._check_and_append([(label, cost)])

    def charge_many(self, charges: Sequence[Tuple[str, float]]) -> None:
        """Atomically record a batch of charges, all or nothing.

        Either every charge fits the remaining budget and all are appended,
        or none are — and no other thread can slip a charge in between the
        check and the append.
        """
        if not charges:
            return
        with self._lock:
            self._check_and_append(list(charges))

    def restore(self, charges: Sequence[Tuple[str, float]]) -> None:
        """Replay charges from an authoritative external ledger.

        Appends without the budget check and without notifying the sink
        (the charges already live in the durable ledger being replayed).
        Costs must still be finite and non-negative — a corrupt replay
        record is an error, not a spend.
        """
        cleaned = []
        for label, cost in charges:
            cost = float(cost)
            if cost < 0.0 or not math.isfinite(cost):
                raise PrivacyBudgetError(
                    f"replayed charge {label!r} must be finite and >= 0, got {cost}"
                )
            cleaned.append((str(label), cost))
        with self._lock:
            self._ledger.extend(cleaned)
            self._spent_total = math.fsum(
                [self._spent_total, *(cost for _, cost in cleaned)]
            )

    def ledger(self) -> List[Tuple[str, float]]:
        """A copy of all (label, cost) charges so far."""
        with self._lock:
            return list(self._ledger)

    @property
    def charge_count(self) -> int:
        """``len(ledger())`` without copying the ledger."""
        with self._lock:
            return len(self._ledger)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrivacyAccountant(spent={self.spent:.6g}, budget={self.budget:.6g}, "
            f"charges={len(self._ledger)})"
        )
