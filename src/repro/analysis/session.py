"""Budgeted multi-release sessions.

A data owner rarely answers a single query.  :class:`ReleaseSession` wraps
a :class:`~repro.core.pcor.PCOR` pipeline with a budgeted
:class:`~repro.service.engine.ReleaseEngine`, so that a sequence of
releases composes under a single total budget and over-budget queries fail
*before* any data is touched.  The session keeps exactly one ledger — the
engine's :class:`~repro.mechanisms.accounting.PrivacyAccountant` — so spend
is never double-counted between layers.

Differential privacy composes sequentially: releasing k contexts at
epsilon each costs k*epsilon in the worst case.  (OCDP inherits the same
composition for a fixed constraint function; note that releases about
*different* outliers condition on different ``COE_M(., V)`` constraints, so
the ledger tracks the total spend an adversary should be assumed to see.)
"""

from __future__ import annotations

from typing import List, Union

from repro.context.context import Context
from repro.core.pcor import PCOR
from repro.core.result import PCORResult
from repro.exceptions import PrivacyBudgetError
from repro.mechanisms.accounting import PrivacyAccountant
from repro.rng import RngLike
from repro.service.engine import ReleaseEngine, ReleaseRequest


class ReleaseSession:
    """A sequence of PCOR releases under one total privacy budget.

    Internally this is a budgeted :class:`ReleaseEngine` sharing the
    pipeline's verifier (and thus its profile cache and mask index), plus a
    log of results.
    """

    def __init__(self, pcor: PCOR, total_budget: float):
        self.pcor = pcor
        self.engine = ReleaseEngine(
            pcor.dataset, budget=total_budget, mask_index=pcor.verifier.masks
        )
        self.engine.adopt_verifier(pcor.verifier)
        self._results: List[PCORResult] = []

    @property
    def accountant(self) -> PrivacyAccountant:
        """The engine's ledger — the session's single source of spend truth."""
        return self.engine.accountant

    @property
    def spent(self) -> float:
        return self.accountant.spent

    @property
    def remaining(self) -> float:
        return self.accountant.remaining

    @property
    def results(self) -> List[PCORResult]:
        """All releases made in this session, in release order.

        The returned list is a fresh copy, but the :class:`PCORResult`
        entries are the session's own objects — in particular each result's
        ``stats`` is the sampler's mutable counter record, shared, not
        copied.  Treat results as read-only.
        """
        return list(self._results)

    def can_release(self) -> bool:
        """Would one more release at the pipeline's epsilon fit the budget?"""
        return self.engine.can_submit(self.pcor.epsilon)

    def release(
        self,
        record_id: int,
        starting_context: Union[None, int, Context] = None,
        seed: RngLike = None,
    ) -> PCORResult:
        """One budgeted release; the engine charges the ledger before
        touching data (even an aborted mechanism run may leak)."""
        if not self.can_release():
            raise PrivacyBudgetError(
                f"release needs epsilon={self.pcor.epsilon:g} but only "
                f"{self.remaining:.6g} of {self.accountant.budget:g} remains"
            )
        result = self.engine.submit(
            ReleaseRequest(
                record_id=record_id,
                spec=self.pcor.spec,
                starting_context=starting_context,
                seed=seed,
            )
        )
        self._results.append(result)
        return result

    def ledger_report(self) -> str:
        """Human-readable spend ledger."""
        lines = [
            f"privacy ledger (budget {self.accountant.budget:g}, "
            f"spent {self.spent:.6g}, remaining {self.remaining:.6g}):"
        ]
        for label, cost in self.accountant.ledger():
            lines.append(f"  {cost:.6g}  {label}")
        return "\n".join(lines)
