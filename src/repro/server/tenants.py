"""Per-analyst quotas and the dataset-global budget, kept as running totals.

The paper's deployment model (Sections 1, 6.3) is a data owner answering
repeated budgeted queries from analysts.  Two budgets govern every query:

* the **dataset-global** budget — the formal OCDP guarantee of the dataset;
* a **per-tenant** quota — the owner's policy, bounding how much of the
  global budget any single analyst may burn.

The durable :class:`~repro.server.ledger.LedgerStore` (the write-ahead
ledger, WAL) is the only per-charge record.  :class:`TenantBudgets` keeps
running totals beside it — each tenant's spend, the dataset's total and
its charge count — under one lock, and admits a charge against *both*
budgets or neither: both checks and the update run in one critical
section, with the arithmetic of the library's accountant
(:mod:`repro.mechanisms.accounting`): running sums, the same ``1e-9``
float-dust tolerance, the same refusal texts.  A tenant enters the totals
only when one of its charges is admitted or replayed, so refused or
probing names allocate nothing.

Durability: every admitted charge is appended to the store *before*
:meth:`admit` returns (one fsync per batch with the JSONL store), and a
fresh manager replays the store on construction — so a restarted server
resumes with every tenant exactly as exhausted as it was.  The charge is
persisted before the release executes; a release that subsequently fails
still consumed its epsilon (the conservative direction — an aborted
mechanism run may leak).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import LedgerError, PrivacyBudgetError
from repro.server.ledger import InMemoryLedgerStore, LedgerStore


class TenantBudgets:
    """Atomic admission against tenant quotas and the dataset budget, over
    a durable write-ahead store.

    Parameters
    ----------
    budget:
        The dataset-global OCDP budget (``None`` leaves the dataset
        globally unbudgeted and only tenant quotas apply).
    default_budget:
        Budget granted to any tenant not named in ``budgets``.  ``None``
        means unnamed tenants are only bounded by the global budget.
    budgets:
        Per-tenant overrides, ``{tenant: budget}``.
    store:
        Durable charge store.  Existing records are replayed into the
        totals on construction (without re-checking budgets — the store
        is authoritative).  Defaults to a fresh in-memory store.
    dataset:
        Name stamped into persisted records (one store may be shared by
        one dataset; the name makes records self-describing for audits).
    """

    def __init__(
        self,
        budget: Optional[float] = None,
        default_budget: Optional[float] = None,
        budgets: Optional[Mapping[str, float]] = None,
        store: Optional[LedgerStore] = None,
        dataset: str = "default",
    ) -> None:
        self.budget = budget
        self.default_budget = default_budget
        self._budgets = {str(k): float(v) for k, v in dict(budgets or {}).items()}
        for what, value in (
            ("budget", budget),
            ("default tenant budget", default_budget),
            *((f"tenant {k!r} budget", v) for k, v in self._budgets.items()),
        ):
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise PrivacyBudgetError(
                    f"{what} must be positive and finite, got {value}"
                )
        self.dataset = str(dataset)
        self.store = store if store is not None else InMemoryLedgerStore()
        self._spent: Dict[str, float] = {}
        self._total = 0.0
        self._charges = 0
        self._rejections: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._replay()

    def _replay(self) -> None:
        """Rebuild the running totals from the durable store."""
        for record in self.store.replay():
            try:
                tenant = str(record["tenant"])
                label = str(record.get("label", ""))
                epsilon = float(record["epsilon"])
            except (KeyError, TypeError, ValueError) as exc:
                raise LedgerError(
                    f"unreplayable ledger record {record!r}: {exc}"
                ) from None
            # A corrupt replay record is an error, not a spend.
            if epsilon < 0.0 or not math.isfinite(epsilon):
                raise PrivacyBudgetError(
                    f"replayed charge {label!r} must be finite and >= 0, "
                    f"got {epsilon}"
                )
            self._add(tenant, epsilon)

    def _add(self, tenant: str, epsilon: float) -> None:
        self._spent[tenant] = self._spent.get(tenant, 0.0) + epsilon
        self._total += epsilon
        self._charges += 1

    def budget_for(self, tenant: str) -> Optional[float]:
        """The quota this tenant is entitled to (``None`` = unbounded)."""
        return self._budgets.get(str(tenant), self.default_budget)

    # ---------------------------------------------------------- admission

    def admit(self, tenant: str, label: str, epsilon: float) -> None:
        """Atomically charge ``epsilon`` to the tenant *and* the dataset.

        Raises :class:`PrivacyBudgetError` — and charges nothing anywhere —
        if either budget lacks room.  On success the charge is durably
        persisted before returning.
        """
        [error] = self.admit_many([(tenant, label, epsilon)])
        if error is not None:
            raise error

    def admit_many(
        self, charges: Sequence[Tuple[str, str, float]]
    ) -> List[Optional[PrivacyBudgetError]]:
        """Admit a batch of ``(tenant, label, epsilon)`` charges at once.

        Admission is *per charge* all-or-nothing, exactly as
        :meth:`admit` — but the whole batch holds the lock once and the
        admitted charges reach the durable store in one group-commit
        ``append_many`` (a single fsync with the JSONL store), which is
        what makes a coalesced admission front end worth having.

        Returns one entry per charge, in order: ``None`` for an admitted
        charge, the :class:`PrivacyBudgetError` it would have raised
        otherwise (counted in :meth:`rejections`).  One exhausted tenant
        therefore cannot reject the strangers batched alongside it, and
        every admitted charge is persisted exactly once — before this
        method returns.
        """
        outcomes: List[Optional[PrivacyBudgetError]] = []
        records: List[dict] = []
        with self._lock:
            for tenant, label, epsilon in charges:
                tenant, label, epsilon = str(tenant), str(label), float(epsilon)
                error = self._refusal(tenant, label, epsilon)
                outcomes.append(error)
                if error is not None:
                    self._rejections[tenant] = self._rejections.get(tenant, 0) + 1
                    continue
                self._add(tenant, epsilon)
                records.append(
                    {
                        "tenant": tenant,
                        "dataset": self.dataset,
                        "label": label,
                        "epsilon": epsilon,
                    }
                )
            if records:
                self.store.append_many(records)
        return outcomes

    def _refusal(
        self, tenant: str, label: str, epsilon: float
    ) -> Optional[PrivacyBudgetError]:
        """Why ``epsilon`` cannot be charged to ``tenant`` now (``None`` if
        it can); the caller holds the lock."""
        if not (epsilon > 0.0 and math.isfinite(epsilon)):
            return PrivacyBudgetError(
                f"charge must be positive and finite, got {epsilon}"
            )
        quota = self.budget_for(tenant)
        spent = self._spent.get(tenant, 0.0)
        if quota is not None and spent + epsilon > quota * (1.0 + 1e-9):
            return PrivacyBudgetError(
                f"tenant {tenant!r} charge of {epsilon:.6g} exceeds its "
                f"remaining budget {quota - spent:.6g} (quota {quota:.6g})"
            )
        if self.budget is not None and (
            self._total + epsilon > self.budget * (1.0 + 1e-9)
        ):
            return PrivacyBudgetError(
                f"charge {label!r} of {epsilon:.6g} exceeds remaining budget "
                f"{self.budget - self._total:.6g} (total {self.budget:.6g})"
            )
        return None

    # ------------------------------------------------------------ introspection

    def spent(self, tenant: str) -> float:
        """Epsilon this tenant has spent so far."""
        with self._lock:
            return self._spent.get(str(tenant), 0.0)

    def remaining(self, tenant: str) -> Optional[float]:
        """Tenant quota still unspent (``None`` = unbounded)."""
        quota = self.budget_for(tenant)
        return None if quota is None else quota - self.spent(tenant)

    def spend_by_tenant(self) -> Dict[str, float]:
        """``{tenant: epsilon_spent}`` over every tenant with an admitted
        or replayed charge."""
        with self._lock:
            return dict(self._spent)

    def rejections(self) -> Dict[str, int]:
        """``{tenant: admission_rejections}`` (monotonic)."""
        with self._lock:
            return dict(self._rejections)

    def tenants(self) -> List[str]:
        """Every tenant with recorded spend, sorted."""
        return sorted(self.spend_by_tenant())

    def totals(self) -> Dict[str, Any]:
        """The dataset's figures: its ``budget``, the ``spent`` total of
        every charge, the ``remaining`` budget (both ``None`` without a
        global budget) and the number of ``charges``."""
        with self._lock:
            spent, charges = self._total, self._charges
        remaining = None if self.budget is None else self.budget - spent
        return {
            "budget": self.budget,
            "spent": spent,
            "remaining": remaining,
            "charges": charges,
        }

    def describe(self, tenant: str) -> Dict[str, Any]:
        """JSON-able budget snapshot for one tenant (the ``/v1/budget`` body)."""
        snapshot: Dict[str, Any] = {
            "tenant": str(tenant),
            "budget": self.budget_for(tenant),
            "spent": self.spent(tenant),
            "remaining": self.remaining(tenant),
        }
        if self.budget is not None:
            totals = self.totals()
            snapshot["dataset_budget"] = totals["budget"]
            snapshot["dataset_spent"] = totals["spent"]
            snapshot["dataset_remaining"] = totals["remaining"]
        return snapshot

    def close(self) -> None:
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantBudgets(dataset={self.dataset!r}, budget={self.budget}, "
            f"tenants={len(self._spent)}, default={self.default_budget}, "
            f"store={type(self.store).__name__})"
        )
