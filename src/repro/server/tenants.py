"""Per-analyst budgets layered on the dataset-global accountant.

The paper's deployment model (Sections 1, 6.3) is a data owner answering
repeated budgeted queries from analysts.  Two ledgers govern every query:

* the **dataset-global** :class:`~repro.mechanisms.accounting.PrivacyAccountant`
  — the formal OCDP guarantee of the dataset, shared with the
  :class:`~repro.service.engine.ReleaseEngine` so engine-side views
  (``/v1/budget``, ``EngineMetrics``) and admission can never disagree;
* a **per-tenant** accountant — the owner's quota policy, bounding how much
  of the global budget any single analyst may burn.

:class:`TenantBudgets` admits a charge against *both atomically or
neither*: all tenant-path mutations are serialised under one manager lock,
the tenant ledger is pre-checked there, the global accountant (which other
threads may charge directly) is charged through its own atomic
check-then-append, and only then is the tenant ledger appended — a global
rejection therefore leaves the tenant ledger untouched, and a tenant
rejection happens before the global ledger is touched at all.

Durability: every admitted charge is appended to the
:class:`~repro.server.ledger.LedgerStore` *before* :meth:`admit` returns
(fsync-per-charge with the JSONL store), and a fresh manager replays the
store on construction — so a restarted server resumes with every tenant
exactly as exhausted as it was.  The charge is persisted before the
release executes; a release that subsequently fails still consumed its
epsilon (the conservative direction — an aborted mechanism run may leak).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import LedgerError, PrivacyBudgetError
from repro.mechanisms.accounting import PrivacyAccountant
from repro.server.ledger import InMemoryLedgerStore, LedgerStore


class TenantBudgets:
    """Atomic two-ledger admission with a durable write-ahead store.

    Parameters
    ----------
    accountant:
        The dataset-global accountant (usually the engine's own; ``None``
        leaves the dataset globally unbudgeted and only tenant quotas
        apply).
    default_budget:
        Budget granted to any tenant not named in ``budgets``.  ``None``
        means unnamed tenants are only bounded by the global ledger.
    budgets:
        Per-tenant overrides, ``{tenant: budget}``.
    store:
        Durable charge store.  Existing records are replayed into both
        ledgers on construction (without re-checking budgets — the store
        is authoritative).  Defaults to a fresh in-memory store.
    dataset:
        Name stamped into persisted records (one store may be shared by
        one dataset; the name makes records self-describing for audits).
    """

    def __init__(
        self,
        accountant: Optional[PrivacyAccountant] = None,
        default_budget: Optional[float] = None,
        budgets: Optional[Mapping[str, float]] = None,
        store: Optional[LedgerStore] = None,
        dataset: str = "default",
    ) -> None:
        if default_budget is not None and not (
            default_budget > 0.0 and math.isfinite(default_budget)
        ):
            raise PrivacyBudgetError(
                f"default tenant budget must be positive and finite, "
                f"got {default_budget}"
            )
        self.accountant = accountant
        self.default_budget = default_budget
        self.dataset = str(dataset)
        self.store = store if store is not None else InMemoryLedgerStore()
        self._budgets = {str(k): float(v) for k, v in dict(budgets or {}).items()}
        self._tenants: Dict[str, PrivacyAccountant] = {}
        # Spend of quota-less tenants (no accountant to ask), kept so the
        # metrics breakdown still covers them.
        self._unbounded_spend: Dict[str, float] = {}
        self._rejections: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._replay()

    # ------------------------------------------------------------- replay

    def _replay(self) -> None:
        """Reconstruct both ledgers from the durable store."""
        for record in self.store.replay():
            try:
                tenant = str(record["tenant"])
                label = str(record.get("label", ""))
                epsilon = float(record["epsilon"])
            except (KeyError, TypeError, ValueError) as exc:
                raise LedgerError(
                    f"unreplayable ledger record {record!r}: {exc}"
                ) from None
            if self.accountant is not None:
                self.accountant.restore([(label, epsilon)])
            ledger = self._tenant_ledger(tenant)
            if ledger is not None:
                ledger.restore([(label, epsilon)])
            else:
                self._unbounded_spend[tenant] = (
                    self._unbounded_spend.get(tenant, 0.0) + epsilon
                )

    # ------------------------------------------------------------ ledgers

    def budget_for(self, tenant: str) -> Optional[float]:
        """The quota this tenant is entitled to (``None`` = unbounded)."""
        return self._budgets.get(str(tenant), self.default_budget)

    def _tenant_ledger(self, tenant: str) -> Optional[PrivacyAccountant]:
        """The tenant's accountant, created lazily (``None`` if unbounded).

        Only ever mutated under ``self._lock`` — that exclusivity is what
        makes the pre-check in :meth:`admit` sound.
        """
        budget = self.budget_for(tenant)
        if budget is None:
            return None
        ledger = self._tenants.get(tenant)
        if ledger is None:
            ledger = PrivacyAccountant(budget)
            self._tenants[tenant] = ledger
        return ledger

    # ---------------------------------------------------------- admission

    def admit(self, tenant: str, label: str, epsilon: float) -> None:
        """Atomically charge ``epsilon`` to the tenant *and* global ledgers.

        Raises :class:`PrivacyBudgetError` — and charges nothing anywhere —
        if either ledger lacks room.  On success the charge is durably
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
        :meth:`admit` — but the whole batch holds the manager lock once and
        the admitted charges reach the durable store in one group-commit
        ``append_many`` (a single fsync with the JSONL store), which is
        what makes a coalesced admission front end worth having.

        Returns one entry per charge, in order: ``None`` for an admitted
        charge, the :class:`PrivacyBudgetError` it would have raised
        otherwise.  One exhausted tenant therefore cannot reject the
        strangers batched alongside it, and every admitted charge is
        persisted exactly once — before this method returns.
        """
        outcomes: List[Optional[PrivacyBudgetError]] = []
        records: List[dict] = []
        with self._lock:
            for tenant, label, epsilon in charges:
                tenant = str(tenant)
                epsilon = float(epsilon)
                error = self._admit_one_locked(tenant, str(label), epsilon)
                outcomes.append(error)
                if error is None:
                    records.append(
                        {
                            "tenant": tenant,
                            "dataset": self.dataset,
                            "label": str(label),
                            "epsilon": epsilon,
                        }
                    )
            if records:
                append_many = getattr(self.store, "append_many", None)
                if append_many is not None:
                    append_many(records)
                else:  # minimal LedgerStore implementations
                    for record in records:
                        self.store.append(record)
        return outcomes

    def _admit_one_locked(
        self, tenant: str, label: str, epsilon: float
    ) -> Optional[PrivacyBudgetError]:
        """Charge both in-memory ledgers for one admission (caller holds
        the lock and owns durable persistence); returns the rejection
        instead of raising so batch callers can keep going."""
        if not (epsilon > 0.0 and math.isfinite(epsilon)):
            self._rejections[tenant] = self._rejections.get(tenant, 0) + 1
            return PrivacyBudgetError(
                f"charge must be positive and finite, got {epsilon}"
            )
        ledger = self._tenant_ledger(tenant)
        # Pre-check the tenant ledger: exclusively managed under this
        # lock, so a passing check cannot be invalidated before the
        # append below.
        if ledger is not None and not ledger.can_charge(epsilon):
            self._rejections[tenant] = self._rejections.get(tenant, 0) + 1
            return PrivacyBudgetError(
                f"tenant {tenant!r} charge of {epsilon:.6g} exceeds its "
                f"remaining budget {ledger.remaining:.6g} "
                f"(quota {ledger.budget:.6g})"
            )
        # The global accountant may be charged concurrently by callers
        # outside the tenant layer, so go through its own atomic
        # check-then-append rather than trusting a pre-check.
        if self.accountant is not None:
            try:
                self.accountant.charge(label, epsilon)
            except PrivacyBudgetError as exc:
                self._rejections[tenant] = self._rejections.get(tenant, 0) + 1
                return exc
        if ledger is not None:
            ledger.charge(label, epsilon)  # cannot fail: pre-checked
        else:
            self._unbounded_spend[tenant] = (
                self._unbounded_spend.get(tenant, 0.0) + epsilon
            )
        return None

    # ------------------------------------------------------------ introspection

    def spent(self, tenant: str) -> float:
        """Epsilon this tenant has spent so far."""
        tenant = str(tenant)
        with self._lock:
            ledger = self._tenants.get(tenant)
            if ledger is None:
                return self._unbounded_spend.get(tenant, 0.0)
        return ledger.spent

    def remaining(self, tenant: str) -> Optional[float]:
        """Tenant quota still unspent (``None`` = unbounded).

        Read-only: probing an unseen tenant (anyone can put any name in the
        header) must not allocate ledger state, or a scraper could grow the
        tenant table — and the metrics breakdown — without bound.
        """
        tenant = str(tenant)
        budget = self.budget_for(tenant)
        if budget is None:
            return None
        with self._lock:
            ledger = self._tenants.get(tenant)
        return budget if ledger is None else ledger.remaining

    def spend_by_tenant(self) -> Dict[str, float]:
        """``{tenant: epsilon_spent}`` across every tenant seen so far."""
        with self._lock:
            out = dict(self._unbounded_spend)
            for tenant, ledger in self._tenants.items():
                out[tenant] = ledger.spent
        return out

    def rejections(self) -> Dict[str, int]:
        """``{tenant: admission_rejections}`` (monotonic)."""
        with self._lock:
            return dict(self._rejections)

    def tenants(self) -> List[str]:
        """Every tenant with recorded spend, sorted."""
        return sorted(self.spend_by_tenant())

    def describe(self, tenant: str) -> Dict[str, Any]:
        """JSON-able budget snapshot for one tenant (the ``/v1/budget`` body)."""
        quota = self.budget_for(tenant)
        snapshot: Dict[str, Any] = {
            "tenant": str(tenant),
            "budget": quota,
            "spent": self.spent(tenant),
            "remaining": self.remaining(tenant),
        }
        if self.accountant is not None:
            snapshot["dataset_budget"] = self.accountant.budget
            snapshot["dataset_spent"] = self.accountant.spent
            snapshot["dataset_remaining"] = self.accountant.remaining
        return snapshot

    def close(self) -> None:
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantBudgets(dataset={self.dataset!r}, "
            f"tenants={len(self._tenants)}, default={self.default_budget}, "
            f"store={type(self.store).__name__})"
        )
