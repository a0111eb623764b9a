"""TenantBudgets against a model built from PrivacyAccountants.

The model is the tenant layer as it was written before running totals: a
dataset-global :class:`PrivacyAccountant`, one accountant per tenant with
a quota (pre-checked with ``can_charge``, charged after the global one),
and a plain sum for tenants without one.  Two rules are added to it: a
tenant is listed once one of its charges is admitted or replayed (a
refusal allocates nothing), and every replayed charge passes
``PrivacyAccountant.restore``'s check, whichever budgets apply.

Random admissions, batches, restarts and hand-written WAL records must
get the same decisions, error classes and messages from both, and equal
(``==``, not approximately) spends, totals and rejection counts.
"""

import math
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PrivacyBudgetError
from repro.mechanisms.accounting import PrivacyAccountant
from repro.server.ledger import InMemoryLedgerStore, JsonlLedgerStore
from repro.server.tenants import TenantBudgets

TENANTS = ("alice", "bob", "carol", "vip")
BUDGET = 1.0
QUOTA = 0.5
VIP_QUOTA = 0.75
EPSILONS = (
    0.0, -0.0, -0.1, float("nan"), float("inf"), float("-inf"), 1e-12,
    0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0, 1.5,
)


class Model:
    """Admission as the tenant layer did it with accountants."""

    def __init__(self, budget, default_budget, budgets, records):
        # An unbudgeted dataset keeps an accountant that never refuses, so
        # that the model has a dataset total to compare.
        self.budget = budget
        self.dataset = PrivacyAccountant(
            budget if budget is not None else sys.float_info.max
        )
        self.default_budget = default_budget
        self.budgets = budgets
        self.ledgers = {}
        self.unbounded = {}
        self.entered = []
        self.rejections = {}
        for record in records:
            tenant, label = str(record["tenant"]), str(record.get("label", ""))
            epsilon = float(record["epsilon"])
            self.dataset.restore([(label, epsilon)])
            ledger = self._ledger(tenant)
            if ledger is not None:
                ledger.restore([(label, epsilon)])
            else:
                PrivacyAccountant(1.0).restore([(label, epsilon)])
                self.unbounded[tenant] = self.unbounded.get(tenant, 0.0) + epsilon
            self._enter(tenant)

    def _ledger(self, tenant):
        quota = self.budgets.get(tenant, self.default_budget)
        if quota is None:
            return None
        return self.ledgers.setdefault(tenant, PrivacyAccountant(quota))

    def _enter(self, tenant):
        if tenant not in self.entered:
            self.entered.append(tenant)

    def _reject(self, tenant, error):
        self.rejections[tenant] = self.rejections.get(tenant, 0) + 1
        return error

    def admit(self, tenant, label, epsilon):
        if not (epsilon > 0.0 and math.isfinite(epsilon)):
            return self._reject(
                tenant,
                PrivacyBudgetError(
                    f"charge must be positive and finite, got {epsilon}"
                ),
            )
        ledger = self._ledger(tenant)
        if ledger is not None and not ledger.can_charge(epsilon):
            return self._reject(
                tenant,
                PrivacyBudgetError(
                    f"tenant {tenant!r} charge of {epsilon:.6g} exceeds its "
                    f"remaining budget {ledger.remaining:.6g} "
                    f"(quota {ledger.budget:.6g})"
                ),
            )
        try:
            self.dataset.charge(label, epsilon)
        except PrivacyBudgetError as exc:
            return self._reject(tenant, exc)
        if ledger is not None:
            ledger.charge(label, epsilon)
        else:
            self.unbounded[tenant] = self.unbounded.get(tenant, 0.0) + epsilon
        self._enter(tenant)
        return None

    def spent(self, tenant):
        ledger = self.ledgers.get(tenant)
        return ledger.spent if ledger is not None else self.unbounded.get(tenant, 0.0)

    def remaining(self, tenant):
        quota = self.budgets.get(tenant, self.default_budget)
        return None if quota is None else quota - self.spent(tenant)

    def totals(self):
        spent = self.dataset.spent
        return {
            "budget": self.budget,
            "spent": spent,
            "remaining": None if self.budget is None else self.budget - spent,
            "charges": self.dataset.charge_count,
        }


def same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


def build(config, store):
    """A TenantBudgets and a Model replaying ``store``, or the error both
    raised."""
    budget, default_budget, budgets = config
    try:
        real = TenantBudgets(budget, default_budget, budgets, store=store)
    except PrivacyBudgetError as exc:
        real = exc
    try:
        model = Model(budget, default_budget, budgets, list(store.replay()))
    except PrivacyBudgetError as exc:
        model = exc
    if isinstance(model, Exception):
        same_error(real, model)
        return None, None
    assert not isinstance(real, Exception), real
    return real, model


def compare(real, model):
    for tenant in TENANTS:
        assert real.spent(tenant) == model.spent(tenant)
        assert real.remaining(tenant) == model.remaining(tenant)
    assert real.spend_by_tenant() == {t: model.spent(t) for t in model.entered}
    assert real.rejections() == model.rejections
    assert real.totals() == model.totals()
    assert real.describe("alice")["spent"] == model.spent("alice")


tenant = st.sampled_from(TENANTS)
epsilon = st.sampled_from(EPSILONS) | st.floats(1e-6, 0.6)
charge = st.tuples(tenant, epsilon)
#: "exact" charges what the tenant's quota or the dataset's budget still
#: allows, times a factor: on the bound, within its float-dust tolerance,
#: on the tolerance's edge (exactly, while nothing is spent yet), or just
#: past it.
operation = st.one_of(
    st.tuples(st.just("admit"), charge),
    st.tuples(st.just("batch"), st.lists(charge, min_size=1, max_size=5)),
    st.tuples(
        st.just("exact"),
        tenant,
        st.sampled_from(["tenant", "dataset"]),
        st.sampled_from([1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 2e-9]),
    ),
    st.tuples(st.just("restart")),
    st.tuples(st.just("write"), charge),
)
configs = st.tuples(
    st.sampled_from([None, BUDGET]),
    st.sampled_from([None, QUOTA]),
    st.sampled_from([{}, {"vip": VIP_QUOTA}]),
)


@settings(max_examples=150, deadline=None)
@given(
    config=configs,
    operations=st.lists(operation, max_size=25),
    jsonl=st.booleans(),
)
def test_running_totals_match_the_accountant_model(config, operations, jsonl):
    with tempfile.TemporaryDirectory() as tmp:

        def open_store():
            if jsonl:
                return JsonlLedgerStore(Path(tmp) / "d.ledger.jsonl", fsync=False)
            return memory

        memory = InMemoryLedgerStore()
        store = open_store()
        real, model = build(config, store)
        for step, (kind, *args) in enumerate(operations):
            if real is None:
                break
            label = f"q{step}"
            if kind == "restart":
                store.close()
                store = open_store()
                real, model = build(config, store)
                continue
            if kind == "write":
                # A record appended by hand, as a crashed or older server
                # may have left it: replayed on the next restart.
                name, eps = args[0]
                store.append({"tenant": name, "label": label, "epsilon": eps})
                store.close()
                store = open_store()
                real, model = build(config, store)
                continue
            if kind == "exact":
                name, bound, factor = args
                if bound == "tenant":
                    room = model.remaining(name)
                else:
                    room = model.totals()["remaining"]
                charges = [(name, (room if room is not None else 0.5) * factor)]
            else:
                charges = [args[0]] if kind == "admit" else args[0]
            expected = [model.admit(n, label, float(e)) for n, e in charges]
            if kind == "batch":
                got = real.admit_many([(n, label, e) for n, e in charges])
            else:
                [(name, eps)] = charges
                try:
                    real.admit(name, label, eps)
                    got = [None]
                except PrivacyBudgetError as exc:
                    got = [exc]
            for g, w in zip(got, expected):
                if w is None:
                    assert g is None, g
                else:
                    same_error(g, w)
            compare(real, model)
        store.close()
