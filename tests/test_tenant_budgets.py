"""TenantBudgets: atomic two-budget admission and durable replay."""

import tracemalloc

import pytest

from repro.exceptions import LedgerError, PrivacyBudgetError
from repro.server.ledger import InMemoryLedgerStore, JsonlLedgerStore
from repro.server.tenants import TenantBudgets


class TestAdmission:
    def test_charges_both_ledgers(self):
        tenants = TenantBudgets(1.0, default_budget=0.5)
        tenants.admit("alice", "q1", 0.2)
        assert tenants.totals()["spent"] == pytest.approx(0.2)
        assert tenants.spent("alice") == pytest.approx(0.2)
        assert tenants.remaining("alice") == pytest.approx(0.3)

    def test_tenant_rejection_leaves_global_untouched(self):
        tenants = TenantBudgets(10.0, default_budget=0.3)
        tenants.admit("alice", "q1", 0.25)
        with pytest.raises(PrivacyBudgetError, match="tenant 'alice'"):
            tenants.admit("alice", "q2", 0.25)
        assert tenants.totals()["spent"] == pytest.approx(0.25)
        assert tenants.spent("alice") == pytest.approx(0.25)
        assert len(tenants.store.replay()) == 1
        assert tenants.rejections() == {"alice": 1}

    def test_global_rejection_leaves_tenant_untouched(self):
        tenants = TenantBudgets(0.3, default_budget=1.0)
        tenants.admit("alice", "q1", 0.25)
        with pytest.raises(PrivacyBudgetError):
            tenants.admit("bob", "q2", 0.25)
        assert tenants.spent("bob") == 0.0
        assert tenants.remaining("bob") == pytest.approx(1.0)
        assert len(tenants.store.replay()) == 1

    def test_per_tenant_overrides_beat_default(self):
        tenants = TenantBudgets(
            None, default_budget=0.1, budgets={"vip": 1.0}
        )
        tenants.admit("vip", "q", 0.5)
        with pytest.raises(PrivacyBudgetError):
            tenants.admit("joe", "q", 0.5)
        assert tenants.budget_for("vip") == 1.0
        assert tenants.budget_for("joe") == 0.1

    def test_unbounded_tenants_still_hit_global(self):
        tenants = TenantBudgets(0.4)  # no tenant quotas at all
        tenants.admit("alice", "q1", 0.3)
        with pytest.raises(PrivacyBudgetError):
            tenants.admit("alice", "q2", 0.3)
        assert tenants.spent("alice") == pytest.approx(0.3)
        assert tenants.remaining("alice") is None
        assert tenants.spend_by_tenant() == {"alice": pytest.approx(0.3)}

    def test_bad_epsilon_rejected_without_side_effects(self):
        tenants = TenantBudgets(1.0, default_budget=0.5)
        for bad in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(PrivacyBudgetError):
                tenants.admit("alice", "q", bad)
        assert tenants.spent("alice") == 0.0
        assert tenants.store.replay() == []

    def test_invalid_charge_refusal_is_counted(self):
        """``requests_rejected`` sums these counts, so an invalid charge
        counts like a budget refusal and still reaches no ledger."""
        tenants = TenantBudgets(default_budget=1.0)
        [error] = tenants.admit_many([("a", "q", -1.0)])
        assert isinstance(error, PrivacyBudgetError)
        assert "positive and finite" in str(error)
        assert tenants.rejections() == {"a": 1}
        assert tenants.store.replay() == []

    def test_bad_default_budget_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            TenantBudgets(None, default_budget=-1.0)


class TestDurability:
    def test_admitted_charges_are_persisted_before_return(self):
        store = InMemoryLedgerStore()
        tenants = TenantBudgets(
            1.0, default_budget=0.5, store=store, dataset="d"
        )
        tenants.admit("alice", "q1", 0.2)
        [record] = store.replay()
        assert record == {
            "tenant": "alice",
            "dataset": "d",
            "label": "q1",
            "epsilon": 0.2,
        }

    def test_replay_restores_tenant_and_global_spend(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        store = JsonlLedgerStore(path)
        tenants = TenantBudgets(1.0, default_budget=0.4, store=store)
        tenants.admit("alice", "q1", 0.2)
        tenants.admit("alice", "q2", 0.2)
        tenants.admit("bob", "q3", 0.1)
        tenants.close()

        # "Restart": fresh totals, same ledger file.
        restarted = TenantBudgets(
            1.0,
            default_budget=0.4,
            store=JsonlLedgerStore(path),
        )
        assert restarted.spent("alice") == pytest.approx(0.4)
        assert restarted.spent("bob") == pytest.approx(0.1)
        assert restarted.totals()["spent"] == pytest.approx(0.5)
        # Alice stays exhausted across the restart...
        with pytest.raises(PrivacyBudgetError, match="tenant 'alice'"):
            restarted.admit("alice", "q4", 0.05)
        # ...and bob keeps the quota he has left.
        restarted.admit("bob", "q4", 0.3)
        restarted.close()

    def test_replay_survives_torn_tail_and_keeps_rejecting(self, tmp_path):
        """The ISSUE's crash scenario: a torn final record is truncated,
        replay is clean, and over-budget requests stay rejected."""
        path = tmp_path / "d.ledger.jsonl"
        tenants = TenantBudgets(
            None, default_budget=0.2, store=JsonlLedgerStore(path)
        )
        tenants.admit("alice", "q1", 0.1)
        tenants.admit("alice", "q2", 0.1)  # alice now exhausted
        tenants.close()
        with open(path, "ab") as fh:
            fh.write(b'{"tenant": "alice", "epsilon": 0.1, "la')  # torn

        restarted = TenantBudgets(
            None, default_budget=0.2, store=JsonlLedgerStore(path)
        )
        assert restarted.spent("alice") == pytest.approx(0.2)
        with pytest.raises(PrivacyBudgetError):
            restarted.admit("alice", "q3", 0.1)
        restarted.close()

    def test_replay_exceeding_lowered_budget_blocks_everything(self, tmp_path):
        path = tmp_path / "d.ledger.jsonl"
        tenants = TenantBudgets(
            None, default_budget=1.0, store=JsonlLedgerStore(path)
        )
        tenants.admit("alice", "q1", 0.8)
        tenants.close()
        # The owner tightens the quota below the already-recorded spend.
        restarted = TenantBudgets(
            None, default_budget=0.5, store=JsonlLedgerStore(path)
        )
        assert restarted.spent("alice") == pytest.approx(0.8)
        with pytest.raises(PrivacyBudgetError):
            restarted.admit("alice", "q2", 0.01)
        restarted.close()

    def test_unreplayable_record_raises_ledger_error(self):
        store = InMemoryLedgerStore()
        store.append({"dataset": "d", "label": "q"})  # no tenant/epsilon
        with pytest.raises(LedgerError, match="unreplayable"):
            TenantBudgets(None, default_budget=1.0, store=store)

    @pytest.mark.parametrize("budget", [None, 10.0], ids=["unbudgeted", "budget"])
    @pytest.mark.parametrize("quota", [None, 1.0], ids=["no-quota", "quota"])
    def test_replay_refuses_negative_or_non_finite_charges(self, budget, quota):
        """Every replayed record passes the same check, whichever budgets
        apply: a negative or non-finite charge is corruption, not spend."""
        cases = [
            ([("alice", 0.5), ("alice", -0.4), ("bob", float("nan"))], "-0.4"),
            ([("bob", float("nan"))], "nan"),
            ([("bob", float("inf"))], "inf"),
        ]
        for charges, bad in cases:
            store = InMemoryLedgerStore()
            for tenant, epsilon in charges:
                store.append({"tenant": tenant, "label": "q", "epsilon": epsilon})
            with pytest.raises(
                PrivacyBudgetError,
                match=f"replayed charge 'q' must be finite and >= 0, got {bad}$",
            ):
                TenantBudgets(budget, default_budget=quota, store=store)

    def test_wal_bytes_are_pinned(self, tmp_path):
        """The WAL format: one line per admitted charge, ``"v"`` stamped,
        sorted keys, compact separators, ASCII escapes; refusals write
        nothing."""
        path = tmp_path / "d.ledger.jsonl"
        tenants = TenantBudgets(
            default_budget=0.5,
            store=JsonlLedgerStore(path, fsync=False),
            dataset="d",
        )
        tenants.admit("alice", "q1", 0.1)
        tenants.admit_many(
            [("bob", "q\n2 caf\u00e9", 0.25), ("alice", "q3", 0.5), ("alice", "q4", 0.4)]
        )
        tenants.close()
        assert path.read_bytes() == (
            b'{"dataset":"d","epsilon":0.1,"label":"q1","tenant":"alice","v":1}\n'
            b'{"dataset":"d","epsilon":0.25,"label":"q\\n2 caf\\u00e9",'
            b'"tenant":"bob","v":1}\n'
            b'{"dataset":"d","epsilon":0.4,"label":"q4","tenant":"alice","v":1}\n'
        )

    def test_admissions_retain_no_memory_per_charge(self, tmp_path):
        """The WAL is the only per-charge record: once every tenant has a
        charge, further admissions leave nothing behind in the process."""
        tenants = TenantBudgets(
            1e9,
            default_budget=1e6,
            store=JsonlLedgerStore(tmp_path / "d.ledger.jsonl", fsync=False),
        )
        names = [f"tenant-{i}" for i in range(8)]

        def admit(count):
            for i in range(count):
                name = names[i % len(names)]
                tenants.admit(name, f"release(tenant={name}, n={i})", 0.2)

        admit(800)  # warm-up: every tenant enters the totals
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            admit(20_000)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert retained < 256 * 1024
        assert len(tenants.store) == 20_800
        tenants.close()


class TestIntrospection:
    def test_describe_is_json_able(self):
        import json

        tenants = TenantBudgets(1.0, default_budget=0.5)
        tenants.admit("alice", "q", 0.1)
        snapshot = tenants.describe("alice")
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["spent"] == pytest.approx(0.1)
        assert snapshot["dataset_remaining"] == pytest.approx(0.9)

    def test_read_only_probes_allocate_no_state(self):
        """Anyone can put any name in the tenant header: probing budgets
        must not grow the tenant table or the metrics breakdown."""
        tenants = TenantBudgets(1.0, default_budget=0.5)
        for i in range(50):
            name = f"scraper-{i}"
            assert tenants.remaining(name) == 0.5
            assert tenants.spent(name) == 0.0
            assert tenants.describe(name)["remaining"] == 0.5
        assert tenants.spend_by_tenant() == {}
        assert tenants.tenants() == []

    def test_refused_new_names_allocate_nothing(self):
        """A tenant enters the totals only once a charge of its is admitted
        (or replayed): refusals are counted and allocate no tenant state."""
        tenants = TenantBudgets(0.25, default_budget=0.5, budgets={"vip": 0.3})
        tenants.admit("alice", "q", 0.2)
        before = tenants.spend_by_tenant()
        for i in range(100):
            name = f"stranger-{i}"
            # Over the quota, over the dataset budget, or not a charge at all.
            epsilon = (0.6, 0.1, float("nan"), 0.0)[i % 4]
            [error] = tenants.admit_many([(name, "q", epsilon)])
            assert isinstance(error, PrivacyBudgetError)
        with pytest.raises(PrivacyBudgetError):
            tenants.admit("vip", "q", 0.31)
        assert tenants.spend_by_tenant() == before == {"alice": 0.2}
        assert sum(tenants.rejections().values()) == 101
        assert tenants.totals() == {
            "budget": 0.25, "spent": 0.2, "remaining": 0.25 - 0.2, "charges": 1
        }

    def test_tenants_listing(self):
        tenants = TenantBudgets(None, default_budget=1.0)
        tenants.admit("bob", "q", 0.1)
        tenants.admit("alice", "q", 0.1)
        assert tenants.tenants() == ["alice", "bob"]
