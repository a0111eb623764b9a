"""Unit tests for privacy-budget accounting (the theorems' epsilon splits)."""

import pytest

from repro.exceptions import PrivacyBudgetError
from repro.mechanisms import PrivacyAccountant, epsilon_one_for, total_epsilon_for
from repro.mechanisms.accounting import budget_multiplier


class TestBudgetSplit:
    def test_direct_theorem_4_1(self):
        # total = 2 * eps1
        assert epsilon_one_for("direct", 0.2) == pytest.approx(0.1)

    def test_uniform_theorem_5_1(self):
        assert epsilon_one_for("uniform", 0.2) == pytest.approx(0.1)

    def test_random_walk_theorem_5_3(self):
        assert epsilon_one_for("random_walk", 0.2) == pytest.approx(0.1)

    def test_dfs_theorem_5_5(self):
        # total = (2n + 2) * eps1; Section 6.3: eps=0.2, n=50 -> eps1 ~ 0.002
        eps1 = epsilon_one_for("dfs", 0.2, n_samples=50)
        assert eps1 == pytest.approx(0.2 / 102)
        assert eps1 == pytest.approx(0.002, rel=0.05)

    def test_bfs_theorem_5_7(self):
        assert epsilon_one_for("bfs", 0.2, n_samples=50) == pytest.approx(0.2 / 102)

    def test_round_trip(self):
        for algo, n in [("direct", 0), ("uniform", 0), ("dfs", 25), ("bfs", 200)]:
            eps1 = epsilon_one_for(algo, 0.4, n)
            assert total_epsilon_for(algo, eps1, n) == pytest.approx(0.4)

    def test_multiplier_values(self):
        assert budget_multiplier("direct") == 2.0
        assert budget_multiplier("bfs", 50) == 102.0

    def test_case_insensitive(self):
        assert epsilon_one_for("BFS", 0.2, 50) == epsilon_one_for("bfs", 0.2, 50)

    def test_unknown_algorithm(self):
        with pytest.raises(PrivacyBudgetError, match="unknown"):
            epsilon_one_for("simulated_annealing", 0.2)

    def test_search_needs_n_samples(self):
        with pytest.raises(PrivacyBudgetError, match="n_samples"):
            epsilon_one_for("dfs", 0.2, n_samples=0)

    def test_bad_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            epsilon_one_for("direct", 0.0)
        with pytest.raises(PrivacyBudgetError):
            total_epsilon_for("direct", -0.1)


class TestAccountant:
    def test_charges_accumulate(self):
        acc = PrivacyAccountant(budget=1.0)
        acc.charge("a", 0.3)
        acc.charge("b", 0.4)
        assert acc.spent == pytest.approx(0.7)
        assert acc.remaining == pytest.approx(0.3)

    def test_overdraw_rejected(self):
        acc = PrivacyAccountant(budget=0.5)
        acc.charge("a", 0.4)
        with pytest.raises(PrivacyBudgetError, match="exceeds"):
            acc.charge("b", 0.2)

    def test_exact_budget_allowed(self):
        acc = PrivacyAccountant(budget=0.5)
        acc.charge("a", 0.25)
        acc.charge("b", 0.25)
        assert acc.remaining == pytest.approx(0.0)

    def test_float_dust_tolerated(self):
        # Splitting a budget into (2n+2) pieces must add back up cleanly.
        n = 50
        eps1 = epsilon_one_for("bfs", 0.2, n)
        acc = PrivacyAccountant(budget=0.2)
        for i in range(n + 1):
            acc.charge(f"exp-{i}", 2 * eps1)
        assert acc.remaining == pytest.approx(0.0, abs=1e-12)

    def test_ledger_copies(self):
        acc = PrivacyAccountant(budget=1.0)
        acc.charge("a", 0.1)
        ledger = acc.ledger()
        ledger.append(("tamper", 99.0))
        assert acc.spent == pytest.approx(0.1)

    def test_charge_count_tracks_the_ledger(self):
        acc = PrivacyAccountant(budget=1.0)
        assert acc.charge_count == len(acc.ledger()) == 0
        acc.charge("a", 0.1)
        assert acc.charge_count == len(acc.ledger()) == 1
        acc.charge_many([("b", 0.1), ("c", 0.1)])
        assert acc.charge_count == len(acc.ledger()) == 3
        acc.restore([("replayed", 0.5), ("replayed", 0.1)])
        assert acc.charge_count == len(acc.ledger()) == 5
        with pytest.raises(PrivacyBudgetError):
            acc.charge("over", 0.5)
        with pytest.raises(PrivacyBudgetError):
            acc.charge_many([("d", 0.05), ("over", 0.5)])
        assert acc.charge_count == len(acc.ledger()) == 5

    def test_negative_charge_rejected(self):
        with pytest.raises(PrivacyBudgetError):
            PrivacyAccountant(budget=1.0).charge("a", -0.1)

    def test_bad_budget(self):
        with pytest.raises(PrivacyBudgetError):
            PrivacyAccountant(budget=0.0)


class TestPersistenceHooks:
    """The sink/restore/can_charge trio the durable server ledgers ride."""

    def test_sink_sees_admitted_charges_in_order(self):
        seen = []
        acc = PrivacyAccountant(budget=1.0, sink=lambda label, cost: seen.append((label, cost)))
        acc.charge("a", 0.1)
        acc.charge_many([("b", 0.2), ("c", 0.3)])
        assert seen == [("a", 0.1), ("b", 0.2), ("c", 0.3)]

    def test_sink_not_called_for_rejected_charges(self):
        seen = []
        acc = PrivacyAccountant(budget=0.1, sink=lambda *c: seen.append(c))
        with pytest.raises(PrivacyBudgetError):
            acc.charge("too-big", 0.5)
        assert seen == []

    def test_restore_bypasses_budget_check_and_sink(self):
        seen = []
        acc = PrivacyAccountant(budget=0.5, sink=lambda *c: seen.append(c))
        acc.restore([("old-1", 0.4), ("old-2", 0.4)])  # replay exceeds budget
        assert seen == []
        assert acc.spent == pytest.approx(0.8)
        assert acc.remaining == pytest.approx(-0.3)
        # Over-restored ledgers reject everything going forward.
        with pytest.raises(PrivacyBudgetError):
            acc.charge("new", 0.01)
        assert len(acc.ledger()) == 2

    def test_restore_rejects_corrupt_costs(self):
        acc = PrivacyAccountant(budget=1.0)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(PrivacyBudgetError, match="replayed"):
                acc.restore([("x", bad)])
        assert acc.spent == 0.0

    def test_can_charge_matches_charge_admission(self):
        acc = PrivacyAccountant(budget=0.5)
        acc.charge("a", 0.3)
        assert acc.can_charge(0.2)  # exactly fits (with dust tolerance)
        assert not acc.can_charge(0.2000001)
        assert not acc.can_charge(-0.1)
        assert not acc.can_charge(float("nan"))
        acc.charge("b", 0.2)
        assert not acc.can_charge(1e-6)
