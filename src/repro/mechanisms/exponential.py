"""The Exponential mechanism (McSherry & Talwar 2007), paper Section 2.3.

The paper's privacy proofs (Equations 4-6) weight a candidate ``r`` by
``exp(epsilon_1 * u(D, r))`` and conclude ``2*epsilon_1*Delta_u``-OCDP, so
that parameterisation is the default here.  The textbook definition
``exp(epsilon * u / (2*Delta_u))`` (Definition 2.3) is available via
``half_sensitivity=True`` and yields ``epsilon``-DP directly.

Implementation notes
--------------------
* All weights are computed in log space with a max-shift, so huge utilities
  (population sizes in the tens of thousands) cannot overflow.
* A utility of ``-inf`` (the paper's score for invalid contexts) receives
  probability exactly zero.
* Sampling uses the Gumbel-max trick: ``argmax(log w_i + G_i)`` with i.i.d.
  Gumbel noise is an exact draw from the softmax distribution.  This avoids
  forming the normalised probability vector and is numerically robust.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, TypeVar

import numpy as np

from repro.exceptions import MechanismError, PrivacyBudgetError
from repro.rng import RngLike, ensure_rng

T = TypeVar("T")


class ExponentialMechanism:
    """Draw one of ``n`` candidates with probability ``exp(eps1 * u_i)``-proportional.

    Parameters
    ----------
    epsilon:
        The per-invocation privacy parameter (the paper's ``epsilon_1``).
    sensitivity:
        ``Delta_u`` of the utility function (both paper utilities have 1).
    half_sensitivity:
        If True, use the textbook scaling ``epsilon/(2*sensitivity)``; if
        False (default), the paper's ``epsilon_1`` scaling, which costs
        ``2*epsilon_1*sensitivity`` of budget per invocation.
    """

    def __init__(
        self,
        epsilon: float,
        sensitivity: float = 1.0,
        half_sensitivity: bool = False,
    ):
        if not (epsilon > 0.0 and math.isfinite(epsilon)):
            raise PrivacyBudgetError(f"epsilon must be positive and finite, got {epsilon}")
        if not (sensitivity > 0.0 and math.isfinite(sensitivity)):
            raise PrivacyBudgetError(
                f"sensitivity must be positive and finite, got {sensitivity}"
            )
        self.epsilon = float(epsilon)
        self.sensitivity = float(sensitivity)
        self.half_sensitivity = bool(half_sensitivity)

    @property
    def scale(self) -> float:
        """Multiplier applied to utilities before exponentiation."""
        if self.half_sensitivity:
            return self.epsilon / (2.0 * self.sensitivity)
        return self.epsilon

    @property
    def privacy_cost(self) -> float:
        """Worst-case DP cost of one invocation (Theorem 2.1 / Eq. 5)."""
        if self.half_sensitivity:
            return self.epsilon
        return 2.0 * self.epsilon * self.sensitivity

    # ------------------------------------------------------------------ core

    def log_weights(self, utilities: Sequence[float]) -> np.ndarray:
        """Unnormalised log-weights ``scale * u_i`` (``-inf`` preserved)."""
        u = np.asarray(utilities, dtype=np.float64)
        if u.ndim != 1 or u.shape[0] == 0:
            raise MechanismError("utilities must be a non-empty 1-d sequence")
        if np.isnan(u).any():
            raise MechanismError("utilities contain NaN")
        if np.isposinf(u).any():
            raise MechanismError("utilities contain +inf")
        return self.scale * u

    def probabilities(self, utilities: Sequence[float]) -> np.ndarray:
        """Exact selection probabilities (max-shifted softmax)."""
        logw = self.log_weights(utilities)
        finite = np.isfinite(logw)
        if not finite.any():
            raise MechanismError(
                "all candidates have -inf utility; nothing is selectable"
            )
        shifted = logw - logw[finite].max()
        w = np.where(finite, np.exp(shifted), 0.0)
        return w / w.sum()

    def select_index(self, utilities: Sequence[float], rng: RngLike = None) -> int:
        """Draw a candidate index via the Gumbel-max trick."""
        gen = ensure_rng(rng)
        logw = self.log_weights(utilities)
        finite = np.isfinite(logw)
        if not finite.any():
            raise MechanismError(
                "all candidates have -inf utility; nothing is selectable"
            )
        gumbel = gen.gumbel(size=logw.shape[0])
        keys = np.where(finite, logw + gumbel, -np.inf)
        return int(np.argmax(keys))

    def select(
        self,
        candidates: Sequence[T],
        utilities: Sequence[float],
        rng: RngLike = None,
    ) -> Tuple[T, int]:
        """Draw ``(candidate, index)`` from paired candidates/utilities."""
        if len(candidates) != len(utilities):
            raise MechanismError(
                f"{len(candidates)} candidates but {len(utilities)} utilities"
            )
        i = self.select_index(utilities, rng)
        return candidates[i], i

    # ------------------------------------------------------------ diagnostics

    def probability_ratio_bound(self) -> float:
        """The guaranteed bound ``e^{privacy_cost}`` on output-probability ratios."""
        return math.exp(self.privacy_cost)

    def expected_utility(self, utilities: Sequence[float]) -> float:
        """Expected utility of the selection (exact, for analysis/tests)."""
        p = self.probabilities(utilities)
        u = np.asarray(utilities, dtype=np.float64)
        support = p > 0.0  # -inf utilities have p == 0; exclude before multiplying
        return float(np.sum(p[support] * u[support]))
