"""Ablations over PCOR's design choices (beyond the paper's sweeps).

Three choices the paper fixes implicitly are isolated here:

* **Starting-context quality** — the paper assumes "a valid starting
  context obtained through an initial search" without characterising it.
  How much does the released utility depend on whether that context is a
  poor (min-population), random, or ideal (max-population) seed?
* **Random-walk restarts** — Algorithm 3 stops when the walk is stuck; the
  `restart_on_stuck` extension jumps back to C_V instead (still
  data-independent, so Theorem 5.3 is unaffected).  Does it help?
* **Mechanism parameterisation** — the paper's proofs use weights
  ``exp(eps1*u)`` (costing ``2*eps1`` per draw); the textbook form
  ``exp(eps*u/2)`` buys the same total budget with twice the effective
  temperature.  The comparison quantifies what the convention costs.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.core.sampling import RandomWalkSampler
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.tables import TableResult, _run_arms, _salary_bench
from repro.rng import RngLike


def starting_context_ablation(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
    modes: Sequence[str] = ("min", "random", "max"),
) -> TableResult:
    """BFS utility as a function of starting-context quality."""
    cfg = get_scale(scale)
    summaries = _run_arms(
        cfg,
        seed,
        {mode: {"starting_mode": mode} for mode in modes},
        bench=_salary_bench(cfg.salary_records),
        sampler="bfs",
        epsilon=0.2,
    )
    rows = [
        [mode, *s.utility_summary().as_row(), f"{s.mean_fm_evaluations():.0f}"]
        for mode, s in summaries.items()
    ]
    return TableResult(
        "A1",
        "Ablation: starting-context quality (BFS, LOF, eps=0.2)",
        ["C_V mode", "Utility", "CI (90%)", "f_M runs"],
        rows,
        "min/max = worst/best-population matching context; random = the "
        "paper's implicit assumption",
        summaries,
    )


def random_walk_restart_ablation(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
) -> TableResult:
    """Algorithm 3 with and without restart-on-stuck."""
    cfg = get_scale(scale)
    summaries = _run_arms(
        cfg,
        seed,
        {
            label: {"sampler": partial(RandomWalkSampler, restart_on_stuck=restart)}
            for label, restart in (("paper (stop)", False), ("restart", True))
        },
        bench=_salary_bench(cfg.salary_records),
        epsilon=0.2,
    )
    rows = [
        [label, *s.utility_summary().as_row(), f"{s.mean_fm_evaluations():.0f}"]
        for label, s in summaries.items()
    ]
    return TableResult(
        "A2",
        "Ablation: random-walk restart-on-stuck (LOF, eps=0.2)",
        ["Variant", "Utility", "CI (90%)", "f_M runs"],
        rows,
        "restart keeps collecting after dead ends; data-independent, so the "
        "2*eps1 budget of Theorem 5.3 is unchanged",
        summaries,
    )


def mechanism_parameterisation_ablation(
    scale: str | ExperimentScale = "small",
    seed: RngLike = 0,
) -> TableResult:
    """Paper weights exp(eps1*u) vs textbook exp(eps*u/(2*Delta_u))."""
    cfg = get_scale(scale)
    summaries = _run_arms(
        cfg,
        seed,
        {
            "paper exp(eps1*u)": {"half_sensitivity": False},
            "textbook exp(eps1*u/2)": {"half_sensitivity": True},
        },
        bench=_salary_bench(cfg.salary_records),
        sampler="bfs",
        epsilon=0.2,
    )
    rows = [[label, *s.utility_summary().as_row()] for label, s in summaries.items()]
    return TableResult(
        "A3",
        "Ablation: Exponential-mechanism parameterisation (BFS, LOF, eps=0.2)",
        ["Weights", "Utility", "CI (90%)"],
        rows,
        "the textbook form halves the weight scale at identical budget "
        "accounting, costing utility",
        summaries,
    )
