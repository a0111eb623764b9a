"""Design-choice ablations (repro.experiments.ablations, beyond the paper's sweeps).

* starting-context quality: min vs random vs max population seeds,
* random-walk restart-on-stuck extension,
* Exponential-mechanism parameterisation (paper vs textbook weights).
"""

from repro.experiments.ablations import (
    mechanism_parameterisation_ablation,
    random_walk_restart_ablation,
    starting_context_ablation,
)

from _helpers import run_once


def test_starting_context_ablation(benchmark, scale, emit):
    table = run_once(benchmark, lambda: starting_context_ablation(scale, seed=0))
    emit("ablation_starting_context", table.render())
    means = {
        label: s.utility_summary().mean for label, s in table.summaries.items()
    }
    # A max-population seed can only help relative to a min-population one.
    assert means["max"] >= means["min"] - 0.05, means


def test_random_walk_restart_ablation(benchmark, scale, emit):
    table = run_once(benchmark, lambda: random_walk_restart_ablation(scale, seed=0))
    emit("ablation_walk_restart", table.render())
    means = {
        label: s.utility_summary().mean for label, s in table.summaries.items()
    }
    # Restarting collects at least as many candidates; utility should not
    # get meaningfully worse.
    assert means["restart"] >= means["paper (stop)"] - 0.1, means


def test_mechanism_parameterisation_ablation(benchmark, scale, emit):
    table = run_once(
        benchmark, lambda: mechanism_parameterisation_ablation(scale, seed=0)
    )
    emit("ablation_mechanism_weights", table.render())
    for summary in table.summaries.values():
        assert 0.0 <= summary.utility_summary().mean <= 1.0 + 1e-9
