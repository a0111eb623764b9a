"""The paper's headline claim (Section 1.2), scaled down.

"Applied on a dataset of 50,000 records, PCOR reduces the runtime from
three days in the direct differentially private approach to 37 minutes;
while it maintains 90% of the maximum utility ... with eps = 0.2."

The direct approach enumerates an exponential candidate space; BFS touches
O(n t) contexts.  At laptop scale the absolute times shrink but the
*ratio* — direct examining orders of magnitude more contexts than BFS — is
the reproducible shape, alongside BFS's high utility retention.
"""

from repro.core.direct import DirectSampler
from repro.experiments.harness import Workbench, run_pcor_experiment
from repro.experiments.reporting import render_table
from repro.experiments.tables import DETECTOR_KWARGS

from _helpers import run_once


def test_headline_direct_vs_bfs(benchmark, scale, emit):
    def experiment():
        bench = Workbench.get(
            "salary_reduced", scale.salary_records, 7, "lof", DETECTOR_KWARGS["lof"]
        )
        direct = run_pcor_experiment(
            bench,
            lambda n: DirectSampler(),
            epsilon=0.2,
            repetitions=min(5, scale.repetitions),
            n_outlier_records=min(5, scale.n_outlier_records),
            rng=0,
            min_matching_contexts=20,
        )
        bfs = run_pcor_experiment(
            bench,
            "bfs",
            epsilon=0.2,
            n_samples=scale.n_samples,
            repetitions=scale.repetitions,
            n_outlier_records=scale.n_outlier_records,
            rng=0,
        )
        return direct, bfs

    direct, bfs = run_once(benchmark, experiment)

    rows = []
    for summary in (direct, bfs):
        rt = summary.runtime_summary()
        us = summary.utility_summary()
        rows.append(
            [
                summary.algorithm,
                *rt.as_row(),
                f"{summary.mean_fm_evaluations():.0f}",
                f"{us.mean:.2f}",
            ]
        )
    speedup = direct.runtime_summary().t_avg / max(bfs.runtime_summary().t_avg, 1e-9)
    work_ratio = direct.mean_fm_evaluations() / max(bfs.mean_fm_evaluations(), 1e-9)
    text = render_table(
        "Headline claim: direct approach vs PCOR-BFS (eps=0.2)",
        ["Algorithm", "Tmin", "Tmax", "Tavg", "f_M runs", "Utility"],
        rows,
        notes=(
            f"direct/BFS average-runtime ratio: {speedup:.1f}x; "
            f"f_M-work ratio: {work_ratio:.1f}x "
            "(paper: three days -> 37 minutes ~ 117x at 51k records, t=25)"
        ),
    )
    emit("headline_claim", text)

    # The whole point of the paper: the sampler does far less work...
    assert work_ratio > 2.0, f"direct should dominate BFS in f_M work ({work_ratio:.1f}x)"
    # ...while keeping most of the achievable utility.
    assert bfs.utility_summary().mean > 0.5
