"""Command-line interface: ``pcor`` (or ``python -m repro``).

Subcommands
-----------
* ``release``       — run one private context release end to end
  (``--spec file.json|file.toml`` runs a declarative pipeline spec;
  ``--json`` emits the result as JSON).
* ``serve``         — host datasets over HTTP (the multi-tenant release
  service: per-analyst budgets, durable ledgers; see
  ``src/repro/server/``).  With ``--workers N`` (or a ``[cluster]``
  config section) it becomes a sharded deployment: a thin router plus N
  release-worker processes (``src/repro/cluster/``).
* ``worker``        — internal: one cluster release worker, spawned by
  the ``serve`` supervisor.
* ``specs``         — list the registered detectors, samplers and utilities.
* ``bench``         — run the registered benchmarks (``benchmarks/``) and
  emit normalized JSON telemetry (``BENCH_*.json`` + ``trajectory.jsonl``),
  compared against the committed baselines.
* ``table N``       — regenerate paper Table N (2-13).
* ``figure N``      — regenerate paper Figure N (1-5) as ASCII histograms.
* ``privacy-ratio`` — the Section 6.7 (ii) empirical privacy measurement.
* ``locality``      — the Section 5.2 locality-hypothesis measurement.
* ``generate-data`` — write a synthetic dataset to CSV.
* ``build-reference`` — build and save a reference file (Section 6.2).

Detector/sampler/utility choice lists are registry queries, so anything a
plugin registers (``register_detector`` / ``register_sampler`` /
``register_utility``) is releasable from the CLI without touching this file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.context.space import DEFAULT_ENUMERATION_LIMIT, ContextSpace
from repro.core.reference import ReferenceFile
from repro.core.sampling import available_samplers, sampler_info
from repro.core.starting import find_starting_context, starting_context_from_reference
from repro.core.utility import available_utilities, utility_info
from repro.core.verification import OutlierVerifier
from repro.data.csvio import write_csv
from repro.exceptions import ReproError
from repro.experiments.coe_match import table_12, table_13
from repro.experiments.config import SCALES
from repro.experiments.figures import FIGURE_RUNNERS
from repro.experiments.harness import DATASET_FACTORIES, Workbench
from repro.experiments.locality import locality_experiment, locality_table
from repro.experiments.privacy_ratio import privacy_ratio_experiment
from repro.experiments.tables import DETECTOR_KWARGS, TABLE_RUNNERS
from repro.obs.logs import LOG_FORMATS
from repro.outliers.base import available_detectors, make_detector
from repro.runtime import available_backends
from repro.server import PCORServer, ServerConfig
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcor",
        description="PCOR: private contextual outlier release (SIGMOD 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=sorted(SCALES), default="small")
        p.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("table_id", choices=sorted(TABLE_RUNNERS) + ["12", "13"])
    add_common(p_table)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure (ASCII)")
    p_fig.add_argument("figure_id", choices=sorted(FIGURE_RUNNERS))
    add_common(p_fig)

    p_priv = sub.add_parser("privacy-ratio", help="Section 6.7(ii) measurement")
    add_common(p_priv)
    p_priv.add_argument("--epsilon", type=float, default=0.2)

    p_loc = sub.add_parser("locality", help="Section 5.2 locality measurement")
    add_common(p_loc)

    p_coe = sub.add_parser(
        "analyze-coe", help="COE connectivity analysis (sampler utility ceilings)"
    )
    p_coe.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="salary_reduced")
    p_coe.add_argument("--records", type=int, default=2000)
    p_coe.add_argument("--detector", choices=available_detectors(), default="lof")
    p_coe.add_argument("--outliers", type=int, default=20)
    p_coe.add_argument("--seed", type=int, default=0)

    p_rel = sub.add_parser("release", help="run one private context release")
    p_rel.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="salary_reduced")
    p_rel.add_argument("--records", type=int, default=2000)
    p_rel.add_argument("--detector", choices=available_detectors(), default="lof")
    p_rel.add_argument("--sampler", choices=available_samplers(), default="bfs")
    p_rel.add_argument("--utility", choices=available_utilities(), default="population_size")
    p_rel.add_argument("--epsilon", type=float, default=0.2)
    p_rel.add_argument("--samples", type=int, default=50)
    p_rel.add_argument("--record-id", type=int, default=None, help="outlier record to explain (default: auto-pick)")
    p_rel.add_argument("--seed", type=int, default=0)
    p_rel.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="pipeline spec file (.json/.toml); overrides --detector/--sampler/"
        "--utility/--epsilon/--samples",
    )
    p_rel.add_argument(
        "--json", action="store_true", help="emit the release result as JSON"
    )
    p_rel.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution backend (default: PCOR_BACKEND env, else process "
        "when --workers N>1, else serial; releases are bit-identical across "
        "backends for a given seed)",
    )
    p_rel.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the execution backend; N>1 without "
        "--backend implies --backend process unless PCOR_BACKEND is set",
    )

    p_srv = sub.add_parser(
        "serve", help="host datasets over HTTP (multi-tenant release service)"
    )
    p_srv.add_argument(
        "--config",
        required=True,
        metavar="FILE",
        help="server config (.json/.toml): datasets, budgets, ledger policy",
    )
    p_srv.add_argument(
        "--host", default=None, help="bind address override (default: config)"
    )
    p_srv.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port override (0 picks an ephemeral port, printed on start)",
    )
    p_srv.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="sharded serving: run a router plus N release workers "
        "(overrides [cluster] workers; 0 forces single-process)",
    )
    p_srv.add_argument(
        "--log-format",
        choices=sorted(LOG_FORMATS),
        default=None,
        help="structured log format (overrides [observability] log_format; "
        "'json' emits one JSON line per request/flush/heartbeat event)",
    )

    p_wrk = sub.add_parser(
        "worker",
        help="(internal) run one cluster release worker — spawned by "
        "'pcor serve --workers N', not meant to be run by hand",
    )
    p_wrk.add_argument("--config", required=True, metavar="FILE")
    p_wrk.add_argument("--shard", required=True, type=int)
    p_wrk.add_argument("--router", required=True, metavar="URL")
    p_wrk.add_argument("--worker-id", required=True)
    p_wrk.add_argument(
        "--log-format", choices=sorted(LOG_FORMATS), default=None
    )

    sub.add_parser(
        "specs", help="list registered detectors, samplers and utilities"
    )

    p_bench = sub.add_parser(
        "bench",
        help="run benchmarks and emit normalized JSON telemetry "
        "(benchmarks/results/BENCH_*.json, compared against "
        "benchmarks/baselines/)",
    )
    p_bench.add_argument(
        "benches",
        nargs="*",
        metavar="BENCH",
        help="benchmark names to run (default: all; see --list)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="only the per-commit CI subset (the cheap benches)",
    )
    p_bench.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on baseline regressions too, not just on "
        "failed runs / malformed telemetry",
    )
    p_bench.add_argument(
        "--bench-scale",
        choices=("smoke", "small", "medium", "paper"),
        default=None,
        dest="bench_scale",
        help="workload scale passed to the bench scripts as "
        "PCOR_BENCH_SCALE (default: inherit the environment)",
    )
    p_bench.add_argument(
        "--list", action="store_true", help="list registered benchmarks and exit"
    )

    p_gen = sub.add_parser("generate-data", help="write a synthetic dataset to CSV")
    p_gen.add_argument("dataset", choices=sorted(DATASET_FACTORIES))
    p_gen.add_argument("--records", type=int, default=10_000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_ref = sub.add_parser("build-reference", help="build and save a reference file")
    p_ref.add_argument("--dataset", choices=sorted(DATASET_FACTORIES), default="salary_reduced")
    p_ref.add_argument("--records", type=int, default=2000)
    p_ref.add_argument("--detector", choices=available_detectors(), default="lof")
    p_ref.add_argument("--seed", type=int, default=0)
    p_ref.add_argument("--out", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table":
        if args.table_id == "12":
            print(table_12(args.scale, args.seed).render())
        elif args.table_id == "13":
            print(table_13(args.scale, args.seed).render())
        else:
            perf, util = TABLE_RUNNERS[args.table_id](args.scale, args.seed)
            wanted = perf if perf.table_id == args.table_id else util
            print(wanted.render())
        return 0

    if args.command == "figure":
        print(FIGURE_RUNNERS[args.figure_id](args.scale, args.seed).render())
        return 0

    if args.command == "privacy-ratio":
        result = privacy_ratio_experiment(args.scale, args.seed, epsilon=args.epsilon)
        print(result.to_table().render())
        return 0

    if args.command == "locality":
        results = locality_experiment(args.scale, args.seed)
        print(locality_table(results).render())
        return 0

    if args.command == "analyze-coe":
        from repro.analysis.coe_structure import coe_structure_report

        bench = Workbench.get(
            args.dataset, args.records, args.seed, args.detector,
            DETECTOR_KWARGS.get(args.detector, {}),
        )
        rids = bench.pick_outliers(args.outliers, args.seed, min_matching_contexts=2)
        report = coe_structure_report(bench.reference, rids)
        print(f"COE structure over {int(report['n_records'])} outliers "
              f"({args.dataset}, n={args.records}, {args.detector}):")
        print(f"  mean COE size          : {report['mean_coe_size']:.1f} contexts")
        print(f"  connected fraction     : {report['connected_fraction']:.0%}")
        print(f"  mean components        : {report['mean_components']:.2f}")
        print(f"  max-component coverage : {report['mean_coverage']:.0%}")
        print(f"  sampler utility ceiling: {report['mean_ceiling_ratio']:.2f} "
              "(structural bound for uniform starting contexts)")
        print(f"  mean distance to best  : {report['mean_distance_to_best']:.1f} flips")
        return 0

    if args.command == "release":
        return _run_release(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "worker":
        return _run_worker(args)

    if args.command == "specs":
        return _run_specs()

    if args.command == "bench":
        return _run_bench(args)

    if args.command == "generate-data":
        dataset = DATASET_FACTORIES[args.dataset](n_records=args.records, seed=args.seed)
        write_csv(dataset, args.out)
        print(f"wrote {len(dataset)} records to {args.out}")
        return 0

    if args.command == "build-reference":
        dataset = DATASET_FACTORIES[args.dataset](n_records=args.records, seed=args.seed)
        detector = make_detector(args.detector, **DETECTOR_KWARGS.get(args.detector, {}))
        reference = ReferenceFile.build(OutlierVerifier(dataset, detector))
        reference.to_json(args.out)
        print(
            f"built reference over {len(reference)} contexts "
            f"({len(reference.outlier_records())} outlier records) -> {args.out}"
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _release_spec(args: argparse.Namespace) -> PipelineSpec:
    """The pipeline to run: a spec file if given, else the CLI flags."""
    if args.spec is not None:
        return PipelineSpec.from_file(args.spec)
    return PipelineSpec(
        detector=args.detector,
        detector_kwargs=DETECTOR_KWARGS.get(args.detector, {}),
        sampler=args.sampler,
        utility=args.utility,
        epsilon=args.epsilon,
        n_samples=args.samples,
    )


def _emit_result(args: argparse.Namespace, result) -> None:
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(result.describe())


def _run_release(args: argparse.Namespace) -> int:
    spec = _release_spec(args)
    dataset = DATASET_FACTORIES[args.dataset](n_records=args.records, seed=args.seed)
    space = ContextSpace(dataset.schema)

    if space.n_structurally_valid > DEFAULT_ENUMERATION_LIMIT:
        # Full-schema datasets (e.g. salary_full, t=25) are exactly the
        # regime PCOR exists for: no reference file is computable, so we
        # release via local search + sampling only.
        return _run_release_without_reference(args, dataset, spec)

    bench = Workbench.get(
        args.dataset, args.records, args.seed, spec.detector, spec.detector_kwargs
    )
    record_id = args.record_id
    if record_id is None:
        record_id = bench.pick_outliers(1, args.seed)[0]
        print(f"auto-picked outlier record {record_id}")
    starting = starting_context_from_reference(bench.reference, record_id, args.seed)
    engine = ReleaseEngine(bench.dataset, backend=args.backend, workers=args.workers)
    engine.adopt_verifier(bench.fresh_verifier())
    result = engine.submit(
        ReleaseRequest(
            record_id=record_id, spec=spec, starting_context=starting, seed=args.seed
        )
    )
    _emit_result(args, result)
    max_util = bench.reference.max_population_utility(record_id)
    if not args.json and spec.utility == "population_size" and max_util > 0:
        print(f"  utility ratio    : {result.utility_value / max_util:.3f} of maximum")
    return 0


def _run_release_without_reference(args, dataset, spec: PipelineSpec) -> int:
    """Release against a context space too large to enumerate (paper scale)."""
    import numpy as np

    engine = ReleaseEngine(dataset, backend=args.backend, workers=args.workers)
    verifier = engine.verifier_for(spec.build_detector())
    rng = np.random.default_rng(args.seed)
    print(
        f"context space has {ContextSpace(dataset.schema).n_structurally_valid:,} "
        "valid contexts - releasing without a reference file"
    )

    record_id = args.record_id
    starting = None
    if record_id is None:
        # Scan random records until one has a findable matching context.
        for candidate in rng.permutation(len(dataset))[:500]:
            rid = int(dataset.ids[int(candidate)])
            try:
                starting = find_starting_context(verifier, rid, rng, max_steps=500)
                record_id = rid
                break
            except ReproError:
                continue
        if record_id is None:
            print("error: no contextual outlier found in 500 sampled records", file=sys.stderr)
            return 1
        print(f"auto-picked outlier record {record_id}")
    result = engine.submit(
        ReleaseRequest(
            record_id=record_id, spec=spec, starting_context=starting, seed=rng
        )
    )
    _emit_result(args, result)
    return 0


def _apply_observability(config, log_format):
    """Resolve the effective ``[observability]`` section (a ``--log-format``
    override wins over the file) and configure this process's structured
    logging to match.  Returns the possibly-rewritten config — cluster
    callers must re-serialize it for workers when it changed."""
    import dataclasses

    from repro.obs.logs import configure_logging
    from repro.server import ObservabilityConfig

    obs = config.observability or ObservabilityConfig()
    if log_format is not None and log_format != obs.log_format:
        obs = dataclasses.replace(obs, log_format=log_format)
        config = dataclasses.replace(config, observability=obs)
    configure_logging(obs.log_format)
    return config


def _announce(config, message: str, event: str, **fields) -> None:
    """Serve-lifecycle banners: a human line in text mode, a structured
    event in json mode — piped stdout stays one parseable object per
    line either way."""
    import logging

    from repro.obs.logs import log_event
    from repro.server import ObservabilityConfig

    obs = config.observability or ObservabilityConfig()
    if obs.log_format == "json":
        log_event(logging.getLogger("repro.cli"), event, **fields)
    else:
        print(message, flush=True)


def _run_serve(args: argparse.Namespace) -> int:
    """Host the release service until SIGINT/SIGTERM — single-process, or
    (with ``--workers N`` / ``[cluster] workers``) a router + worker fleet;
    both run the same serve loop, signals and banners."""
    import signal

    config = ServerConfig.from_file(args.config)
    config_path = args.config
    if args.workers is not None:
        # CLI override rewrites the cluster section; the effective config
        # no longer matches the file, so workers must get a fresh copy
        # (the process manager serialises it) — shard assignment depends
        # on the worker count both sides read.
        import dataclasses

        from repro.server import ClusterConfig

        if args.workers > 0:
            base = config.cluster.to_dict() if config.cluster else {}
            base["workers"] = args.workers
            cluster = ClusterConfig(**base)
        else:
            cluster = None
        config = dataclasses.replace(config, cluster=cluster)
        config_path = None
    config = _apply_observability(config, args.log_format)
    if args.log_format is not None:
        # The effective config no longer matches the file; workers must
        # inherit the rewritten [observability] via a serialized copy.
        config_path = None

    datasets = sorted(config.datasets)
    cluster = config.cluster
    if cluster is not None and cluster.workers >= 1:
        from repro.cluster import PCORRouter

        service = PCORRouter(
            config, host=args.host, port=args.port, config_path=config_path
        )
        role, stopped = "router", "fleet terminated"
        detail = f"workers: {cluster.workers}, manager: {cluster.manager}; "
        fields = {"workers": cluster.workers, "manager": cluster.manager}
    else:
        service = PCORServer(config, host=args.host, port=args.port)
        role, stopped, detail, fields = "server", "ledgers closed", "", {}

    def _stop(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    _announce(
        config,
        f"pcor {role} listening on {service.url} ({detail}"
        f"datasets: {', '.join(datasets)}; ledger: {config.ledger})",
        "serve_start",
        url=service.url,
        **fields,
        datasets=datasets,
        ledger=config.ledger,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        _announce(config, f"pcor {role} stopped; {stopped}", "serve_stop")
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """One cluster release worker (spawned by the fleet supervisor)."""
    from repro.cluster import ReleaseWorker

    config = ServerConfig.from_file(args.config)
    config = _apply_observability(config, args.log_format)
    worker = ReleaseWorker(
        config,
        shard=args.shard,
        router_url=args.router,
        worker_id=args.worker_id,
    )
    return worker.run()


def load_bench_harness():
    """Load ``benchmarks/harness.py`` by file location.

    ``benchmarks/`` is deliberately not a package (the scripts are pytest
    files), so the harness is imported from its path relative to the
    installed ``repro`` tree — works from a checkout without any
    install-time data files.
    """
    import importlib.util

    from pathlib import Path

    import repro

    path = Path(repro.__file__).resolve().parents[2] / "benchmarks" / "harness.py"
    if not path.is_file():
        raise ReproError(
            f"benchmark harness not found at {path} — 'pcor bench' needs a "
            "source checkout with the benchmarks/ directory"
        )
    cached = sys.modules.get("pcor_bench_harness")
    if cached is not None and getattr(cached, "__file__", None) == str(path):
        return cached
    spec = importlib.util.spec_from_file_location("pcor_bench_harness", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["pcor_bench_harness"] = module
    spec.loader.exec_module(module)
    return module


def _run_bench(args: argparse.Namespace) -> int:
    """Registry-driven benchmark runner with JSON telemetry (``pcor bench``)."""
    harness = load_bench_harness()

    if args.list:
        for name in sorted(harness.BENCHES):
            spec = harness.BENCHES[name]
            tier = "quick" if spec.get("quick") else "full "
            print(f"  {name:<20s} [{tier}] emits: {', '.join(spec['emits'])}")
        return 0

    try:
        report = harness.run_benchmarks(
            names=args.benches or None,
            quick=args.quick,
            scale=args.bench_scale,
        )
    except ValueError as exc:  # unknown bench name
        raise ReproError(str(exc)) from None
    print(harness.render_report(report))
    if report["documents"]:
        trajectory = harness.append_trajectory(report["documents"].values())
        print(
            f"  telemetry: {len(report['documents'])} document(s) in "
            f"{harness.RESULTS_DIR}, trajectory appended to {trajectory}"
        )

    failed_runs = [r["bench"] for r in report["runs"] if r["returncode"] != 0]
    if failed_runs:
        print(f"error: benchmark run(s) failed: {', '.join(failed_runs)}", file=sys.stderr)
        return 1
    if report["problems"]:
        print("error: malformed/missing benchmark telemetry", file=sys.stderr)
        return 1
    if args.strict and report["regressions"]:
        print("error: baseline regressions under --strict", file=sys.stderr)
        return 1
    return 0


def _run_specs() -> int:
    """List every registered detector, sampler and utility."""
    print("detectors:")
    for name in available_detectors():
        print(f"  {name}")
    print("samplers:")
    for name in available_samplers():
        info = sampler_info(name)
        needs = "starting context" if info.requires_starting_context else "start-free"
        print(f"  {name} (accounting={info.accounting_name}, {needs})")
    print("utilities:")
    for name in available_utilities():
        info = utility_info(name)
        needs = "starting context" if info.needs_starting_context else "start-free"
        print(f"  {name} ({needs})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
