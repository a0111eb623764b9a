"""Release benchmark of the PCOR stack, measured from outside the program.

Run from the repository root::

    python3 releasebench/run.py --workload engine_cold_lof20k --seed 1 \\
        --seconds 30 --trace 0

and its own smoke tests with ``python3 -m pytest releasebench/check_smoke.py``.

Workloads (``workloads.py``; the reasons are in ``BENCHMARK.json``):

* ``engine_cold_lof20k``: one caller, closed loop, feeding cold LOF
  releases over a pipe to an engine host.  A fresh ``ReleaseEngine`` per
  release, so ``outliers`` takes ~95% of the time: the paper's ``f_M``
  cost model, with no HTTP, admission or ledger.
* ``serve_append_mix_zscore20k``: a ``PCORServer`` with coalescing and a
  durable ledger pre-seeded with 50,000 charges, two keep-alive
  connections (one tenant each), closed loop.  A warm-up pass replays the
  timed releases; then every 10th timed op appends 4 rows, which
  invalidates cached profiles, so releases recompute.

Run structure.  Every input is generated before any clock starts, from
``--seed`` or, for the CSV and the cold engine's requests, from fixed seeds
(``workloads.py`` says why), and ``--seconds`` sizes the request list.  The
list is replayed in several rounds, each against a freshly spawned
system-under-test process (``host.py``) built from identical inputs.  The
list is cut into segments (``workloads.segments``) of one release per
connection, every append alone, and the connections finish a segment
before the next starts.  So a release sees the same dataset version, and
the same request running beside it on the other connection, in every
round.  Each segment takes its wall time, and its requests their
latencies, from its fastest round.  That makes the figures insensitive to
the multi-second phases in which a shared host runs up to twice as slow: a
segment only needs one round in a fast phase.  A per-request minimum
without the segments would instead pick the rounds in which a request
happened to run alone on a two-connection server, and read up to twice the
real throughput.  Results, detector-run counts and peak memory must agree
across rounds.  End-to-end metrics:

* ``releases_per_s``: releases over the sum of the fastest segment times;
* ``latency_p50_ms`` / ``latency_p90_ms``: client-observed, over the
  release latencies of the fastest segments;
* ``setup_s``: spawn of the system-under-test process to its first timed
  request (imports, CSV load, mask index, ledger replay, warm-up), of the
  fastest round;
* ``peak_rss_mb``: of the system-under-test process, median over rounds.

With ``--trace 1`` a run makes one untraced and one traced round.  The
traced round installs span wrappers (``layers.py``) in the system under
test and reports, per layer L and per release, ``L.calls``, ``L.self_ms``
and ``L.share`` of all layers' self time.  What each should move (shares
measured on a 2-vCPU guest):

* ``outliers`` (+ ``records_scanned``): every timing on the cold engine
  (95%); release latency on the append mix through post-append recompute
  (18%).
* ``data.masks`` (+ ``population_evals``, ``append_ms``): the cold engine
  (2%); append and release latency on the append mix (22%).
* ``core.verification`` (+ ``fm_queries``): throughput and latency on the
  append mix (40%); the cold engine (3%).
* ``core.profiles.*`` counters: ``fm_per_release`` on both; append
  latency and peak RSS on the append mix.
* ``core.utility``, ``core.sampling``, ``mechanisms.exponential``: release
  latency on the append mix (4%, 2% and 4%).  ``core.starting``: p90 on
  the cold engine.
* ``service.engine``: both, slightly.  ``server.*`` and ``obs``: p50 on
  the append mix (under 1% each); ``server.batching``: p90 on the append
  mix (4%); ``server.ledger.replay_s``: its ``setup_s``.
* ``setup.*``: ``setup_s``.  ``trace.overhead_frac``: nothing (it is the
  tracing cost, 1 - traced / untraced throughput).

The last line of stdout is the result object.  The line before it holds
the environment fingerprint and every round's raw values, so host phases
show next to the best-of-rounds figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Longest wait for any one message from a system-under-test process.
HOST_TIMEOUT_S = 120.0


class HostError(RuntimeError):
    pass


# ------------------------------------------------------------------ hosts


class Host:
    """One system-under-test process, spoken to in JSON lines."""

    def __init__(self, config_path: Path, stderr) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        # The workloads are defined on the serial execution backend.
        for key in ("PCOR_BACKEND", "PCOR_WORKERS"):
            env.pop(key, None)
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), str(config_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def send(self, cmd: str, **fields) -> None:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        try:
            line = self._lines.get(timeout=HOST_TIMEOUT_S)
        except queue.Empty:
            raise HostError(f"host sent nothing for {HOST_TIMEOUT_S:g} s") from None
        if line is None:
            raise HostError(f"host exited with code {self.proc.wait()}")
        return json.loads(line)

    def expect(self, kind: str) -> dict:
        msg = self.recv()
        if msg["kind"] != kind:
            raise HostError(f"expected {kind!r} from the host, got {msg}")
        return msg

    def stop(self) -> dict:
        self.send("stop")
        final = self.expect("final")
        self.proc.stdin.close()
        code = self.proc.wait(timeout=HOST_TIMEOUT_S)
        if code != 0:
            raise HostError(f"host exited with code {code}")
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


# ------------------------------------------------------- load generators


@dataclass
class Outcome:
    op: object
    latency_s: float
    connection: int
    started: float
    payload: Optional[dict] = None
    error: Optional[str] = None


class EngineLoad:
    """One caller, closed loop, over the engine host's pipe."""

    def __init__(self, host: Host) -> None:
        self.host = host

    def run(self, ops: list, segment: range, out: list) -> None:
        for k in segment:
            op = ops[k]
            start = time.perf_counter()
            self.host.send("release", record_id=op.record_id, seed=op.seed)
            msg = self.host.recv()
            out[k] = Outcome(
                op, time.perf_counter() - start, 0, start,
                msg.get("result"), msg.get("error"),
            )

    def close(self) -> None:
        pass


class HttpLoad:
    """Keep-alive clients, one tenant each; the k-th request of a segment
    goes out on connection k, all at once."""

    def __init__(self, url: str, tenants, spec: dict, dataset: str) -> None:
        from repro.server import PCORClient

        self.clients = [PCORClient(url, tenant=t, timeout=HOST_TIMEOUT_S) for t in tenants]
        self.spec = spec
        self.dataset = dataset

    def run(self, ops: list, segment: range, out: list) -> None:
        def call(conn: int, k: int) -> None:
            out[k] = self._call(conn, ops[k])

        helpers = [
            threading.Thread(target=call, args=(conn, k))
            for conn, k in enumerate(segment)
            if conn > 0
        ]
        for t in helpers:
            t.start()
        call(0, segment[0])
        for t in helpers:
            t.join()

    def _call(self, conn: int, op) -> Outcome:
        client = self.clients[conn]
        start = time.perf_counter()
        try:
            if op.kind == "release":
                payload = client.release(
                    self.dataset, op.record_id, self.spec, seed=op.seed
                )["result"]
            else:
                payload = client.append(self.dataset, list(op.rows))
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not raised
            return Outcome(
                op, time.perf_counter() - start, conn, start,
                error=f"{type(exc).__name__}: {exc}",
            )
        return Outcome(op, time.perf_counter() - start, conn, start, payload)

    def close(self) -> None:
        for client in self.clients:
            client.close()


def run_list(load, ops: list, wl, connections: int) -> tuple:
    """Run a request list segment by segment; returns the outcomes and each
    segment's wall time."""
    out: list = [None] * len(ops)
    walls = []
    for segment in wl.segments(ops, connections):
        start = time.perf_counter()
        load.run(ops, segment, out)
        walls.append(time.perf_counter() - start)
    return out, walls


# ----------------------------------------------------------------- rounds


@dataclass
class Round:
    traced: bool
    ready: dict
    warmup: List[Outcome]
    timed: List[Outcome]
    #: Wall time of each segment of ``timed``.
    walls: List[float]
    setup_s: float
    warmup_s: float
    wall_s: float
    final: dict
    ledger: Optional[Path] = None
    problems: List[str] = field(default_factory=list)

    @property
    def import_s(self) -> float:
        return self.ready["t_imported"] - self.ready["t_spawned"]

    @property
    def dataset_s(self) -> float:
        return self.ready["t_built"] - self.ready["t_imported"]


def host_config(wl, inputs, round_dir: Path, traced: bool) -> dict:
    workload = inputs.workload
    if workload.host == "engine":
        return {
            "mode": "engine",
            "trace": traced,
            "csv": str(inputs.csv_path),
            "metric": wl.METRIC,
            "spec": workload.spec(),
        }
    ledger_dir = round_dir / "ledger"
    ledger_dir.mkdir()
    if inputs.ledger_seed is not None:
        shutil.copyfile(inputs.ledger_seed, ledger_dir / f"{wl.DATASET}.ledger.jsonl")
    dataset = {
        "source": "csv",
        "path": str(inputs.csv_path),
        "metric": wl.METRIC,
        "budget": 1e9,
        "tenant_budget": 1e6,
        "max_batch": workload.max_batch,
    }
    return {
        "mode": "serve",
        "trace": traced,
        "dataset": wl.DATASET,
        "server": {
            "server": {"port": 0, "ledger": "jsonl", "ledger_dir": str(ledger_dir)},
            "datasets": {wl.DATASET: dataset},
        },
    }


def run_round(wl, inputs, round_dir: Path, traced: bool) -> Round:
    round_dir.mkdir()
    config_path = round_dir / "host.json"
    config_path.write_text(
        json.dumps(host_config(wl, inputs, round_dir, traced)), encoding="utf-8"
    )
    err_path = round_dir / "host.err"
    workload = inputs.workload
    with open(err_path, "w", encoding="utf-8") as err:
        host = Host(config_path, err)
        try:
            ready = host.expect("ready")
            ready["t_spawned"] = host.spawned
            if workload.host == "engine":
                load = EngineLoad(host)
            else:
                load = HttpLoad(
                    f"http://127.0.0.1:{ready['port']}",
                    wl.TENANTS[: workload.connections],
                    workload.spec(),
                    wl.DATASET,
                )
            warm_start = time.monotonic()
            warmup, _ = run_list(load, inputs.warmup, wl, workload.connections)
            host.send("mark")
            host.expect("marked")
            first = time.monotonic()
            timed, walls = run_list(load, inputs.ops, wl, workload.connections)
            wall = time.monotonic() - first
            load.close()
            final = host.stop()
        except (HostError, OSError, ValueError) as exc:
            err.flush()
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-4000:]
            raise HostError(f"{exc}\n--- host stderr ---\n{tail}") from None
        finally:
            host.kill()
    return Round(
        traced=traced,
        ready=ready,
        warmup=warmup,
        timed=timed,
        walls=walls,
        setup_s=first - host.spawned,
        warmup_s=first - warm_start,
        wall_s=wall,
        final=final,
        ledger=(
            round_dir / "ledger" / f"{wl.DATASET}.ledger.jsonl"
            if workload.host == "serve"
            else None
        ),
    )


# ----------------------------------------------------------------- checks


def check_rounds(wl, inputs, rounds: List[Round], rss_bound: float) -> tuple:
    """Correctness of every round; returns ``(attempted, failed, notes)``.

    A failed or invalid op counts once.  A round that breaks a server
    invariant, or disagrees with the first round on its results, its
    detector runs or, by more than ``rss_bound`` of it, its peak RSS,
    fails all its timed ops.
    """
    checker = wl.Checker(inputs)
    attempted = failed = 0
    notes: List[str] = []
    base = rounds[0]
    for n, rnd in enumerate(rounds):
        ops = rnd.warmup + rnd.timed
        attempted += len(ops)
        for o in ops:
            if o.error is not None:
                failed += 1
                notes.append(f"round {n}: {o.error}")
            elif o.op.kind == "release" and not checker.is_valid(o.payload):
                failed += 1
                notes.append(f"round {n}: record {o.op.record_id} released a non-matching context")
        rnd.problems = server_problems(wl, inputs, rnd) if rnd.ledger else []
        if n > 0:
            if fm_total(rnd) != fm_total(base):
                rnd.problems.append(
                    f"{fm_total(rnd)} detector runs, round 0 made {fm_total(base)}"
                )
            differ = sum(
                wl.stable(a.payload) != wl.stable(b.payload)
                for a, b in zip(base.timed, rnd.timed)
                if a.op.kind == "release" and a.error is None and b.error is None
            )
            if differ:
                rnd.problems.append(f"{differ} releases differ from round 0")
            rss, base_rss = rnd.final["peak_rss_mb"], base.final["peak_rss_mb"]
            if abs(rss - base_rss) > rss_bound * base_rss:
                rnd.problems.append(
                    f"peak RSS {rss:.1f} MB, round 0 reached {base_rss:.1f} MB"
                )
        if rnd.problems:
            failed += len(rnd.timed)
            notes.extend(f"round {n}: {p}" for p in rnd.problems)
    if inputs.workload.host == "serve":
        served = [(o.op, o.payload) for o in releases(base.timed) if o.error is None]
        bad = wl.direct_mismatches(inputs, served)
        if bad:
            failed += bad
            notes.append(f"{bad} sampled releases differ from a direct submit")
    return attempted, min(failed, attempted), notes


def server_problems(wl, inputs, rnd: Round) -> List[str]:
    """The invariants a clean shutdown of a served round must leave."""
    releases_by_tenant: Dict[str, int] = defaultdict(int)
    last_version: Dict[int, int] = {}
    problems = []
    appended = 0
    for o in sorted(rnd.warmup + rnd.timed, key=lambda o: o.started):
        if o.error is not None:
            continue
        tenant = wl.TENANTS[o.connection]
        version = int(o.payload["dataset_version"])
        if version < last_version.get(o.connection, 0):
            problems.append(f"connection {o.connection} saw dataset_version go down")
        last_version[o.connection] = version
        if o.op.kind == "release":
            releases_by_tenant[tenant] += 1
        else:
            appended += len(o.op.rows)
    problems += wl.ledger_problems(inputs, rnd.ledger, releases_by_tenant)
    expected = len(inputs.dataset) + appended
    if rnd.final["n_records"] != expected:
        problems.append(
            f"final n_records {rnd.final['n_records']}, expected {expected}"
        )
    return problems


def fm_total(rnd: Round) -> int:
    return sum(
        o.payload["fm_evaluations"]
        for o in rnd.timed
        if o.op.kind == "release" and o.error is None
    )


# ---------------------------------------------------------------- metrics


def releases(outcomes: List[Outcome]) -> List[Outcome]:
    return [o for o in outcomes if o.op.kind == "release"]


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def round_summary(rnd: Round) -> dict:
    """One round's raw values, as measured in that round alone."""
    rel = [o.latency_s for o in releases(rnd.timed)]
    return {
        "traced": rnd.traced,
        "setup_s": rnd.setup_s,
        "import_s": rnd.import_s,
        "dataset_s": rnd.dataset_s,
        "warmup_s": rnd.warmup_s,
        "wall_s": rnd.wall_s,
        "releases_per_s": len(rel) / rnd.wall_s,
        "latency_p50_ms": statistics.median(rel) * 1000.0,
        "latency_p90_ms": p90(rel) * 1000.0 if len(rel) > 1 else rel[0] * 1000.0,
        "fm_per_release": fm_total(rnd) / len(rel),
        "peak_rss_mb": rnd.final["peak_rss_mb"],
        "digest": digest_of(rnd),
        "problems": rnd.problems,
    }


def digest_of(rnd: Round) -> str:
    from workloads import digest

    return digest([o.payload or {} for o in releases(rnd.timed)])


def fastest(wl, inputs, rounds: List[Round]) -> tuple:
    """Each segment of the timed list at its fastest over the rounds:
    returns the list's wall time and request latencies."""
    segs = wl.segments(inputs.ops, inputs.workload.connections)
    wall = [math.inf] * len(segs)
    latency = [0.0] * len(inputs.ops)
    for rnd in rounds:
        for k, seg_wall in enumerate(rnd.walls):
            if seg_wall < wall[k]:
                wall[k] = seg_wall
                for i in segs[k]:
                    latency[i] = rnd.timed[i].latency_s
    return sum(wall), latency


def end_to_end(wl, inputs, rounds: List[Round]) -> Dict[str, float]:
    wall, latency = fastest(wl, inputs, rounds)
    rel = [lat for lat, op in zip(latency, inputs.ops) if op.kind == "release"]
    return {
        "releases_per_s": len(rel) / wall,
        "latency_p50_ms": statistics.median(rel) * 1000.0,
        "latency_p90_ms": p90(rel) * 1000.0,
        "setup_s": min(r.setup_s for r in rounds),
        "peak_rss_mb": statistics.median(r.final["peak_rss_mb"] for r in rounds),
    }


def per_layer(wl, layer_names, inputs, plain: Round, traced: Round) -> Dict[str, float]:
    workload = inputs.workload
    n_rel = len(releases(traced.timed))
    n_app = len(traced.timed) - n_rel
    spans = traced.final["layers"]
    calls, self_s, counts = spans["calls"], spans["self_s"], spans["counts"]
    total_self = sum(self_s.values())
    out: Dict[str, float] = {}
    for name in layer_names:
        out[f"{name}.calls"] = calls.get(name, 0) / n_rel
        out[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1000.0 / n_rel
        out[f"{name}.share"] = self_s.get(name, 0.0) / total_self

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    mark, stop = traced.final["at_mark"], traced.final["at_stop"]
    delta = {key: stop[key] - mark[key] for key in stop}
    lookups = delta["profile_hits"] + delta["profile_misses"]
    served_s = sum(o.latency_s for o in releases(traced.timed))
    engine_host = workload.host == "engine"
    append_latencies = [o.latency_s for o in plain.timed if o.op.kind == "append"]
    out.update(
        {
            "outliers.records_scanned": per(counts.get("outliers.records_scanned", 0), n_rel),
            "data.masks.population_evals": per(counts.get("data.masks.population_evals", 0), n_rel),
            "data.masks.append_ms": per(counts.get("data.masks.append_s", 0.0) * 1000.0, n_app),
            "core.verification.fm_queries": per(counts.get("core.verification.fm_queries", 0), n_rel),
            "core.profiles.lookups": per(lookups, n_rel),
            "core.profiles.hit_ratio": per(delta["profile_hits"], lookups),
            # Engine hosts build one store per release: report the mean
            # store size a release ends with.
            "core.profiles.cached": (
                per(delta["profiles_cached"], n_rel) if engine_host else stop["profiles_cached"]
            ),
            "core.profiles.invalidated": per(delta["profiles_invalidated"], n_app),
            "core.profiles.invalidate_ms": per(counts.get("core.profiles.invalidate_s", 0.0) * 1000.0, n_app),
            "server.ledger.records_per_write": per(
                counts.get("server.ledger.records", 0), calls.get("server.ledger", 0)
            ),
            "server.transport_ms": (
                0.0 if engine_host
                else per((served_s - counts.get("server.http.release_s", 0.0)) * 1000.0, n_rel)
            ),
            "server.ledger.replay_s": traced.ready.get("replay_s") or 0.0,
            "server.batching.flush_size": per(delta["batch_requests"], delta["batch_flushes"]),
            "server.batching.queue_wait_ms": per(delta["batch_queue_wait_s"] * 1000.0, delta["batch_requests"]),
            "setup.import_s": plain.import_s,
            "setup.dataset_s": plain.dataset_s,
            "setup.warmup_s": plain.warmup_s,
            # Same requests in both rounds: 1 - traced / untraced throughput.
            "trace.overhead_frac": 1.0 - (
                fastest(wl, inputs, [plain])[0] / fastest(wl, inputs, [traced])[0]
            ),
            "fm_per_release": fm_total(plain) / n_rel,
            "append_latency_p50_ms": (
                statistics.median(append_latencies) * 1000.0 if append_latencies else 0.0
            ),
        }
    )
    return out


# ------------------------------------------------------------------- main


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, required=True,
        help="sizes the request list: about this much timed work per run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one round, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"releasebench: {SRC / 'repro'} or {spec_path} is missing; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads as wl

    declared = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in wl.WORKLOADS:
        print(f"releasebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    workload = workload.smoke() if args.smoke else workload.sized(args.seconds)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    workdir = ROOT / ".releasebench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    phases = [time.monotonic()]
    try:
        inputs = wl.make_inputs(workload, args.seed, workdir)
        phases.append(time.monotonic())
        plan = [False, True] if args.trace else [False] * workload.rounds
        rounds = [
            run_round(wl, inputs, workdir / f"round{i}", traced)
            for i, traced in enumerate(plan)
        ]
        phases.append(time.monotonic())
        attempted, failed, notes = check_rounds(
            wl, inputs, rounds, bounds["peak_rss_mb"]
        )
        phases.append(time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(wl, layers.LAYERS, inputs, rounds[0], rounds[1])
        wanted = declared["per_layer"]
    else:
        values = end_to_end(wl, inputs, rounds)
        wanted = declared["end_to_end"]
    missing = sorted({m["name"] for m in wanted} ^ set(values))
    if missing:
        raise RuntimeError(f"metrics computed and declared differ: {missing}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "env": rounds[0].ready["env"],
        "estimator": "fastest round of each segment",
        "phases_s": dict(
            zip(("inputs", "rounds", "checks"), (b - a for a, b in zip(phases, phases[1:])))
        ),
        "rounds": [round_summary(r) for r in rounds],
        "notes": notes[:20],
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
