"""The release workloads: their inputs, and the checks on their outputs.

Every workload loads one ``salary_reduced``-distribution CSV of 20,000 rows
and runs the paper's BFS pipeline (``n_samples = 50``, epsilon 0.2, the
population-size utility).  Why each workload exists is recorded in
``BENCHMARK.json``; which layer each one puts in charge is mapped out in
``run.py``.

The CSV comes from a fixed generator seed, so every run releases the same
records.  A cold LOF release costs anywhere from 8 ms to 2.6 s depending on
its record, while a record's cost moves by about a tenth with the request
seed; a dataset drawn from the run seed would change which records, and so
how much work, each run measures.  The run seed draws everything else on
the append mix: each request's RNG seed, the appended rows and the
pre-seeded ledger.

Cold LOF releases fall into two cost bands.  When fewer than 50 matching
contexts are reachable from the starting context, BFS runs out of frontier
early: 22 to 270 detector runs, under 0.45 s.  When BFS fills its
50-sample quota it makes 290 to 380 detector runs, in 0.2 to 2.6 s.  The
first outliers in id order mix the two bands, which put the median on the
step between them: one record crossing it moved p50 by 3x.  So the cold
engine releases only records of the full-quota band, each found with a
probe release of the very request it will time, and its request seeds are
fixed too: every run makes the same detector runs, and only the host moves
its figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.profiles import ProfileStore
from repro.core.verification import OutlierVerifier
from repro.data.csvio import read_csv, write_csv
from repro.data.generators import salary_reduced
from repro.data.table import Dataset
from repro.server.ledger import JsonlLedgerStore
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

DATASET = "salary"
METRIC = "Salary"
EPSILON = 0.2
N_SAMPLES = 50
#: Generator seed of the served CSV (see the module docstring).
DATA_SEED = 7
#: One analyst per connection.
TENANTS = ("analyst-0", "analyst-1")
DETECTOR_KWARGS = {"lof": {"k": 10, "threshold": 1.5}, "zscore": {}}


@dataclass(frozen=True)
class Workload:
    name: str
    detector: str
    #: ``"engine"``: a pipe-fed ReleaseEngine host; ``"serve"``: a PCORServer.
    host: str
    #: Distinct exact-context outliers released per second of ``--seconds``.
    records_per_second: float
    #: Untraced rounds per run, each in a fresh system-under-test process.
    rounds: int
    connections: int
    #: Draws the requests' RNG seeds in place of the run seed, when set.
    request_seed: Optional[int] = None
    #: Release only records whose BFS fills its sample quota.
    full_quota: bool = False
    max_batch: int = 1
    #: Every ``append_every``-th timed op appends ``append_rows`` rows.
    append_every: int = 0
    append_rows: int = 4
    preseeded_charges: int = 0
    preseeded_tenants: int = 0
    rows: int = 20_000
    records: int = 0

    def sized(self, seconds: int) -> "Workload":
        return dataclasses.replace(
            self, records=max(3, round(self.records_per_second * seconds))
        )

    def smoke(self) -> "Workload":
        """A tiny version for the benchmark's own tests: same code paths."""
        return dataclasses.replace(
            self,
            rows=2_000,
            records=3,
            rounds=1,
            append_every=3 if self.append_every else 0,
            preseeded_charges=min(self.preseeded_charges, 200),
            preseeded_tenants=min(self.preseeded_tenants, 10),
        )

    def spec(self) -> dict:
        return {
            "detector": self.detector,
            "detector_kwargs": DETECTOR_KWARGS[self.detector],
            "sampler": "bfs",
            "n_samples": N_SAMPLES,
            "epsilon": EPSILON,
            "utility": "population_size",
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "engine_cold_lof20k", "lof", "engine",
            records_per_second=0.4, rounds=2, connections=1,
            request_seed=DATA_SEED, full_quota=True,
        ),
        Workload(
            "serve_append_mix_zscore20k", "zscore", "serve",
            records_per_second=3.5, rounds=3, connections=2,
            max_batch=8, append_every=10,
            preseeded_charges=50_000, preseeded_tenants=1_000,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One request of the list: a release or an append."""

    kind: str
    record_id: int = -1
    seed: int = 0
    rows: tuple = ()


@dataclass
class Inputs:
    workload: Workload
    csv_path: Path
    dataset: Dataset
    #: Replayed before the timed phase (serve workloads): the timed releases.
    warmup: List[Op]
    ops: List[Op]
    append_pool: List[dict]
    ledger_seed: Optional[Path]
    preseeded_spend: Dict[str, float]

    def dataset_at(self, version: int) -> Dataset:
        """The served dataset after the run's first ``version`` appends."""
        rows = self.append_pool[: version * self.workload.append_rows]
        return self.dataset.append(rows) if rows else self.dataset


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate every input of one run, before any clock starts."""
    rng = np.random.default_rng(seed)
    csv_path = workdir / "data.csv"
    write_csv(salary_reduced(n_records=workload.rows, seed=DATA_SEED), csv_path)
    dataset = read_csv(csv_path, metric=METRIC)
    seed_rng = (
        rng if workload.request_seed is None
        else np.random.default_rng(workload.request_seed)
    )
    releases = pick_releases(dataset, workload, seed_rng)

    ops: List[Op] = []
    pool: List[dict] = []
    if workload.append_every:
        n_appends = math.ceil(len(releases) / (workload.append_every - 1))
        source = salary_reduced(
            n_records=n_appends * workload.append_rows,
            seed=int(rng.integers(2**31)),
        )
        pool = [row for _, row in source.iter_records()]
        for release in releases:
            if (len(ops) + 1) % workload.append_every == 0:
                k = len(ops) // workload.append_every
                rows = pool[k * workload.append_rows : (k + 1) * workload.append_rows]
                ops.append(Op("append", rows=tuple(rows)))
            ops.append(release)
    else:
        ops = list(releases)

    ledger_seed = None
    spend: Dict[str, float] = {}
    if workload.preseeded_charges:
        ledger_seed = workdir / "preseeded.ledger.jsonl"
        spend = write_preseeded_ledger(workload, dataset, rng, ledger_seed)
    return Inputs(
        workload=workload,
        csv_path=csv_path,
        dataset=dataset,
        warmup=list(releases) if workload.host == "serve" else [],
        ops=ops,
        append_pool=pool,
        ledger_seed=ledger_seed,
        preseeded_spend=spend,
    )


def segments(ops: List[Op], size: int) -> List[range]:
    """Cut a request list into segments: every append alone, releases in
    runs of at most ``size`` (one per connection).  The connections finish
    one segment before the next starts, so every release sees the same
    dataset version, and the same company on the other connection, in
    every round."""
    out: List[range] = []
    start = 0
    for i, op in enumerate(ops):
        if op.kind == "append":
            if start < i:
                out.append(range(start, i))
            out.append(range(i, i + 1))
            start = i + 1
        elif i + 1 - start == size:
            out.append(range(start, i + 1))
            start = i + 1
    if start < len(ops):
        out.append(range(start, len(ops)))
    return out


def pick_releases(
    dataset: Dataset, workload: Workload, rng: np.random.Generator
) -> List[Op]:
    """Releases of the first ``workload.records`` exact-context outliers in
    id order, each with a request seed from ``rng``, found with a probe
    engine.  With ``full_quota``, the probe engine also runs each release
    and skips records whose BFS stops short of its sample quota."""
    spec = PipelineSpec.from_dict(workload.spec())
    found: List[Op] = []
    with ReleaseEngine(dataset) as engine:
        verifier = engine.verifier_for(spec.build_detector())
        for rid in map(int, dataset.ids):
            if not verifier.is_matching(dataset.record_bits(rid), rid):
                continue
            op = Op("release", record_id=rid, seed=int(rng.integers(2**31)))
            if workload.full_quota:
                probe = engine.submit(
                    ReleaseRequest(record_id=rid, spec=spec, seed=op.seed)
                )
                if probe.n_candidates < N_SAMPLES:
                    continue
            found.append(op)
            if len(found) == workload.records:
                return found
    raise ValueError(
        f"only {len(found)} fitting {workload.detector} exact-context "
        f"outliers, {workload.records} needed"
    )


def write_preseeded_ledger(
    workload: Workload, dataset: Dataset, rng: np.random.Generator, path: Path
) -> Dict[str, float]:
    """Prior charges over many tenants, written the way the server writes
    them; returns each tenant's spend."""
    ids = dataset.ids
    picks = rng.integers(0, len(ids), size=workload.preseeded_charges)
    records = []
    spend: Dict[str, float] = defaultdict(float)
    for i, pos in enumerate(picks):
        tenant = f"tenant-{i % workload.preseeded_tenants:04d}"
        records.append(
            {
                "tenant": tenant,
                "dataset": DATASET,
                "label": (
                    f"release(tenant={tenant}, record={int(ids[pos])}, "
                    f"sampler=bfs, epsilon={EPSILON:g})"
                ),
                "epsilon": EPSILON,
            }
        )
        spend[tenant] += EPSILON
    store = JsonlLedgerStore(path, fsync=False)
    try:
        store.append_many(records)
    finally:
        store.close()
    return dict(spend)


# --------------------------------------------------------------- checks


def stable(result: dict) -> dict:
    """A release result minus what may differ between runs of one request:
    its wall time and its detector-run count (which depends on what the
    cache already held)."""
    out = dict(result)
    out.pop("wall_time_s", None)
    out.pop("fm_evaluations", None)
    return out


def digest(results: List[dict]) -> str:
    """Fingerprint of an ordered list of release results."""
    blob = json.dumps([stable(r) for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class Checker:
    """An independent ``f_M``: a private-store verifier per dataset version,
    over the benchmark's own copy of the data plus its own appended rows."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.spec = PipelineSpec.from_dict(inputs.workload.spec())
        self._verifiers: Dict[int, OutlierVerifier] = {}

    def _verifier(self, version: int) -> OutlierVerifier:
        verifier = self._verifiers.get(version)
        if verifier is None:
            verifier = OutlierVerifier(
                self.inputs.dataset_at(version),
                self.spec.build_detector(),
                profile_store=ProfileStore(),
            )
            self._verifiers[version] = verifier
        return verifier

    def is_valid(self, result: dict) -> bool:
        """Does the released context contain its record and flag it as an
        outlier at the dataset version the result reports?"""
        verifier = self._verifier(int(result["dataset_version"]))
        return verifier.is_matching(
            int(result["context"]["bits"]), int(result["record_id"])
        )


def direct_mismatches(inputs: Inputs, served: List[tuple], sample: int = 5) -> int:
    """How many of an evenly spaced sample of served ``(op, result)`` pairs
    differ from a direct ``ReleaseEngine.submit`` of the same request over
    the dataset at the version the result reports."""
    spec = PipelineSpec.from_dict(inputs.workload.spec())
    picked = served[:: max(1, len(served) // sample)][:sample]
    bad = 0
    for op, result in picked:
        version = int(result["dataset_version"])
        with ReleaseEngine(inputs.dataset_at(version)) as engine:
            direct = engine.submit(
                ReleaseRequest(record_id=op.record_id, spec=spec, seed=op.seed)
            )
        # Through JSON, as the served result travelled.  A fresh engine
        # starts at version 0, whatever rows its dataset holds.
        expected = stable(json.loads(json.dumps(direct.to_dict())))
        expected["dataset_version"] = version
        if expected != stable(result):
            bad += 1
    return bad


def ledger_problems(
    inputs: Inputs,
    ledger_path: Path,
    releases_by_tenant: Dict[str, int],
) -> List[str]:
    """Invariants of the durable ledger after a clean shutdown."""
    records = [
        json.loads(line)
        for line in ledger_path.read_text(encoding="utf-8").splitlines()
    ]
    problems = []
    expected = inputs.workload.preseeded_charges + sum(releases_by_tenant.values())
    if len(records) != expected:
        problems.append(
            f"ledger holds {len(records)} charges, expected {expected} "
            "(pre-seeded + acknowledged releases)"
        )
    spend: Dict[str, float] = defaultdict(float)
    for record in records:
        spend[record["tenant"]] += float(record["epsilon"])
    wanted = dict(inputs.preseeded_spend)
    for tenant, n in releases_by_tenant.items():
        wanted[tenant] = wanted.get(tenant, 0.0) + EPSILON * n
    for tenant, value in wanted.items():
        if not math.isclose(spend.get(tenant, 0.0), value, rel_tol=1e-9):
            problems.append(
                f"tenant {tenant} spent {spend.get(tenant, 0.0)!r}, expected {value!r}"
            )
    return problems
