"""Sharded serving tests: hashing, fleet supervision, router proxying.

Runs real in-process clusters (``manager = "thread"``: router + workers as
threads, full HTTP in between) — fast and deterministic, with worker
"crashes" simulated by aborting the worker's server without drain.  The
subprocess deployment path is covered by ``tests/test_cluster_smoke.py``.
"""

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    ConsistentHashRing,
    PCORRouter,
    shard_assignments,
    shard_config,
    stable_hash,
)
from repro.cluster.manager import WorkerHandle, WorkerManager, WorkerSpec
from repro.exceptions import (
    PrivacyBudgetError,
    ServerError,
    ShardUnavailableError,
    SpecError,
)
from repro.server import PCORClient, PCORServer, ServerConfig

RECORDS = 300
SEED = 3
OUTLIER_RECORD = 207  # verified matching record of salary_reduced(300, seed=3)

SPEC = {
    "detector": "zscore",
    "detector_kwargs": {"z_threshold": 2.5, "min_population": 8},
    "sampler": "uniform",
    "epsilon": 0.1,
    "n_samples": 3,
}

#: Several datasets so two shards both end up owning at least one.
DATASETS = {
    "salary": {
        "source": "salary_reduced",
        "records": RECORDS,
        "seed": SEED,
        "budget": 100.0,
        "tenant_budget": 0.25,
    },
    "other": {"source": "salary_reduced", "records": 200, "seed": 9},
    "third": {"source": "salary_reduced", "records": 150, "seed": 11},
}


def cluster_config(tmp_path=None, workers=2, respawn=True) -> ServerConfig:
    body = {
        "server": {"port": 0},
        "datasets": DATASETS,
        "cluster": {
            "workers": workers,
            "manager": "thread",
            "heartbeat_interval_s": 0.2,
            "heartbeat_timeout_s": 0.8,
            "respawn": respawn,
        },
    }
    if tmp_path is not None:
        body["server"].update(
            {"ledger": "jsonl", "ledger_dir": str(tmp_path / "ledgers")}
        )
    return ServerConfig.from_dict(body)


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestConsistentHashing:
    def test_assignment_ignores_registration_order(self):
        names = sorted(DATASETS) + [f"ds-{i}" for i in range(40)]
        forward = shard_assignments(names, shards=4)
        backward = shard_assignments(list(reversed(names)), shards=4)
        assert forward == backward

    def test_stable_hash_is_process_independent(self):
        # Pinned digests: a changed hash would silently re-partition every
        # deployed cluster's ledgers.  BLAKE2b, not the salted builtin.
        assert stable_hash("dataset=salary") == stable_hash("dataset=salary")
        assert stable_hash("salary") != stable_hash("other")
        assert 0 <= stable_hash("anything") < 2**64

    def test_single_shard_owns_everything(self):
        assignments = shard_assignments(DATASETS, shards=1)
        assert set(assignments.values()) == {0}

    def test_resize_moves_few_datasets(self):
        """The consistent-hashing point: growing N → N+1 shards reshuffles
        ~1/(N+1) of datasets, not almost all of them like hash % N."""
        names = [f"dataset-{i}" for i in range(400)]
        before = shard_assignments(names, shards=4)
        after = shard_assignments(names, shards=5)
        moved = sum(1 for n in names if before[n] != after[n])
        # Expect ~80 (1/5); allow generous slack, but far below a full
        # reshuffle (~320 for modulo hashing).
        assert moved < 200

    def test_ring_validates(self):
        with pytest.raises(ServerError, match=">= 1 shard"):
            ConsistentHashRing(0)
        with pytest.raises(ServerError, match=">= 1 replica"):
            ConsistentHashRing(2, replicas=0)

    def test_shard_configs_partition_the_registry(self):
        """Worker sub-configs are a disjoint cover of the dataset registry
        — the single-writer-ledger invariant in config form."""
        config = cluster_config(workers=2)
        shards = [shard_config(config, i) for i in range(2)]
        names = [set(s.datasets) for s in shards]
        assert names[0] | names[1] == set(DATASETS)
        assert names[0] & names[1] == set()
        for sub in shards:
            assert sub.cluster is None  # workers never recurse
            assert sub.port == 0  # ephemeral loopback bind

    def test_shard_config_rejects_bad_shard(self):
        config = cluster_config(workers=2)
        with pytest.raises(ServerError, match="shard must be in"):
            shard_config(config, 2)


class TestClusterConfig:
    def test_round_trip(self):
        config = cluster_config()
        again = ServerConfig.from_dict(config.to_dict())
        assert again.cluster == config.cluster

    def test_validation(self):
        with pytest.raises(SpecError, match="workers must be >= 0"):
            cluster = {"workers": -1}
            ServerConfig.from_dict(
                {"datasets": DATASETS, "cluster": cluster}
            )
        with pytest.raises(SpecError, match="must exceed"):
            ServerConfig.from_dict(
                {
                    "datasets": DATASETS,
                    "cluster": {
                        "workers": 2,
                        "heartbeat_interval_s": 5.0,
                        "heartbeat_timeout_s": 1.0,
                    },
                }
            )
        with pytest.raises(SpecError, match="unknown cluster manager"):
            ServerConfig.from_dict(
                {"datasets": DATASETS, "cluster": {"workers": 1, "manager": "ssh"}}
            )
        with pytest.raises(SpecError, match=r"unknown \[cluster\] field"):
            ServerConfig.from_dict(
                {"datasets": DATASETS, "cluster": {"workres": 2}}
            )

    def test_router_requires_cluster_section(self):
        config = ServerConfig.from_dict(
            {"server": {"port": 0}, "datasets": DATASETS}
        )
        with pytest.raises(ServerError, match="workers >= 1"):
            PCORRouter(config)


@pytest.fixture(scope="module")
def router():
    with PCORRouter(cluster_config()) as r:
        yield r


@pytest.fixture()
def client(router) -> PCORClient:
    return PCORClient(router.url, tenant="alice")


class TestRouterProxy:
    def test_health_reports_fleet(self, client, router):
        body = client.health()
        assert body["status"] == "ok"
        assert body["role"] == "router"
        assert body["workers"] == 2
        assert [s["shard"] for s in body["shards"]] == [0, 1]
        assert all(s["status"] == "ok" for s in body["shards"])
        owned = set().union(*(s["datasets"] for s in body["shards"]))
        assert owned == set(DATASETS)

    def test_release_is_bit_identical_to_single_process(self, router):
        """The headline invariant: a release through the router equals the
        same (record, spec, seed) served by one PCORServer — modulo the
        wall-clock field, which is timing, not release content."""
        single = PCORServer(
            ServerConfig.from_dict({"server": {"port": 0}, "datasets": DATASETS})
        )
        with single:
            for seed in (11, 12):
                via_router = PCORClient(router.url, tenant=f"id-{seed}").release(
                    "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=seed
                )["result"]
                direct = PCORClient(single.url, tenant=f"id-{seed}").release(
                    "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=seed
                )["result"]
                via_router.pop("wall_time_s"), direct.pop("wall_time_s")
                assert via_router == direct

    def test_typed_errors_pass_through(self, router, client):
        # 402 from the worker arrives as PrivacyBudgetError (quota 0.25).
        exhaust = PCORClient(router.url, tenant="exhaust-me")
        exhaust.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1)
        exhaust.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=2)
        with pytest.raises(PrivacyBudgetError, match="tenant 'exhaust-me'"):
            exhaust.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=3)
        # 404: an unknown dataset hashes to *some* shard, whose worker
        # rejects it with the same typed payload a single server would.
        with pytest.raises(ServerError, match="unknown dataset"):
            client.release("nope", record_id=1, spec=SPEC)
        # 400 from the worker's spec validation.
        with pytest.raises(SpecError, match="unknown detector"):
            client.release(
                "salary", record_id=OUTLIER_RECORD, spec={"detector": "nope"}
            )

    def test_budget_single_dataset_passes_through(self, client):
        body = client.budget(dataset="other")
        assert body["tenant"] == "alice"
        assert set(body["datasets"]) == {"other"}

    def test_aggregate_routes_merge_all_shards(self, client):
        assert set(client.datasets()) == set(DATASETS)
        assert set(client.budget()["datasets"]) == set(DATASETS)
        metrics = client.metrics()
        assert set(metrics["datasets"]) == set(DATASETS)
        shards = metrics["router"]["shards"]
        assert [s["shard"] for s in shards] == [0, 1]
        assert sum(s["requests"] for s in shards) >= 1
        for s in shards:
            assert s["heartbeat_age_s"] is not None
            assert s["respawns"] == 0 or s["respawns"] >= 0

    def test_unknown_routes_404(self, router):
        for method, path in (("GET", "/v2/nope"), ("POST", "/v1/nope")):
            request = urllib.request.Request(
                router.url + path,
                method=method,
                data=b"{}" if method == "POST" else None,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 404

    def test_malformed_content_length_is_400_and_closes(self, router, raw_post):
        """The router shares the server's request handler: a Content-Length
        that is not a non-negative integer gets a typed 400, then the
        connection closes."""
        status, headers, payload = raw_post(
            router.url, "/v1/datasets/salary/release", "abc", b'{"record_id": 1}'
        )
        assert status == 400 and headers["Connection"] == "close"
        assert payload["error"]["type"] == "SpecError"

    def test_control_channel_rejects_unknown_path(self, router):
        request = urllib.request.Request(
            router.url + "/control/v1/nope", method="POST", data=b"{}"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404


class TestFleetSupervision:
    def test_duplicate_dataset_claim_is_rejected(self, router):
        """A registration claiming a dataset another live shard already
        owns would mean two ledger writers — refused with a clear error."""
        victim = router.fleet._shards[0]
        taken = router.fleet._shards[1].datasets[0]
        reply = router.fleet.register(
            {
                "worker_id": victim.expected_id,
                "shard": 0,
                "url": victim.url,
                "datasets": [taken],
            }
        )
        assert reply["ok"] is False
        assert "already owned by another shard" in reply["reason"]
        assert taken in reply["reason"]
        # The shard's real registration is untouched.
        assert router.fleet.snapshot()[0]["status"] == "ok"

    def test_stale_generation_is_superseded(self, router):
        reply = router.fleet.heartbeat(
            {"worker_id": "shard0-gen999", "shard": 0, "status": "ok"}
        )
        assert reply["ok"] is False
        assert "superseded" in reply["reason"]
        reply = router.fleet.register(
            {"worker_id": "shard1-gen999", "shard": 1, "url": "http://x", "datasets": []}
        )
        assert reply["ok"] is False

    def test_malformed_control_payloads_are_rejected(self, router):
        assert router.fleet.heartbeat({})["ok"] is False
        assert router.fleet.heartbeat({"shard": "NaN"})["ok"] is False
        assert router.fleet.heartbeat({"shard": 99, "worker_id": "x"})["ok"] is False


class TestCrashRespawn:
    def test_killed_worker_respawns_and_serves(self, tmp_path):
        """Kill the worker owning ``salary`` mid-cluster: the supervisor
        respawns it, the replacement replays the shard's ledgers before
        taking traffic, and an exhausted tenant stays exhausted — the
        acceptance scenario, in-process."""
        with PCORRouter(cluster_config(tmp_path)) as router:
            client = PCORClient(router.url, tenant="doomed")
            client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1)
            client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=2)
            with pytest.raises(PrivacyBudgetError):
                client.release(
                    "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=3
                )

            shard = router.fleet.shard_for("salary")
            router.fleet._shards[shard].handle.kill()  # no drain, no goodbye
            assert wait_for(
                lambda: (
                    router.fleet.snapshot()[shard]["respawns"] >= 1
                    and router.fleet.snapshot()[shard]["status"] == "ok"
                )
            ), "worker was not respawned"

            # Ledger truth survived the crash: still 402, and the spend is
            # visible — admission rejects before any detector runs.
            with pytest.raises(PrivacyBudgetError, match="tenant 'doomed'"):
                client.release(
                    "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=4
                )
            budget = client.budget(dataset="salary")["datasets"]["salary"]
            assert budget["spent"] == pytest.approx(0.2)
            # A fresh tenant is served by the respawned worker.
            fresh = PCORClient(router.url, tenant="fresh")
            fresh.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=5)
            assert router.fleet.snapshot()[shard]["respawns"] == 1

    def test_dead_shard_is_typed_503_with_retry_after(self, tmp_path):
        """With respawn disabled, a dead shard yields ShardUnavailableError
        (503 + Retry-After) for its datasets while other shards keep
        serving and aggregates report the hole."""
        with PCORRouter(cluster_config(tmp_path, respawn=False)) as router:
            shard = router.fleet.shard_for("salary")
            router.fleet._shards[shard].handle.kill()
            assert wait_for(
                lambda: router.fleet.snapshot()[shard]["status"] == "dead"
            ), "fleet never declared the worker dead"

            client = PCORClient(router.url, tenant="alice", retry_503=0)
            with pytest.raises(ShardUnavailableError, match="no live worker"):
                client.release(
                    "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1
                )
            # Raw header check: 503 + Retry-After on the wire.
            request = urllib.request.Request(
                router.url + "/v1/budget?dataset=salary",
                headers={"X-PCOR-Tenant": "alice"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None

            # Datasets on live shards still serve; aggregates expose the hole.
            survivors = set(client.datasets())
            assert survivors  # the other shard's datasets
            assert "salary" not in survivors
            metrics = client.metrics()
            assert metrics["unavailable_shards"] == [shard]


def get_json(url: str, path: str, tenant: str = "alice") -> dict:
    """GET ``path`` and parse its body; fails on anything but a 200."""
    request = urllib.request.Request(url + path, headers={"X-PCOR-Tenant": tenant})
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        return json.loads(response.read())


class TestFanOut:
    def test_unanswering_shard_is_listed_on_every_aggregate_route(self):
        """A shard still registered but no longer answering (killed, and
        the monitor has not looked yet): every fan-out route lists it in
        ``unavailable_shards`` and serves the live shard's share."""
        body = cluster_config(respawn=False).to_dict()
        # Long enough that the monitor never runs during the test.
        body["cluster"].update(heartbeat_interval_s=30.0, heartbeat_timeout_s=60.0)
        with PCORRouter(ServerConfig.from_dict(body)) as router:
            shard = router.fleet.shard_for("salary")
            router.fleet._shards[shard].handle.kill()
            assert shard in router.fleet.live_urls()  # still registered
            live = set(router.fleet._shards[1 - shard].datasets)

            datasets = get_json(router.url, "/v1/datasets")
            assert datasets["unavailable_shards"] == [shard]
            assert set(datasets["datasets"]) == live
            budget = get_json(router.url, "/v1/budget")
            assert budget["unavailable_shards"] == [shard]
            assert set(budget["datasets"]) == live
            metrics = get_json(router.url, "/v1/metrics")
            assert metrics["unavailable_shards"] == [shard]
            assert set(metrics["datasets"]) == live
            events = get_json(router.url, "/v1/debug/events")
            assert events["unavailable_shards"] == [shard]
            assert f"shard{shard}" not in events["sources"]
            profile = get_json(router.url, "/v1/debug/profile?seconds=0.2&hz=50")
            assert profile["unavailable_shards"] == [shard]
            assert set(profile["sources"]) == {"router", f"shard{1 - shard}"}
            exposition = PCORClient(router.url).prometheus_metrics()
            assert "pcor_unavailable_shards 1" in exposition
            assert f'shard="{shard}"' not in exposition
            assert router.metrics()["server"]["responses_by_status"].get("5xx", 0) == 0


class _SilentHandle(WorkerHandle):
    """A worker that runs but never registers with the router."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec, self.pid = spec, os.getpid()
        self._stop = threading.Event()
        self.thread = threading.Thread(
            target=self._stop.wait, name=f"pcor-worker-{spec.worker_id}", daemon=True
        )
        self.thread.start()

    def alive(self) -> bool:
        return self.thread.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self.thread.join(timeout)

    kill = stop


class _SilentManager(WorkerManager):
    kind = "thread"

    def __init__(self) -> None:
        self.handles, self.closed = [], False

    def spawn(self, spec: WorkerSpec) -> WorkerHandle:
        self.handles.append(_SilentHandle(spec))
        return self.handles[-1]

    def close(self) -> None:
        self.closed = True


class TestStartTimeout:
    def test_timed_out_start_leaves_nothing_running(self):
        """``start()`` timing out on the fleet shuts the router down before
        it raises: no serve, monitor or worker thread survives, and the
        manager is closed (``with`` never reaches ``__exit__`` here)."""
        before = set(threading.enumerate())
        manager = _SilentManager()
        router = PCORRouter(cluster_config(), manager=manager)
        with pytest.raises(ServerError, match="never registered"):
            router.start(timeout=0.2)
        survivors = [
            t.name
            for t in threading.enumerate()
            if t not in before and t.is_alive() and t.name.startswith("pcor-")
        ]
        assert survivors == []
        assert len(manager.handles) == 2
        assert not any(handle.alive() for handle in manager.handles)
        assert manager.closed
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(router.url + "/healthz", timeout=2)


class TestTracePropagation:
    """One trace id observed at the router edge, the worker handler, the
    coalescer flush, and the process-backend task — and surviving a
    worker SIGKILL→respawn (fresh spans, same trace semantics)."""

    TRACE_ID = "c0ffeec0ffeec0ff"

    @staticmethod
    def _coalescing_config() -> ServerConfig:
        return ServerConfig.from_dict(
            {
                "server": {"port": 0},
                "datasets": {
                    "salary": {
                        "source": "salary_reduced",
                        "records": RECORDS,
                        "seed": SEED,
                        "budget": 100.0,
                        "tenant_budget": 5.0,
                        "max_batch": 4,
                        "max_delay_ms": 5,
                    },
                },
                "cluster": {
                    "workers": 2,
                    "manager": "thread",
                    "heartbeat_interval_s": 0.2,
                    "heartbeat_timeout_s": 0.8,
                },
            }
        )

    def _release_with_trace(self, router, seed, trace_id) -> dict:
        """One release through the router carrying an explicit trace id."""
        body = json.dumps(
            {"record_id": OUTLIER_RECORD, "spec": SPEC, "seed": seed}
        ).encode("utf-8")
        conn = http.client.HTTPConnection(router.host, router.port)
        try:
            conn.request(
                "POST",
                "/v1/datasets/salary/release",
                body=body,
                headers={
                    "X-PCOR-Tenant": "tracer",
                    "X-PCOR-Trace": trace_id,
                },
            )
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 200, raw
            return json.loads(raw.decode("utf-8"))
        finally:
            conn.close()

    def test_one_trace_covers_proxy_queue_admission_engine(self):
        with PCORRouter(self._coalescing_config()) as router:
            payload = self._release_with_trace(router, 1, self.TRACE_ID)
            trace = payload["trace"]
            assert trace["trace_id"] == self.TRACE_ID
            names = [s["name"] for s in trace["spans"]]
            for want in (
                "router.proxy",
                "server.handle",
                "queue.wait",
                "admission",
                "engine.execute",
            ):
                assert want in names, names
            # The proxy hop brackets the worker's handling: same monotonic
            # origin (t0 travels in the header), so offsets are comparable.
            proxy = next(s for s in trace["spans"] if s["name"] == "router.proxy")
            handle = next(
                s for s in trace["spans"] if s["name"] == "server.handle"
            )
            assert proxy["start_ms"] <= handle["start_ms"]
            assert proxy["duration_ms"] >= handle["duration_ms"]

    def test_trace_survives_worker_kill_and_respawn(self, tmp_path):
        with PCORRouter(cluster_config(tmp_path)) as router:
            before = self._release_with_trace(router, 2, self.TRACE_ID)
            assert before["trace"]["trace_id"] == self.TRACE_ID

            shard = router.fleet.shard_for("salary")
            router.fleet._shards[shard].handle.kill()
            assert wait_for(
                lambda: router.fleet.snapshot()[shard]["respawns"] == 1
                and router.fleet.snapshot()[shard]["status"] == "ok"
            ), "worker was not respawned"

            after = self._release_with_trace(router, 3, self.TRACE_ID)
            trace = after["trace"]
            assert trace["trace_id"] == self.TRACE_ID
            names = [s["name"] for s in trace["spans"]]
            assert "router.proxy" in names
            assert "engine.execute" in names
            # Fresh spans from the respawned worker, not replays.
            assert all(s["duration_ms"] >= 0 for s in trace["spans"])

    def test_process_backend_task_joins_the_trace(self):
        """A sampled trace rides the task payload into the worker process
        and its spans ride the pickled result back (pid proves the hop)."""
        from repro.data.generators import salary_reduced
        from repro.obs.trace import Trace
        from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

        dataset = salary_reduced(n_records=RECORDS, seed=SEED)
        engine = ReleaseEngine(dataset, backend="process", workers=1)
        try:
            spec = PipelineSpec(**SPEC)
            traces = [Trace.mint() for _ in range(2)]
            requests = [
                ReleaseRequest(
                    record_id=OUTLIER_RECORD, spec=spec, seed=5 + i, trace=t
                )
                for i, t in enumerate(traces)
            ]
            engine.submit_many(requests)
            for trace in traces:
                spans = trace.spans()
                exec_span = next(
                    s for s in spans if s["name"] == "engine.execute"
                )
                assert exec_span["pid"] != os.getpid(), spans
        finally:
            engine.close()
