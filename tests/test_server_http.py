"""End-to-end HTTP tests: routes, typed errors, durability, bit-identity.

Runs a real :class:`PCORServer` on an ephemeral port and speaks to it with
:class:`PCORClient` — the full wire path, not handler unit tests.
"""

import json
import urllib.request

import pytest

from repro.data.generators import salary_reduced
from repro.exceptions import (
    PrivacyBudgetError,
    ReproError,
    ServerError,
    SpecError,
)
from repro.server import PCORClient, PCORServer, ServerConfig
from repro.service import PipelineSpec, ReleaseEngine, ReleaseRequest

RECORDS = 300
SEED = 3

SPEC = {
    "detector": "zscore",
    "detector_kwargs": {"z_threshold": 2.5, "min_population": 8},
    "sampler": "uniform",
    "epsilon": 0.1,
    "n_samples": 3,
}


def server_config(tmp_path=None, tenant_budget=0.2, budget=100.0) -> ServerConfig:
    body = {
        "server": {"port": 0},
        "datasets": {
            "salary": {
                "source": "salary_reduced",
                "records": RECORDS,
                "seed": SEED,
                "budget": budget,
                "tenant_budget": tenant_budget,
            },
            "other": {"source": "salary_reduced", "records": 200, "seed": 9},
        },
    }
    if tmp_path is not None:
        body["server"].update(
            {"ledger": "jsonl", "ledger_dir": str(tmp_path / "ledgers")}
        )
    return ServerConfig.from_dict(body)


@pytest.fixture(scope="module")
def outlier_record() -> int:
    """A record of the served dataset that has a matching context."""
    from repro.core.verification import OutlierVerifier
    from repro.outliers.zscore import ZScoreDetector

    dataset = salary_reduced(n_records=RECORDS, seed=SEED)
    verifier = OutlierVerifier(
        dataset, ZScoreDetector(z_threshold=2.5, min_population=8)
    )
    for rid in map(int, dataset.ids):
        if verifier.is_matching(dataset.record_bits(rid), rid):
            return rid
    raise AssertionError("no contextual outlier in the test dataset")


@pytest.fixture(scope="module")
def server():
    with PCORServer(server_config()) as srv:
        yield srv


@pytest.fixture()
def client(server) -> PCORClient:
    return PCORClient(server.url, tenant="alice")


class TestRoutes:
    def test_healthz(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert body["datasets"] == ["other", "salary"]

    def test_list_datasets(self, client):
        datasets = client.datasets()
        assert set(datasets) == {"salary", "other"}
        assert datasets["salary"]["budget"] == 100.0
        assert datasets["other"]["budget"] is None

    def test_unknown_route_is_404(self, server):
        request = urllib.request.Request(server.url + "/v2/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404

    def test_release_and_budget(self, server, outlier_record):
        client = PCORClient(server.url, tenant="release-tester")
        response = client.release(
            "salary", record_id=outlier_record, spec=SPEC, seed=42
        )
        result = response["result"]
        assert result["record_id"] == outlier_record
        assert result["algorithm"] == "uniform"
        assert isinstance(result["context"]["bits"], int)
        assert response["budget"]["spent"] == pytest.approx(0.1)
        budget = client.budget(dataset="salary")
        assert budget["tenant"] == "release-tester"
        assert budget["datasets"]["salary"]["spent"] == pytest.approx(0.1)
        assert budget["datasets"]["salary"]["remaining"] == pytest.approx(0.1)

    def test_pipeline_spec_instances_serialize(self, server, outlier_record):
        client = PCORClient(server.url, tenant="spec-instance")
        spec = PipelineSpec.from_dict(SPEC)
        response = client.release(
            "salary", record_id=outlier_record, spec=spec, seed=7
        )
        assert response["result"]["epsilon_total"] == pytest.approx(0.1)


class TestTypedErrors:
    def test_tenant_exhaustion_is_402_privacy_budget_error(
        self, server, outlier_record
    ):
        client = PCORClient(server.url, tenant="exhausted")
        client.release("salary", record_id=outlier_record, spec=SPEC, seed=1)
        client.release("salary", record_id=outlier_record, spec=SPEC, seed=2)
        with pytest.raises(PrivacyBudgetError, match="tenant 'exhausted'"):
            client.release("salary", record_id=outlier_record, spec=SPEC, seed=3)
        # A different analyst is unaffected.
        other = PCORClient(server.url, tenant="fresh")
        other.release("salary", record_id=outlier_record, spec=SPEC, seed=4)

    def test_missing_tenant_header_is_400(self, server):
        request = urllib.request.Request(server.url + "/v1/budget")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["type"] == "SpecError"

    def test_unknown_dataset_is_404(self, client):
        with pytest.raises(ServerError, match="unknown dataset"):
            client.release("nope", record_id=1, spec=SPEC)

    def test_bad_spec_is_400_spec_error_and_charges_nothing(
        self, server, outlier_record
    ):
        client = PCORClient(server.url, tenant="bad-spec")
        with pytest.raises(SpecError, match="unknown detector"):
            client.release(
                "salary", record_id=outlier_record, spec={"detector": "nope"}
            )
        assert client.budget(dataset="salary")["datasets"]["salary"]["spent"] == 0.0

    @pytest.mark.parametrize("max_batch", [1, 8])
    def test_spec_backend_fields_are_400_and_build_no_pool(
        self, outlier_record, max_batch
    ):
        """A tenant cannot pick an execution pool: ``backend``/``workers``
        in a spec are refused before admission, on the direct and the
        coalesced path alike, so nothing is charged and no pool is built."""
        body = {
            "server": {"port": 0},
            "datasets": {
                "salary": {
                    "source": "salary_reduced",
                    "records": RECORDS,
                    "seed": SEED,
                    "max_batch": max_batch,
                }
            },
        }
        with PCORServer(ServerConfig.from_dict(body)) as srv:
            client = PCORClient(srv.url, tenant="pool-picker")
            for extra, field in (
                ({"backend": "process", "workers": 2}, "backend"),
                ({"backend": "process", "workers": 3}, "backend"),
                ({"workers": 2}, "workers"),
            ):
                with pytest.raises(SpecError, match=f"'{field}'"):
                    client.release(
                        "salary",
                        record_id=outlier_record,
                        spec={**SPEC, **extra},
                        seed=1,
                    )
            spent = client.budget(dataset="salary")["datasets"]["salary"]["spent"]
            assert spent == 0.0
            # The same spec without the fields is served as usual.
            client.release("salary", record_id=outlier_record, spec=SPEC, seed=1)
            client.close()

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/datasets/salary/release",
            data=b"not json",
            headers={"X-PCOR-Tenant": "x", "Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("content_length", ["abc", "-3"])
    def test_malformed_content_length_is_400_and_closes(
        self, server, outlier_record, raw_post, content_length
    ):
        """A Content-Length that is not a non-negative integer leaves the
        body's end unknown: a typed, counted 400, then the connection
        closes instead of parsing the body bytes as the next request."""
        with PCORClient(server.url, tenant="raw-socket") as client:
            before = client.metrics()["server"]["responses_by_status"].get("4xx", 0)
            body = json.dumps({"record_id": outlier_record, "spec": SPEC}).encode()
            status, headers, payload = raw_post(
                server.url, "/v1/datasets/salary/release", content_length, body
            )
            assert status == 400 and headers["Connection"] == "close"
            assert payload["error"]["type"] == "SpecError"
            assert "Content-Length" in payload["error"]["message"]
            after = client.metrics()["server"]["responses_by_status"]["4xx"]
            assert after == before + 1
            spent = client.budget(dataset="salary")["datasets"]["salary"]["spent"]
            assert spent == 0.0

    def test_unknown_body_field_is_400(self, server, outlier_record):
        client = PCORClient(server.url, tenant="x")
        with pytest.raises(SpecError, match="unknown release field"):
            client._request(
                "POST",
                "/v1/datasets/salary/release",
                {"record_id": outlier_record, "spec": SPEC, "bogus": 1},
            )

    def test_non_integer_record_id_is_400(self, server):
        client = PCORClient(server.url, tenant="x")
        with pytest.raises(SpecError, match="record_id"):
            client._request(
                "POST",
                "/v1/datasets/salary/release",
                {"record_id": "seventeen", "spec": SPEC},
            )

    def test_keep_alive_survives_posts_to_error_routes(
        self, server, outlier_record
    ):
        """The handler must drain an unread POST body before answering an
        error, or the leftover bytes desync the keep-alive connection."""
        client = PCORClient(server.url, tenant="keep-alive")
        assert client.health()["status"] == "ok"
        conn = client._conn
        with pytest.raises(ServerError, match="no such route"):
            client._request(
                "POST",
                "/v1/not-a-route",
                {"record_id": outlier_record, "spec": SPEC, "seed": 1},
            )
        with pytest.raises(ServerError, match="unknown dataset"):
            client.release("nope", record_id=outlier_record, spec=SPEC)
        # Same connection, next request parses cleanly.
        assert client._conn is conn
        assert client.health()["status"] == "ok"

    def test_failed_release_is_422_but_charged(self, server):
        """A record with no matching context fails mid-run: the epsilon is
        already spent (an aborted mechanism run may leak) and the error
        maps to 422, not 400/402."""
        client = PCORClient(server.url, tenant="charged-anyway")
        before = client.budget(dataset="salary")["datasets"]["salary"]["spent"]
        with pytest.raises(ReproError) as excinfo:
            client.release("salary", record_id=10**9, spec=SPEC, seed=5)
        assert not isinstance(excinfo.value, (SpecError, PrivacyBudgetError))
        after = client.budget(dataset="salary")["datasets"]["salary"]["spent"]
        assert after == pytest.approx(before + 0.1)


class TestBitIdentity:
    def test_http_release_matches_direct_engine_submit(
        self, server, outlier_record
    ):
        """Same seed, same spec → the served release is bit-identical to an
        in-process engine.submit on an identically-built dataset."""
        spec = PipelineSpec.from_dict(SPEC)
        engine = ReleaseEngine(salary_reduced(n_records=RECORDS, seed=SEED))
        for seed in (11, 12, 13):
            # One tenant per seed: the identity check must not be cut short
            # by the module server's small per-tenant quota.
            client = PCORClient(server.url, tenant=f"identity-{seed}")
            served = client.release(
                "salary", record_id=outlier_record, spec=SPEC, seed=seed
            )["result"]
            direct = engine.submit(
                ReleaseRequest(record_id=outlier_record, spec=spec, seed=seed)
            )
            assert served["context"]["bits"] == direct.context.bits
            assert served["utility_value"] == pytest.approx(direct.utility_value)
            assert served["epsilon_one"] == pytest.approx(direct.epsilon_one)
            assert served["n_candidates"] == direct.n_candidates
        engine.close()


class TestMetrics:
    def test_metrics_are_monotonic_and_tenant_broken_down(
        self, server, outlier_record
    ):
        client = PCORClient(server.url, tenant="metrics-tenant")
        before = client.metrics()
        client.release("salary", record_id=outlier_record, spec=SPEC, seed=21)
        after = client.metrics()
        b, a = before["datasets"]["salary"], after["datasets"]["salary"]
        for key in ("requests_submitted", "releases_completed", "epsilon_spent",
                    "ledger_charges", "fm_queries"):
            assert a[key] >= b[key], f"{key} went backwards"
        assert a["releases_completed"] == b["releases_completed"] + 1
        assert a["spend_by_tenant"]["metrics-tenant"] == pytest.approx(0.1)
        assert a["epsilon_budget"] == 100.0
        assert after["server"]["responses_by_status"]["2xx"] >= 2

    def test_unbuilt_dataset_still_reports(self, server):
        client = PCORClient(server.url, tenant="x")
        body = client.metrics()["datasets"]["other"]
        assert body["epsilon_spent"] == 0.0
        assert body["spend_by_tenant"] == {}


class TestUnbudgetedSpend:
    def test_unbudgeted_dataset_reports_its_ledger(
        self, tmp_path, outlier_record
    ):
        """A dataset with tenant quotas but no global budget reports the
        spend its ledger holds, built and (after a restart) unbuilt;
        ``budget`` and ``remaining`` stay null and ``/v1/budget`` keeps its
        shape."""
        config = server_config(tmp_path, tenant_budget=1.0, budget=None)

        def check(server, built):
            client = PCORClient(server.url, tenant="alice")
            body = client.metrics()["datasets"]["salary"]
            assert body["epsilon_spent"] == 0.75
            assert body["ledger_charges"] == 2
            assert body["epsilon_budget"] is None
            assert body["epsilon_remaining"] is None
            assert body["spend_by_tenant"] == {"alice": 0.75}
            text = client.prometheus_metrics()
            assert 'pcor_epsilon_spent_total{dataset="salary"} 0.75' in text
            assert 'pcor_ledger_charges_total{dataset="salary"} 2' in text
            listed = client.datasets()["salary"]
            assert listed["built"] is built
            assert listed["spent"] == 0.75
            assert listed["budget"] is None and listed["remaining"] is None
            assert client.budget(dataset="salary")["datasets"]["salary"] == {
                "tenant": "alice",
                "budget": 1.0,
                "spent": 0.75,
                "remaining": 0.25,
            }

        with PCORServer(config) as server:
            client = PCORClient(server.url, tenant="alice")
            for seed, epsilon in ((1, 0.25), (2, 0.5)):
                client.release(
                    "salary",
                    record_id=outlier_record,
                    spec={**SPEC, "epsilon": epsilon},
                    seed=seed,
                )
            check(server, built=True)
        with PCORServer(config) as server:
            check(server, built=False)


class TestRestartDurability:
    def test_exhausted_tenant_stays_exhausted_across_restart(
        self, tmp_path, outlier_record
    ):
        """The acceptance scenario: spend to exhaustion over a JSONL WAL,
        kill the server, restart on the same ledger path — the next request
        is rejected with 402 *before* any detector run."""
        with PCORServer(server_config(tmp_path)) as server:
            client = PCORClient(server.url, tenant="doomed")
            client.release("salary", record_id=outlier_record, spec=SPEC, seed=1)
            client.release("salary", record_id=outlier_record, spec=SPEC, seed=2)

        with PCORServer(server_config(tmp_path)) as server:
            client = PCORClient(server.url, tenant="doomed")
            budget = client.budget(dataset="salary")["datasets"]["salary"]
            assert budget["spent"] == pytest.approx(0.2)
            assert budget["remaining"] == pytest.approx(0.0)
            with pytest.raises(PrivacyBudgetError, match="tenant 'doomed'"):
                client.release(
                    "salary", record_id=outlier_record, spec=SPEC, seed=3
                )
            # Rejection happened at admission: the dataset engine (and hence
            # the detector) was never even built.
            entry = server.registry.get("salary")
            assert not entry.built
            assert client.datasets()["salary"]["built"] is False
            # The global ledger replayed too.
            assert client.datasets()["salary"]["spent"] == pytest.approx(0.2)

    def test_restart_preserves_bit_identity(self, tmp_path, outlier_record):
        """Replay must not perturb RNG or engine state: a post-restart
        release equals the same release on a fresh in-process engine."""
        with PCORServer(server_config(tmp_path, tenant_budget=5.0)) as server:
            PCORClient(server.url, tenant="warm").release(
                "salary", record_id=outlier_record, spec=SPEC, seed=1
            )
        with PCORServer(server_config(tmp_path, tenant_budget=5.0)) as server:
            served = PCORClient(server.url, tenant="warm").release(
                "salary", record_id=outlier_record, spec=SPEC, seed=77
            )["result"]
        engine = ReleaseEngine(salary_reduced(n_records=RECORDS, seed=SEED))
        direct = engine.submit(
            ReleaseRequest(
                record_id=outlier_record,
                spec=PipelineSpec.from_dict(SPEC),
                seed=77,
            )
        )
        assert served["context"]["bits"] == direct.context.bits
        engine.close()


class TestDrainWindow:
    """Shutdown drain semantics: typed 503s with Retry-After for guarded
    routes, while /healthz keeps answering — reporting "draining" — so
    probes (and the cluster router's heartbeats) can tell a deliberately
    stopping server from a dead one."""

    def test_guarded_routes_get_typed_503_with_retry_after(self):
        with PCORServer(server_config()) as server:
            client = PCORClient(server.url, tenant="drain", retry_503=0)
            assert client.health()["status"] == "ok"
            server.drain.drain(timeout=0.5)  # stop admitting, like SIGTERM

            # /healthz still answers, now reporting the drain.
            assert client.health()["status"] == "draining"

            # Guarded routes: typed JSON error payload, 503, Retry-After.
            request = urllib.request.Request(
                server.url + "/v1/datasets", headers={"X-PCOR-Tenant": "drain"}
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None
            payload = json.loads(excinfo.value.read())
            assert payload["error"]["type"] == "ServerError"
            assert payload["error"]["status"] == 503
            assert "shutting down" in payload["error"]["message"]

            # The client resurrects it as the public exception class.
            with pytest.raises(ServerError, match="shutting down"):
                client.datasets()


class _FlakyHandler(__import__("http.server", fromlist=["BaseHTTPRequestHandler"]).BaseHTTPRequestHandler):
    """Stub server: 503 + Retry-After on the first N requests per method,
    then 200 — the shape a draining server or a respawning shard presents."""

    def _serve(self, method):
        counts = self.server.counts  # type: ignore[attr-defined]
        counts[method] = counts.get(method, 0) + 1
        if counts[method] <= self.server.fail_first:  # type: ignore[attr-defined]
            body = (
                b'{"error": {"type": "ServerError", '
                b'"message": "try later", "status": 503}}'
            )
            self.send_response(503)
            self.send_header("Retry-After", "0")
        else:
            body = b'{"datasets": {}, "result": {}}'
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        self._serve("GET")

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        self._serve("POST")

    def log_message(self, *args):  # noqa: A002
        pass


@pytest.fixture()
def flaky_server():
    import http.server
    import threading

    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    httpd.counts = {}
    httpd.fail_first = 1
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()


class TestClientRetryAfter:
    def test_idempotent_get_rides_out_503(self, flaky_server):
        """A GET answered 503-with-Retry-After is retried (capped wait) —
        reads are idempotent, and router shards 503 transiently while a
        crashed worker respawns."""
        url = f"http://127.0.0.1:{flaky_server.server_address[1]}"
        client = PCORClient(url, tenant="x", retry_503=2)
        assert client.datasets() == {}
        assert flaky_server.counts["GET"] == 2  # one 503, one success

    def test_get_gives_up_after_retry_budget(self, flaky_server):
        flaky_server.fail_first = 10
        url = f"http://127.0.0.1:{flaky_server.server_address[1]}"
        client = PCORClient(url, tenant="x", retry_503=2, max_retry_after_s=0.01)
        with pytest.raises(ServerError, match="try later"):
            client.datasets()
        assert flaky_server.counts["GET"] == 3  # initial + 2 retries

    def test_release_post_is_never_blindly_resent(self, flaky_server):
        """The server may have admitted — and fsync'd — the charge before
        the 503 raced the drain; resending would double-spend epsilon.  The
        client must surface the 503 after exactly one attempt."""
        url = f"http://127.0.0.1:{flaky_server.server_address[1]}"
        client = PCORClient(url, tenant="x", retry_503=5)
        with pytest.raises(ServerError, match="try later"):
            client.release("salary", record_id=1, spec=SPEC, seed=1)
        assert flaky_server.counts["POST"] == 1
