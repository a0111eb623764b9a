"""Observability tests: metrics primitives, traces, structured logs, and
the instrumented server surface.

Unit coverage for ``src/repro/obs/`` plus end-to-end checks against a real
:class:`PCORServer`: span timelines in release payloads, the Prometheus
exposition, ``/healthz`` process stats, and the log-schema contract
(every emitted JSON log line parses and carries the required keys).
"""

import io
import json
import logging
from pathlib import Path

import pytest

from repro.exceptions import SpecError
from repro.obs.export import dataset_families, merge_expositions
from repro.obs.logs import (
    REQUIRED_KEYS,
    JsonEventFormatter,
    TextEventFormatter,
    configure_logging,
    log_event,
)
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_text,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Trace,
    process_rss_bytes,
    sampled_for,
    span,
    trace_for_request,
)
from repro.server import (
    ObservabilityConfig,
    PCORClient,
    PCORServer,
    ServerConfig,
)

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


def server_config(observability=None, max_batch=1) -> ServerConfig:
    body = {
        "server": {"port": 0},
        "datasets": {
            "salary": {
                "source": "salary_reduced",
                "records": RECORDS,
                "seed": SEED,
                "budget": 100.0,
                "tenant_budget": 0.5,
            },
        },
    }
    if max_batch > 1:
        body["datasets"]["salary"].update(
            {"max_batch": max_batch, "max_delay_ms": 5}
        )
    if observability is not None:
        body["observability"] = observability
    return ServerConfig.from_dict(body)


# ---------------------------------------------------------------- primitives


class TestMetricsPrimitives:
    def test_counter_accumulates_per_label(self):
        c = Counter("pcor_things_total", "things", labelnames=("kind",))
        c.inc(labels=("a",))
        c.inc(2.0, labels=("a",))
        c.inc(labels=("b",))
        assert c.value(("a",)) == 3.0
        assert c.items() == [(("a",), 3.0), (("b",), 1.0)]

    def test_label_arity_is_checked(self):
        c = Counter("pcor_things_total", "things", labelnames=("kind",))
        with pytest.raises(ValueError, match="label"):
            c.inc(labels=())

    def test_gauge_set_and_inc(self):
        g = Gauge("pcor_depth", "depth")
        g.set(4.0)
        g.inc(-1.5)
        assert g.value() == 2.5

    def test_histogram_bucket_edges_are_inclusive(self):
        h = Histogram("pcor_lat_seconds", "lat", buckets=(0.01, 0.1))
        h.observe(0.01)  # exactly the bound: counts in le="0.01"
        h.observe(0.05)
        h.observe(5.0)  # overflows into +Inf
        counts, total, count = h.snapshot()
        assert counts == [1, 1, 1]
        assert total == pytest.approx(5.06)
        assert count == 3
        text = render_text([h.family()])
        assert 'pcor_lat_seconds_bucket{le="0.01"} 1' in text
        assert 'pcor_lat_seconds_bucket{le="0.1"} 2' in text  # cumulative
        assert 'pcor_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "pcor_lat_seconds_count 3" in text

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("pcor_bad", "bad", buckets=(0.1, 0.01))

    def test_registry_rejects_type_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("pcor_x_total", "x")
        with pytest.raises(ValueError, match="different"):
            registry.gauge("pcor_x_total", "x")

    def test_registry_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("pcor_x_total", "x", labelnames=("k",))
        b = registry.counter("pcor_x_total", "x", labelnames=("k",))
        assert a is b

    def test_label_values_are_escaped(self):
        c = Counter("pcor_esc_total", "esc", labelnames=("v",))
        c.inc(labels=('a"b\\c\nd',))
        text = render_text([c.family()])
        assert '{v="a\\"b\\\\c\\nd"}' in text

    def test_empty_families_are_skipped(self):
        c = Counter("pcor_never_total", "never")
        assert render_text([c.family()]) == "\n"


# -------------------------------------------------------------------- traces


class TestTrace:
    def test_mint_ids_are_hex_and_unique(self):
        ids = {Trace.mint().trace_id for _ in range(32)}
        assert len(ids) == 32
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_header_round_trip(self):
        trace = Trace.mint(sampled=False)
        parsed = Trace.from_header(trace.header_value())
        assert parsed.trace_id == trace.trace_id
        assert parsed.t0 == trace.t0
        assert parsed.sampled is False

    @pytest.mark.parametrize(
        "header",
        ["", "not hex!", "zzzz;t0=1.0;s=1", "abc;t0=nope", "x" * 200],
    )
    def test_malformed_headers_are_rejected(self, header):
        assert Trace.from_header(header) is None

    def test_unsampled_trace_records_nothing(self):
        trace = Trace.mint(sampled=False)
        with span("x", trace):
            pass
        trace.add_span("y", 0.0, 1.0)
        assert trace.spans() == []

    def test_span_records_on_exit_even_when_the_block_raises(self):
        trace = Trace("ab" * 8)
        with span("outer", trace, k=1) as outer:
            outer.attrs["late"] = 2
        with pytest.raises(ValueError):
            with span("failed", trace) as failed:
                raise ValueError("boom")
        spans = {s["name"]: s for s in trace.spans()}
        assert spans["outer"]["k"] == 1 and spans["outer"]["late"] == 2
        assert spans["outer"]["duration_ms"] == round(outer.elapsed * 1000.0, 3)
        assert spans["failed"]["duration_ms"] == round(failed.elapsed * 1000.0, 3)
        # Trace-less spans still time their block for the caller.
        with span("untraced") as untraced:
            pass
        assert untraced.elapsed >= 0.0 and len(trace.spans()) == 2

    def test_spans_sort_by_start(self):
        trace = Trace("ab" * 8, t0=0.0)
        trace.add_span("later", 2.0, 3.0)
        trace.add_span("earlier", 1.0, 3.0)
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert names == ["earlier", "later"]

    def test_sampling_is_deterministic_by_id(self):
        assert sampled_for("ab" * 8, 1.0) is True
        assert sampled_for("ab" * 8, 0.0) is False
        assert sampled_for("ab" * 8, 0.5) == sampled_for("ab" * 8, 0.5)

    def test_trace_for_request_adopts_header(self):
        obs = ObservabilityConfig()
        trace = trace_for_request("deadbeefdeadbeef;t0=1.5;s=1", obs)
        assert trace.trace_id == "deadbeefdeadbeef"
        assert trace.t0 == 1.5
        minted = trace_for_request(None, obs)
        assert minted is not None and minted.trace_id != trace.trace_id
        assert trace_for_request(None, None) is None
        disabled = ObservabilityConfig(enabled=False)
        assert trace_for_request(None, disabled) is None

    def test_process_rss_is_positive(self):
        assert process_rss_bytes() > 0


# ---------------------------------------------------------------------- logs


class TestStructuredLogs:
    def _capture(self, fmt):
        stream = io.StringIO()
        configure_logging(fmt, level=logging.DEBUG, stream=stream)
        return stream

    def teardown_method(self):
        # Put the tree back so other tests see default logging behavior.
        logger = logging.getLogger("repro")
        logger.handlers = [
            h for h in logger.handlers if not getattr(h, "_pcor_obs", False)
        ]
        logger.setLevel(logging.NOTSET)
        logger.propagate = True

    def test_every_json_line_parses_with_required_keys(self):
        """The log-schema contract: one JSON object per line, required
        keys always present, across every event shape the stack emits."""
        stream = self._capture("json")
        logger = logging.getLogger("repro.server")
        log_event(logger, "request", trace_id="ab" * 8, tenant="alice",
                  dataset="salary", epsilon=0.1, status="ok", duration_ms=3.2)
        log_event(logger, "flush", dataset="salary", batch=4, admitted=3,
                  epsilon=0.4, duration_ms=10.0, trace_ids=["ab" * 8])
        log_event(logging.getLogger("repro.cluster"), "heartbeat",
                  level=logging.DEBUG, shard=0, worker_id="shard0-gen0",
                  status="ok")
        log_event(logging.getLogger("repro.cluster"), "respawn",
                  level=logging.WARNING, shard=1, worker_id="shard1-gen1",
                  generation=1, respawns=1)
        log_event(logger, "drain", active=0)
        logger.info("a plain %s record", "stdlib")  # non-event line
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 6
        for line in lines:
            body = json.loads(line)
            for key in REQUIRED_KEYS:
                assert key in body, (key, line)
        assert json.loads(lines[0])["trace_id"] == "ab" * 8
        assert json.loads(lines[3])["level"] == "WARNING"
        assert json.loads(lines[5])["event"] == "a plain stdlib record"

    def test_text_format_is_key_value(self):
        stream = self._capture("text")
        log_event(logging.getLogger("repro.server"), "request",
                  tenant="alice", status="ok")
        assert stream.getvalue().strip() == (
            "info repro.server request tenant=alice status=ok"
        )

    def test_configure_logging_is_idempotent(self):
        self._capture("json")
        self._capture("text")
        logger = logging.getLogger("repro")
        obs_handlers = [
            h for h in logger.handlers if getattr(h, "_pcor_obs", False)
        ]
        assert len(obs_handlers) == 1

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="log format"):
            configure_logging("xml")

    def test_formatters_render_plain_records(self):
        record = logging.LogRecord(
            "repro.x", logging.INFO, __file__, 1, "hello %d", (7,), None
        )
        assert json.loads(JsonEventFormatter().format(record))["event"] == "hello 7"
        assert TextEventFormatter().format(record) == "info repro.x hello 7"


# ------------------------------------------------------------------- exports


def populated_body(k: int) -> dict:
    """A ``/v1/metrics`` dataset body with every key set (``k`` varies the
    values): every :class:`EngineMetrics` field, two phases, two tenants
    and the server-added ``tenant_rejections``."""
    return {
        "requests_submitted": 40 * k,
        "releases_completed": 37 * k,
        "requests_rejected": 3 * k,
        "epsilon_spent": 3.7 * k,
        "epsilon_budget": 100.0,
        "epsilon_remaining": 100.0 - 3.7 * k,
        "ledger_charges": 37 * k,
        "spend_by_tenant": {"alice": 1.5 * k, "bob": 2.2 * k},
        "profile_hits": 9000 + k,
        "profile_misses": 700 + k,
        "profile_evictions": 12 * k,
        "profiles_cached": 688 + k,
        "fm_evaluations": 700 + k,
        "fm_queries": 9700 + 2 * k,
        "n_verifiers": k,
        "wall_time_s": 1.625 * k,
        "backend": "process",
        "backend_workers": 2 * k,
        "release_tasks": 30 * k,
        "profile_tasks": 4 * k,
        "phase_wall_s": {"admission": 0.0125 * k, "release": 1.75 * k},
        "phase_tasks": {"release": 37 * k, "warm_profiles": 5 * k},
        "batch_flushes": 9 * k,
        "batch_requests": 37 * k,
        "batch_queue_depth": k,
        "batch_queue_wait_s": 0.046875 * k,
        "batch_size_min": k,
        "batch_size_p50": 3.5 * k,
        "batch_size_max": 4 * k,
        "dataset_version": 2 * k,
        "appends": 2 * k,
        "profiles_invalidated": 160 * k,
        "tenant_rejections": {"alice": k, "carol": 3 * k},
    }


PINNED_EXPOSITION = Path(__file__).parent / "fixtures" / "dataset_exposition.prom"


class TestExport:
    def test_exposition_of_a_full_body_is_pinned(self):
        """Every table row, rendered for two fully populated datasets,
        byte for byte as the hand-built families of the four-table
        exporter rendered them."""
        datasets = {"salary": populated_body(1), "census": populated_body(2)}
        assert render_text(dataset_families(datasets)) == (
            PINNED_EXPOSITION.read_text(encoding="utf-8")
        )

    def test_every_exported_key_has_one_table_row(self):
        """One row per ``/v1/metrics`` dataset key: every EngineMetrics
        field but the informational ``backend`` name, and every key the
        server adds to it."""
        import dataclasses

        from repro.obs.export import DATASET_METRICS
        from repro.service.engine import EngineMetrics

        keys = [row[0] for row in DATASET_METRICS]
        assert len(keys) == len(set(keys))
        config = server_config(max_batch=2)
        server = PCORServer(config)
        try:
            server.registry.get("salary").engine  # build it: a full body
            body = server.metrics()["datasets"]["salary"]
        finally:
            server.shutdown()
        fields = {f.name for f in dataclasses.fields(EngineMetrics)}
        assert set(body) - fields == {"tenant_rejections"}
        assert sorted(keys) == sorted(set(body) - {"backend"})
        for key, kind, name, _help, label in DATASET_METRICS:
            assert kind in ("counter", "gauge"), key
            assert name.endswith("_total") == (kind == "counter"), key
            assert (label is None) != isinstance(body[key], dict), key

    def test_dataset_families_cover_budget_telemetry(self):
        datasets = {
            "salary": {
                "epsilon_spent": 0.3,
                "epsilon_budget": 2.0,
                "spend_by_tenant": {"alice": 0.2, "bob": 0.1},
                "tenant_rejections": {"alice": 4},
                "batch_queue_wait_s": 1.25,
            }
        }
        text = render_text(dataset_families(datasets))
        assert 'pcor_epsilon_spent_total{dataset="salary"} 0.3' in text
        assert 'pcor_tenant_epsilon_spent{dataset="salary",tenant="alice"} 0.2' in text
        assert 'pcor_epsilon_exhausted_total{dataset="salary",tenant="alice"} 4' in text
        # Satellite: the queue-wait counter carries its unit in the name.
        assert (
            'pcor_batch_queue_wait_seconds_total{dataset="salary"} 1.25' in text
        )

    def test_merge_stamps_shard_labels_and_dedups_headers(self):
        shard0 = (
            "# HELP pcor_x_total x\n# TYPE pcor_x_total counter\n"
            'pcor_x_total{kind="a"} 1\npcor_y 2\n'
        )
        shard1 = (
            "# HELP pcor_x_total x\n# TYPE pcor_x_total counter\n"
            "pcor_x_total 5\n"
        )
        lines = merge_expositions([(0, shard0), (1, shard1)])
        assert lines.count("# TYPE pcor_x_total counter") == 1
        assert 'pcor_x_total{shard="0",kind="a"} 1' in lines
        assert 'pcor_x_total{shard="1"} 5' in lines
        assert 'pcor_y{shard="0"} 2' in lines

    def test_validate_exposition_accepts_real_output(self):
        from repro.obs import validate_exposition

        text = render_text(dataset_families({"salary": {"epsilon_spent": 0.5}}))
        assert validate_exposition(text) == []
        # Merged fleet output stays clean too (dedup'd headers).
        merged = "\n".join(merge_expositions([(0, text), (1, text)])) + "\n"
        assert validate_exposition(merged) == []

    def test_validate_exposition_flags_scraper_breakers(self):
        from repro.obs import validate_exposition

        cases = {
            "malformed header": "# TYPE pcor_x\npcor_x 1\n",
            "unknown metric type": "# TYPE pcor_x speedometer\npcor_x 1\n",
            "duplicate # TYPE": (
                "# TYPE pcor_x counter\n# TYPE pcor_x counter\npcor_x 1\n"
            ),
            "unparseable sample": "# TYPE pcor_x counter\n{oops} 1\n",
            "is not a float": "# TYPE pcor_x counter\npcor_x one\n",
            "has no # HELP/# TYPE header": "pcor_mystery 1\n",
        }
        for expected, text in cases.items():
            problems = validate_exposition(text)
            assert problems, expected
            assert any(expected in p for p in problems), (expected, problems)

    def test_validate_exposition_allows_histogram_suffixes(self):
        from repro.obs import validate_exposition

        text = (
            "# HELP pcor_lat_seconds latency\n"
            "# TYPE pcor_lat_seconds histogram\n"
            'pcor_lat_seconds_bucket{le="0.1"} 3\n'
            'pcor_lat_seconds_bucket{le="+Inf"} 5\n'
            "pcor_lat_seconds_sum 0.42\n"
            "pcor_lat_seconds_count 5\n"
        )
        assert validate_exposition(text) == []


# -------------------------------------------------------------------- config


class TestObservabilityConfig:
    def test_defaults_round_trip(self):
        config = ServerConfig.from_dict(
            {
                "server": {"port": 0},
                "datasets": {"d": {"source": "salary_reduced", "records": 50}},
                "observability": {"sample_rate": 0.5, "log_format": "json"},
            }
        )
        assert config.observability.sample_rate == 0.5
        assert config.observability.log_format == "json"
        assert config.observability.enabled is True
        rebuilt = ServerConfig.from_dict(config.to_dict())
        assert rebuilt.observability == config.observability

    def test_unknown_field_is_rejected(self):
        with pytest.raises(SpecError, match="observability"):
            ServerConfig.from_dict(
                {
                    "server": {"port": 0},
                    "datasets": {"d": {"source": "salary_reduced", "records": 50}},
                    "observability": {"sampl_rate": 0.5},
                }
            )

    @pytest.mark.parametrize(
        "body", [{"sample_rate": 1.5}, {"slow_request_ms": -1},
                 {"log_format": "xml"}]
    )
    def test_invalid_values_are_rejected(self, body):
        with pytest.raises(SpecError):
            ObservabilityConfig(**body)


# ------------------------------------------------------------- served surface


@pytest.fixture(scope="module")
def server():
    with PCORServer(server_config()) as srv:
        yield srv


@pytest.fixture()
def client(server) -> PCORClient:
    return PCORClient(server.url, tenant="alice")


class TestServerObservability:
    def test_release_payload_carries_span_timeline(self, client):
        payload = client.release(
            "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=42
        )
        trace = payload["trace"]
        assert len(trace["trace_id"]) == 16
        names = [s["name"] for s in trace["spans"]]
        for want in ("server.handle", "admission", "engine.execute",
                     "engine.sample"):
            assert want in names, names
        handle = next(s for s in trace["spans"] if s["name"] == "server.handle")
        assert handle["tenant"] == "alice"
        assert handle["status"] == "ok"
        exec_span = next(
            s for s in trace["spans"] if s["name"] == "engine.execute"
        )
        assert exec_span["duration_ms"] >= 0
        assert exec_span["record_id"] == OUTLIER_RECORD

    def test_client_supplied_trace_id_is_honored(self, server):
        import http.client as hc

        body = json.dumps(
            {"record_id": OUTLIER_RECORD, "spec": SPEC, "seed": 43}
        ).encode("utf-8")
        conn = hc.HTTPConnection(server.host, server.port)
        try:
            conn.request(
                "POST",
                "/v1/datasets/salary/release",
                body=body,
                headers={
                    "X-PCOR-Tenant": "alice",
                    TRACE_HEADER: "feedfacefeedface",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert payload["trace"]["trace_id"] == "feedfacefeedface"

    def test_trace_never_perturbs_the_release(self, server):
        """Bit-identity: the same seed yields the same result with and
        without a trace riding along (tracing draws no randomness)."""
        a = PCORClient(server.url, tenant="bit-a").release(
            "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=77
        )["result"]
        with PCORServer(
            server_config(observability={"enabled": False})
        ) as untraced:
            b = PCORClient(untraced.url, tenant="bit-a").release(
                "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=77
            )["result"]
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_disabled_observability_omits_trace(self):
        with PCORServer(
            server_config(observability={"enabled": False})
        ) as srv:
            payload = PCORClient(srv.url, tenant="quiet").release(
                "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1
            )
            assert "trace" not in payload
            assert srv.health()["observability"]["enabled"] is False

    def test_prometheus_exposition(self, server, client):
        client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=9)
        text = client.prometheus_metrics()
        assert "# TYPE pcor_http_responses_total counter" in text
        assert "# TYPE pcor_release_latency_seconds histogram" in text
        assert 'pcor_release_latency_seconds_bucket{dataset="salary"' in text
        assert 'pcor_epsilon_spent_total{dataset="salary"}' in text
        assert 'pcor_tenant_epsilon_spent{dataset="salary",tenant="alice"}' in text
        # Raw content type on the wire.
        import http.client as hc

        conn = hc.HTTPConnection(server.host, server.port)
        try:
            conn.request("GET", "/v1/metrics/prometheus")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == PROMETHEUS_CONTENT_TYPE
            response.read()
        finally:
            conn.close()

    def test_epsilon_exhausted_counter(self, server):
        greedy = PCORClient(server.url, tenant="greedy")
        for seed in range(5):
            greedy.release(
                "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=seed
            )
        from repro.exceptions import PrivacyBudgetError

        with pytest.raises(PrivacyBudgetError):
            greedy.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=9)
        text = greedy.prometheus_metrics()
        assert (
            'pcor_epsilon_exhausted_total{dataset="salary",tenant="greedy"} 1'
            in text
        )

    @pytest.mark.parametrize("max_batch", [1, 2], ids=["direct", "coalesced"])
    def test_tenant_budget_rejection_counts_as_rejected_request(self, max_batch):
        """Served releases are admitted by the tenant ledgers, not the
        engine's own charge; a refusal there still reads in
        requests_rejected, in the JSON and in the exposition."""
        from repro.exceptions import PrivacyBudgetError

        with PCORServer(server_config(max_batch=max_batch)) as srv:
            client = PCORClient(srv.url, tenant="greedy")
            client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1)
            with pytest.raises(PrivacyBudgetError):
                client.release(
                    "salary",
                    record_id=OUTLIER_RECORD,
                    spec=dict(SPEC, epsilon=0.45),  # 0.4 of 0.5 remains
                    seed=2,
                )
            body = client.metrics()["datasets"]["salary"]
            text = client.prometheus_metrics()
            client.close()
        assert body["tenant_rejections"] == {"greedy": 1}
        assert body["requests_rejected"] == 1
        assert 'pcor_requests_rejected_total{dataset="salary"} 1' in text

    def test_healthz_reports_process_stats(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0
        assert body["rss_bytes"] > 0
        assert body["observability"] == {
            "enabled": True,
            "sample_rate": 1.0,
            "slow_request_ms": 1000.0,
            "log_format": "text",
        }

    def test_json_metrics_stay_shaped(self, client):
        client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=3)
        metrics = client.metrics()
        assert metrics["server"]["responses_by_status"]["2xx"] >= 1
        salary = metrics["datasets"]["salary"]
        assert salary["requests_submitted"] >= 1
        assert isinstance(salary["epsilon_spent"], float)

    def test_sample_rate_zero_drops_minted_traces(self):
        with PCORServer(
            server_config(observability={"sample_rate": 0.0})
        ) as srv:
            payload = PCORClient(srv.url, tenant="unsampled").release(
                "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=2
            )
            assert "trace" not in payload

    def test_slow_request_log_dumps_spans(self):
        """With the threshold at zero every request is 'slow': the WARNING
        line carries the trace id and the span timeline."""
        stream = io.StringIO()
        configure_logging("json", level=logging.INFO, stream=stream)
        try:
            with PCORServer(
                server_config(observability={"slow_request_ms": 0.0})
            ) as srv:
                payload = PCORClient(srv.url, tenant="slow").release(
                    "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=4
                )
            lines = [json.loads(l) for l in stream.getvalue().splitlines()]
            slow = [l for l in lines if l["event"] == "slow_request"]
            assert slow, [l["event"] for l in lines]
            assert slow[0]["trace_id"] == payload["trace"]["trace_id"]
            assert any(
                s["name"] == "engine.execute" for s in slow[0]["spans"]
            )
            requests = [l for l in lines if l["event"] == "request"]
            assert requests and requests[0]["tenant"] == "slow"
            for line in lines:
                for key in REQUIRED_KEYS:
                    assert key in line
        finally:
            logger = logging.getLogger("repro")
            logger.handlers = [
                h for h in logger.handlers if not getattr(h, "_pcor_obs", False)
            ]
            logger.setLevel(logging.NOTSET)
            logger.propagate = True

    def test_coalesced_release_traces_queue_and_admission(self):
        with PCORServer(server_config(max_batch=4)) as srv:
            client = PCORClient(srv.url, tenant="batcher")
            payloads = client.release_many(
                "salary",
                records=[OUTLIER_RECORD] * 4,
                spec=SPEC,
                seeds=[10, 11, 12, 13],
                concurrency=4,
            )
            for payload in payloads:
                names = [s["name"] for s in payload["trace"]["spans"]]
                assert "queue.wait" in names, names
                assert "admission" in names, names
                assert "engine.execute" in names, names
