"""Live profiling and debug introspection: profiler, event ring, endpoints.

Unit-level coverage of ``repro.obs.profiler`` / ``repro.obs.events``, the
``/v1/debug/profile`` + ``/v1/debug/events`` endpoints on a single server,
the router's fleet-wide aggregation (including a shard dying mid-scrape),
and the drain-disarm bugfix: shutdown must wake in-flight profile
sessions instead of letting them stall the drain barrier.
"""

import json
import logging
import threading
import time
import urllib.error
import urllib.request
from contextlib import nullcontext

import pytest

from repro.exceptions import ServerError, SpecError
from repro.obs.events import (
    EventBuffer,
    install_event_buffer,
    uninstall_event_buffer,
)
from repro.obs.logs import log_event
from repro.obs.profiler import (
    DEFAULT_HZ,
    DEFAULT_SECONDS,
    MAX_HZ,
    MAX_SECONDS,
    ProfilerDisarmed,
    ProfileSessions,
    SamplingProfiler,
    collect_profile,
    merge_folded,
    profiler_supported,
    profiling_active,
    render_folded,
    validate_profile_args,
)
from repro.obs.trace import span
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


def server_config(**observability) -> ServerConfig:
    body = {
        "server": {"port": 0},
        "datasets": {
            "salary": {
                "source": "salary_reduced",
                "records": RECORDS,
                "seed": SEED,
                "budget": 1000.0,
            }
        },
    }
    if observability:
        body["observability"] = observability
    return ServerConfig.from_dict(body)


def busy_thread(stop: threading.Event, phase=None) -> threading.Thread:
    """A named thread burning CPU (optionally inside an engine phase)."""

    def spin():
        with span(phase) if phase is not None else nullcontext():
            while not stop.is_set():
                sum(i * i for i in range(500))

    thread = threading.Thread(target=spin, name="busy-loop", daemon=True)
    thread.start()
    return thread


class TestProfilerUnit:
    def test_validate_profile_args_defaults_and_bounds(self):
        assert validate_profile_args(None, None) == (DEFAULT_SECONDS, DEFAULT_HZ)
        assert validate_profile_args(1, 10) == (1.0, 10.0)
        for seconds, hz in (
            (0.0, 10),
            (-1, 10),
            (MAX_SECONDS + 1, 10),
            (1, 0.5),
            (1, MAX_HZ + 1),
        ):
            with pytest.raises(ValueError):
                validate_profile_args(seconds, hz)

    def test_profiler_captures_a_busy_thread(self):
        assert profiler_supported()  # CPython in CI
        stop = threading.Event()
        thread = busy_thread(stop)
        try:
            payload = collect_profile(seconds=0.25, hz=200)
        finally:
            stop.set()
            thread.join()
        assert payload["supported"] is True
        assert payload["disarmed"] is False
        assert payload["samples"] > 5
        assert payload["threads"] >= 1
        busy = [k for k in payload["folded"] if k.startswith("busy-loop;")]
        assert busy, payload["folded"]
        # Frames are module.function labels rooted at the thread name.
        assert any("test_debug_introspection.spin" in k for k in busy)

    def test_engine_phase_annotates_sampled_stacks(self):
        profiler = SamplingProfiler(hz=200).start()
        stop = threading.Event()
        thread = busy_thread(stop, phase="engine.sample")
        try:
            time.sleep(0.25)
        finally:
            profiler.stop()
            stop.set()
            thread.join()
        annotated = [
            k for k in profiler.folded() if k.startswith("busy-loop;[engine.sample];")
        ]
        assert annotated, profiler.folded()

    def test_span_is_inert_without_a_session(self):
        from repro.obs import profiler as mod

        assert not profiling_active()
        with span("engine.sample"):
            # No live session: nothing recorded for this thread.
            assert threading.get_ident() not in mod._engine_phases
        assert threading.get_ident() not in mod._engine_phases

    def test_nested_spans_restore_the_outer_phase(self):
        from repro.obs import profiler as mod

        me = threading.get_ident()
        profiler = SamplingProfiler(hz=10).start()
        try:
            with span("engine.execute"):
                with span("engine.sample"):
                    assert mod._engine_phases[me] == "engine.sample"
                assert mod._engine_phases[me] == "engine.execute"
                with pytest.raises(KeyError):
                    with span("engine.select"):
                        raise KeyError("boom")
                assert mod._engine_phases[me] == "engine.execute"
            assert me not in mod._engine_phases
        finally:
            profiler.stop()
        # A span opened before the session marks nothing, and its nested
        # spans leave no stale phase behind.
        with span("release"):
            profiler = SamplingProfiler(hz=10).start()
            try:
                with span("engine.sample"):
                    assert mod._engine_phases[me] == "engine.sample"
            finally:
                profiler.stop()
            assert me not in mod._engine_phases
        assert me not in mod._engine_phases

    def test_merge_and_render_folded(self):
        merged = merge_folded(
            [
                ("router", {"main;f": 2}),
                ("shard0", {"main;f": 3, "main;g": 1}),
                ("shard0", {"main;f": 1}),
            ]
        )
        assert merged == {
            "router;main;f": 2,
            "shard0;main;f": 4,
            "shard0;main;g": 1,
        }
        text = render_folded(merged)
        assert text.endswith("\n")
        assert text.splitlines() == [
            "router;main;f 2",
            "shard0;main;f 4",
            "shard0;main;g 1",
        ]
        assert render_folded({}) == ""

    def test_sessions_disarm_wakes_inflight_and_refuses_new(self):
        sessions = ProfileSessions()
        done = {}

        def run():
            done["payload"] = sessions.run(seconds=30, hz=50)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not profiling_active() and time.monotonic() < deadline:
            time.sleep(0.01)
        t0 = time.monotonic()
        sessions.disarm()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < 5.0  # woke early, not after 30s
        assert done["payload"]["disarmed"] is True
        with pytest.raises(ProfilerDisarmed):
            sessions.run(seconds=1)

    def test_sessions_reject_bad_args_before_registering(self):
        sessions = ProfileSessions()
        with pytest.raises(ValueError, match="seconds"):
            sessions.run(seconds=0)


class TestEventBufferUnit:
    def test_ring_bounds_and_counters(self):
        ring = EventBuffer(capacity=3)
        for i in range(5):
            ring.append({"event": f"e{i}"})
        snap = ring.snapshot()
        assert snap["capacity"] == 3
        assert snap["buffered"] == 3
        assert snap["total"] == 5
        assert snap["dropped"] == 2
        # Oldest-first tail, sequence numbers survive the drop.
        assert [e["event"] for e in snap["events"]] == ["e2", "e3", "e4"]
        assert [e["seq"] for e in snap["events"]] == [3, 4, 5]
        assert [e["event"] for e in ring.tail(2)] == ["e3", "e4"]
        assert ring.tail(0) == []
        with pytest.raises(ValueError):
            EventBuffer(capacity=0)

    def test_handler_captures_events_not_plain_records(self):
        import logging

        handler = install_event_buffer(capacity=8, logger_name="repro.test-ring")
        try:
            logger = logging.getLogger("repro.test-ring.child")
            log_event(logger, "unit_test", dataset="salary", n=3)
            logger.info("a plain record, not an event")
            events = handler.buffer.tail()
        finally:
            uninstall_event_buffer(handler, logger_name="repro.test-ring")
        assert len(events) == 1
        event = events[0]
        assert event["event"] == "unit_test"
        assert event["dataset"] == "salary"
        assert event["n"] == 3
        assert set(("ts", "level", "logger", "seq")) <= set(event)
        # Detached: later events no longer land in the ring.
        log_event(logging.getLogger("repro.test-ring"), "after_uninstall")
        assert handler.buffer.total == 1


class TestServerDebugEndpoints:
    def test_profile_endpoint_attributes_engine_phases(self):
        """The acceptance check, single-server form: a profile taken while
        releases are in flight shows ``[engine.*]`` phase frames."""
        with PCORServer(server_config()) as server:
            stop = threading.Event()

            def hammer():
                client = PCORClient(server.url, tenant="hammer")
                seed = 0
                while not stop.is_set():
                    seed += 1
                    client.release(
                        "salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=seed
                    )

            thread = threading.Thread(target=hammer, daemon=True)
            thread.start()
            try:
                payload = PCORClient(server.url).debug_profile(
                    seconds=0.6, hz=200
                )
            finally:
                stop.set()
                thread.join(timeout=10.0)
            assert payload["supported"] is True
            assert payload["samples"] > 10
            assert any("[engine." in stack for stack in payload["folded"]), (
                sorted(payload["folded"])[:20]
            )

    def test_profile_endpoint_validates_query_params(self):
        with PCORServer(server_config()) as server:
            client = PCORClient(server.url)
            with pytest.raises(SpecError, match="seconds must be"):
                client.debug_profile(seconds=0)
            with pytest.raises(SpecError, match="hz must be"):
                client.debug_profile(seconds=1, hz=10_000)
            # Non-numeric query parameter → typed 400, not a stack trace.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    server.url + "/v1/debug/profile?seconds=soon"
                )
            assert excinfo.value.code == 400

    def test_events_endpoint_shows_request_history(self):
        with PCORServer(server_config()) as server:
            client = PCORClient(server.url, tenant="alice")
            client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1)
            body = client.debug_events()
            assert body["total"] >= 1
            assert body["dropped"] == 0
            requests = [e for e in body["events"] if e["event"] == "request"]
            assert requests, body["events"]
            assert requests[-1]["dataset"] == "salary"
            assert requests[-1]["status"] == "ok"
            # ?n= trims the window (oldest dropped first).
            assert len(client.debug_events(n=1)["events"]) == 1
            with pytest.raises(SpecError, match="n must be"):
                client.debug_events(n=-1)

    def test_events_ring_can_be_disabled_by_config(self):
        with PCORServer(server_config(events_buffer=0)) as server:
            with pytest.raises(ServerError, match="event ring is disabled"):
                PCORClient(server.url).debug_events()

    def test_shutdown_disarms_inflight_profile_session(self):
        """The drain bugfix: a 30-second profile in flight must not stall
        shutdown — the session is disarmed, returns its partial samples,
        and the drain barrier completes promptly."""
        server = PCORServer(server_config()).start()
        done = {}

        def long_profile():
            done["payload"] = PCORClient(server.url).debug_profile(seconds=30)

        thread = threading.Thread(target=long_profile, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not profiling_active() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert profiling_active(), "profile session never started"
        t0 = time.monotonic()
        server.shutdown()
        assert time.monotonic() - t0 < 15.0, "drain stalled on the profiler"
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert done["payload"]["disarmed"] is True

    def test_disarmed_profiler_is_typed_503_with_retry_after(self):
        with PCORServer(server_config()) as server:
            server._profiles.disarm()  # what shutdown does, without dying
            client = PCORClient(server.url, retry_503=0)
            with pytest.raises(ServerError, match="draining"):
                client.debug_profile(seconds=1)
            request = urllib.request.Request(
                server.url + "/v1/debug/profile?seconds=1"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None


def cluster_config(respawn=False) -> ServerConfig:
    return ServerConfig.from_dict(
        {
            "server": {"port": 0},
            "datasets": {
                "salary": {
                    "source": "salary_reduced",
                    "records": RECORDS,
                    "seed": SEED,
                    "budget": 1000.0,
                },
                "other": {"source": "salary_reduced", "records": 200, "seed": 9},
                "third": {"source": "salary_reduced", "records": 150, "seed": 11},
            },
            "cluster": {
                "workers": 2,
                "manager": "thread",
                "heartbeat_interval_s": 0.2,
                "heartbeat_timeout_s": 0.8,
                "respawn": respawn,
            },
        }
    )


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestRouterDebugAggregation:
    def test_fleet_profile_merges_under_source_roots(self):
        from repro.cluster import PCORRouter

        with PCORRouter(cluster_config()) as router:
            client = PCORClient(router.url)
            body = client.debug_profile(seconds=0.4, hz=100)
            assert body["supported"] is True
            assert body["unavailable_shards"] == []
            assert set(body["sources"]) == {"router", "shard0", "shard1"}
            roots = {stack.split(";", 1)[0] for stack in body["folded"]}
            assert {"router", "shard0", "shard1"} <= roots, roots
            # folded_text is the flamegraph.pl input for the whole fleet.
            assert body["folded_text"] == render_folded(
                {k: int(v) for k, v in body["folded"].items()}
            )
            assert body["samples"] == sum(
                s["samples"] for s in body["sources"].values()
            )

    def test_fleet_events_are_stamped_and_sorted(self):
        from repro.cluster import PCORRouter

        with PCORRouter(cluster_config()) as router:
            client = PCORClient(router.url, tenant="alice")
            client.release("salary", record_id=OUTLIER_RECORD, spec=SPEC, seed=1)
            body = client.debug_events(n=50)
            assert body["unavailable_shards"] == []
            assert {"router", "shard0", "shard1"} <= set(body["sources"])
            assert body["events"], body
            assert all("source" in e for e in body["events"])
            stamps = [(e.get("ts") or 0.0, str(e["source"])) for e in body["events"]]
            assert stamps == sorted(stamps)
            assert len(body["events"]) <= 50

    def test_dead_shard_degrades_not_500(self):
        """A shard dying mid-scrape: Prometheus still renders a partial
        exposition, both debug endpoints report the hole in
        ``unavailable_shards``, and nothing 500s."""
        from repro.cluster import PCORRouter
        from repro.obs import validate_exposition

        with PCORRouter(cluster_config(respawn=False)) as router:
            shard = router.fleet.shard_for("salary")
            router.fleet._shards[shard].handle.kill()
            assert wait_for(
                lambda: router.fleet.snapshot()[shard]["status"] == "dead"
            ), "fleet never declared the worker dead"
            live = 1 - shard
            client = PCORClient(router.url, retry_503=0)

            exposition = client.prometheus_metrics()
            assert validate_exposition(exposition) == []
            assert f'shard="{live}"' in exposition
            assert f'shard="{shard}"' not in exposition
            assert "pcor_unavailable_shards 1" in exposition

            profile = client.debug_profile(seconds=0.3, hz=100)
            assert profile["unavailable_shards"] == [shard]
            assert set(profile["sources"]) == {"router", f"shard{live}"}
            roots = {stack.split(";", 1)[0] for stack in profile["folded"]}
            assert "router" in roots and f"shard{live}" in roots
            assert f"shard{shard}" not in roots

            events = client.debug_events()
            assert shard in events["unavailable_shards"]
            assert f"shard{live}" in events["sources"]
            sources_seen = {e["source"] for e in events["events"]}
            assert f"shard{shard}" not in sources_seen


@pytest.fixture(scope="module", params=["server", "router"])
def service(request):
    """A running server, or a thread-manager router over two workers."""
    if request.param == "server":
        with PCORServer(server_config()) as server:
            yield server
    else:
        from repro.cluster import PCORRouter

        with PCORRouter(cluster_config()) as router:
            yield router


class TestEventCountBound:
    @pytest.mark.parametrize("n", ["nan", "inf", "-inf", "-1"])
    def test_bad_n_is_typed_400(self, service, n):
        """``?n=`` must be a finite number >= 0 on both tiers: NaN or an
        infinity used to reach ``int()`` and answer 500."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{service.url}/v1/debug/events?n={n}")
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "SpecError"
        assert "n must be" in error["message"]

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), -1])
    def test_client_sends_n_unconverted(self, service, n):
        """``PCORClient.debug_events`` passes ``n`` to the route as given,
        so a bad value comes back as the route's typed error rather than
        a ``ValueError`` or ``OverflowError`` raised in the client."""
        with pytest.raises(SpecError, match="n must be"):
            PCORClient(service.url).debug_events(n=n)

    def test_zero_and_fractional_n(self, service):
        log_event(logging.getLogger("repro.test-ring"), "unit_test")
        with urllib.request.urlopen(f"{service.url}/v1/debug/events?n=0") as r:
            assert json.loads(r.read())["events"] == []
        with urllib.request.urlopen(f"{service.url}/v1/debug/events?n=1.7") as r:
            assert len(json.loads(r.read())["events"]) == 1


class TestClientDebugHelpers:
    def test_debug_timeout_covers_the_sampling_window(self):
        """debug_profile must not time out at the transport default while
        the worker blocks for the full sampling window."""
        with PCORServer(server_config()) as server:
            client = PCORClient(server.url, timeout=0.5)
            payload = client.debug_profile(seconds=1.2, hz=50)
            assert payload["samples"] >= 10
            # Explicit override still wins.
            with pytest.raises(ServerError, match="cannot reach"):
                client.debug_profile(seconds=5, timeout=0.2)
