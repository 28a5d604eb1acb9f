"""End-to-end request-scoped observability over the HTTP front end.

One live service + server per module (they take seconds to warm up);
every test talks real HTTP.  The trace-propagation, slow-query-forensics
and health-flip acceptance criteria from docs/OBSERVABILITY.md are
asserted here against the wire format, not internals.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import Flow
from repro.obs.promparse import parse as prom_parse
from repro.service import RemosService, serve_aio
from repro.testbed import build_cmu_testbed

TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"


@pytest.fixture(scope="module")
def live():
    """(base_url, service, log_stream) against a warm, traced service."""
    obs.reset_observability()
    stream = io.StringIO()
    obs.configure_observability(
        metrics=True, tracing=True, logging=True,
        log_stream=stream, log_timestamps=False,
    )
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(
        world,
        sweep_interval=0.01,
        sim_step=0.5,
        slow_query_threshold=0.0,  # record every query: forensics under test
    )
    service.start(warmup=5.0)
    server = serve_aio(service, port=0)
    try:
        yield f"http://127.0.0.1:{server.address[1]}", service, stream
    finally:
        server.stop()
        service.stop()
        obs.reset_observability()


def _get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def _post(url: str, payload: dict, headers: dict | None = None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


class TestTracePropagation:
    def test_incoming_traceparent_is_echoed_with_new_span_id(self, live):
        base, _, _ = live
        status, headers, _ = _get(base + "/healthz", {"traceparent": TRACEPARENT})
        assert status == 200
        echoed = headers["traceparent"]
        assert echoed.split("-")[1] == TRACE_ID
        assert echoed != TRACEPARENT  # child hop: same trace, new span id

    def test_absent_traceparent_generates_one(self, live):
        base, _, _ = live
        _, headers, _ = _get(base + "/healthz")
        parts = headers["traceparent"].split("-")
        assert len(parts) == 4 and len(parts[1]) == 32 and parts[1] != "0" * 32

    def test_malformed_traceparent_falls_back_to_generated(self, live):
        base, _, _ = live
        _, headers, _ = _get(base + "/healthz", {"traceparent": "garbage"})
        assert headers["traceparent"].split("-")[1] != TRACE_ID

    def test_error_responses_also_carry_traceparent(self, live):
        base, _, _ = live
        status, headers, _ = _get(base + "/graph", {"traceparent": TRACEPARENT})
        assert status == 400  # missing ?nodes=
        assert headers["traceparent"].split("-")[1] == TRACE_ID

    def test_flow_info_slow_record_carries_the_request_trace_id(self, live):
        base, service, _ = live
        marker = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"
        status, _, _ = _post(
            base + "/flow_info",
            {"variable": [{"src": "m-1", "dst": "m-4"}]},
            {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"},
        )
        assert status == 200
        records = [
            r for r in service.slowlog.records() if r["trace_id"] == marker
        ]
        assert records, "slow record should carry the incoming trace id"

    def test_access_log_lines_carry_trace_ids(self, live):
        base, _, stream = live
        marker = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbc"
        _get(base + "/healthz", {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"})
        access_lines = [
            line for line in stream.getvalue().splitlines()
            if "http.access" in line and marker in line
        ]
        assert access_lines
        assert "status=200" in access_lines[0]


class TestSlowQueryForensics:
    def test_record_reconstructs_the_request_from_the_log_alone(self, live):
        base, service, _ = live
        payload = {
            "variable": [{"src": "m-2", "dst": "m-6", "name": "forensic"}],
            "timeframe": {"kind": "current"},
        }
        status, _, _ = _post(base + "/flow_info", payload)
        assert status == 200
        status, _, body = _get(base + "/debug/slow?limit=50")
        assert status == 200
        doc = json.loads(body)
        assert doc["recorded"] >= 1
        record = next(
            r for r in doc["records"]
            if r["endpoint"] == "flow_info" and "forensic" in json.dumps(r["args"])
        )
        # identity + data provenance + profile + trace, all in one record
        assert record["trace_id"] and record["duration"] >= 0
        assert record["epoch"] is not None and record["generation"] is not None
        assert record["cache_hits"] is not None
        args = record["args"]
        assert args["variable"][0]["src"] == "m-2"
        assert args["timeframe"].startswith("current")
        tree = record["span_tree"]
        assert tree["name"] == "service.flow_info"
        assert any(
            child["name"] == "service.flow_info_batch" for child in tree["children"]
        )

    def test_graph_queries_are_recorded_too(self, live):
        base, service, _ = live
        status, _, _ = _get(base + "/graph?nodes=m-1,m-4")
        assert status == 200
        assert any(r["endpoint"] == "graph" for r in service.slowlog.records())

    def test_limit_parameter(self, live):
        base, _, _ = live
        for _ in range(3):
            _get(base + "/graph?nodes=m-1,m-4")
        doc = json.loads(_get(base + "/debug/slow?limit=2")[2])
        assert len(doc["records"]) <= 2


class TestCoalescingSpanLinks:
    def test_followers_link_to_the_leaders_batch_span(self, live):
        base, service, _ = live
        # Coalescing needs genuine overlap; with warm caches a query can
        # finish before the next thread enqueues, so retry the volley
        # until at least one request actually followed a leader.
        linked = []
        for attempt in range(10):
            barrier = threading.Barrier(8)
            results = []

            def query(i):
                barrier.wait()
                marker = f"{i:032x}"
                status, _, _ = _post(
                    base + "/flow_info",
                    {"variable": [{"src": "m-1", "dst": "m-8"}]},
                    {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"},
                )
                results.append(status)

            threads = [
                threading.Thread(target=query, args=(0xC0FFEE00 + attempt * 8 + i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == [200] * 8
            linked = [
                record
                for record in service.slowlog.records()
                if record["span_tree"] is not None
                and record["span_tree"].get("links")
            ]
            if linked:
                break
        assert linked, "expected at least one follower with a span link"
        link = linked[0]["span_tree"]["links"][0]
        assert link["attributes"]["role"] == "coalescing_leader"
        # the link crosses traces: it points at a different trace id
        assert link["trace_id"] != linked[0]["trace_id"]


class TestHealthAndSLO:
    def test_healthz_ok_while_fresh(self, live):
        base, _, _ = live
        status, _, body = _get(base + "/healthz")
        doc = json.loads(body)
        assert status == 200 and doc["status"] == "ok" and doc["reasons"] == []
        assert doc["epoch"] >= 1

    def test_debug_slo_reports_budgets_and_monitors(self, live):
        base, _, _ = live
        _get(base + "/healthz")
        doc = json.loads(_get(base + "/debug/slo")[2])
        assert doc["healthy"] is True
        assert "flow_info" in doc["latency"]
        monitor_names = {m["monitor"] for m in doc["monitors"]}
        assert {"epoch_age", "sweep_duration"} <= monitor_names

    def test_metrics_expose_http_latency_and_parse_strictly(self, live):
        base, _, _ = live
        _get(base + "/healthz")
        families = prom_parse(_get(base + "/metrics")[2])
        assert "remos_http_request_seconds" in families
        assert "remos_slo_error_budget_remaining" in families
        assert families["remos_snapshot_epoch"].value() >= 1


class TestProfileEndpoint:
    def test_profile_returns_collapsed_stacks(self, live):
        base, _, _ = live
        status, headers, body = _get(base + "/debug/profile?seconds=0.3")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body  # the sweeper thread alone guarantees stacks
        stack, _, count = body.splitlines()[0].rpartition(" ")
        assert ";" in stack and count.isdigit()

    def test_profile_bounds_are_enforced(self, live):
        base, _, _ = live
        assert _get(base + "/debug/profile?seconds=0")[0] == 400
        assert _get(base + "/debug/profile?seconds=1e9")[0] == 400


class TestServiceDirect:
    def test_service_health_dict_shape(self, live):
        _, service, _ = live
        health = service.health()
        assert set(health) >= {"status", "healthy", "reasons", "epoch"}

    def test_telemetry_includes_slo_and_slowlog_sections(self, live):
        _, service, _ = live
        service.flow_info(variable_flows=[Flow(src="m-1", dst="m-4")])
        telemetry = service.telemetry()
        assert "slo" in telemetry and "slowlog" in telemetry
        assert "records" not in telemetry["slowlog"]  # summary only
        assert telemetry["service"]["last_sweep_seconds"] is not None


class TestHealthFlip:
    """Last in the module: spins up its own deliberately-stale service.

    Its SLO monitors register callback gauges under the same names as the
    module fixture's, so it must not run before the tests that read them.
    """

    def test_healthz_flips_503_with_machine_readable_reason_when_stale(self, live):
        # A dedicated service whose freshness bound is tighter than its
        # sweep cadence: the epoch is *always* too old.
        import time

        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(
            world,
            sweep_interval=5.0,
            sim_step=0.5,
            max_epoch_age=0.001,
        )
        service.start(warmup=2.0)
        server = serve_aio(service, port=0)
        try:
            time.sleep(0.1)  # let the first epoch age past the 1ms bound
            base = f"http://127.0.0.1:{server.address[1]}"
            status, headers, body = _get(base + "/healthz")
            assert status == 503
            doc = json.loads(body)
            assert doc["status"] == "degraded"
            reasons = doc["reasons"]
            assert reasons and reasons[0]["reason"] == "epoch_stale"
            assert reasons[0]["reading"] > reasons[0]["maximum"]
            assert "traceparent" in headers  # tracing works even when degraded
        finally:
            server.stop()
            service.stop()
