"""FederationService end to end: queries, forensics, gauges, HTTP.

One live federation service + HTTP server per module (warm-up is the
expensive part); doubles as the CI federation smoke — intra- and
cross-shard ``flow_info`` through the whole stack, traceparent echo, and
the per-shard epoch gauges a fleet dashboard scrapes.
"""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import Flow
from repro.federation import FederationService, FederationWorld
from repro.obs.promparse import parse as prom_parse
from repro.service import serve_aio

TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"


@pytest.fixture(scope="module")
def live():
    """(base_url, service) over a warm 2-shard federation."""
    obs.reset_observability()
    obs.configure_observability(
        metrics=True, tracing=True, logging=True,
        log_stream=io.StringIO(), log_timestamps=False,
    )
    world = FederationWorld.build(
        poll_interval=0.5, shards=2, leaves=2, spines=2, hosts_per_leaf=2
    )
    service = FederationService(
        world,
        sweep_interval=0.01,
        sim_step=0.5,
        slow_query_threshold=0.0,  # record every query: shard tags under test
    )
    service.start(warmup=4.0)
    server = serve_aio(service, port=0)
    try:
        yield f"http://127.0.0.1:{server.address[1]}", service
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


class TestQueriesThroughTheService:
    def test_intra_shard_flow_info(self, live):
        _, service = live
        result = service.flow_info(
            variable_flows=[Flow("s0-leaf0-h0", "s0-leaf1-h1")]
        )
        assert result.variable[0].bandwidth.median > 0

    def test_cross_shard_flow_info(self, live):
        _, service = live
        result = service.flow_info(
            variable_flows=[Flow("s0-leaf0-h0", "s1-leaf1-h1")]
        )
        answer = result.variable[0]
        assert answer.bandwidth.median > 0
        assert answer.hop_count >= 5  # host-leaf-spine-gw + wan + gw-spine-leaf-host

    def test_sweeper_advances_federation_epochs(self, live):
        import time

        _, service = live
        before = service.remos.publisher.epoch
        time.sleep(0.5)
        assert service.remos.publisher.epoch > before

    def test_health_is_ok(self, live):
        _, service = live
        health = service.health()
        assert health["status"] == "ok"
        assert health["epoch"] >= 1


class TestSlowLogShards:
    def test_records_carry_the_owning_shard(self, live):
        _, service = live
        service.flow_info(variable_flows=[Flow("s1-leaf0-h0", "s1-leaf1-h0")])
        shards = {r["shard"] for r in service.slowlog.records()}
        assert "s1" in shards

    def test_cross_shard_records_say_cross(self, live):
        _, service = live
        service.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s1-leaf0-h0")])
        shards = {r["shard"] for r in service.slowlog.records()}
        assert "cross" in shards


class TestHttpFrontEnd:
    def test_traceparent_echo_on_cross_shard_query(self, live):
        base, _ = live
        status, headers, body = _post(
            base + "/flow_info",
            {"variable": [{"src": "s0-leaf0-h0", "dst": "s1-leaf1-h0"}]},
            {"traceparent": TRACEPARENT},
        )
        assert status == 200
        echoed = headers["traceparent"]
        assert echoed.split("-")[1] == TRACE_ID
        assert echoed != TRACEPARENT  # child hop: same trace, new span id
        doc = json.loads(body)
        assert doc["variable"][0]["bandwidth"]["median"] > 0

    def test_healthz_over_http(self, live):
        base, _ = live
        status, _, body = _get(base + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_graph_endpoint_spans_shards(self, live):
        base, _ = live
        status, _, body = _get(base + "/graph?nodes=s0-leaf0-h0,s1-leaf0-h0")
        assert status == 200
        doc = json.loads(body)
        assert doc["collapse"] == "federated"
        edge_names = {e["name"] for e in doc["edges"]}
        assert any(name.startswith("fed:") for name in edge_names)


class TestFederationGauges:
    def test_per_shard_epoch_and_staleness_gauges(self, live):
        base, service = live
        families = prom_parse(_get(base + "/metrics")[2])
        for shard in ("s0", "s1"):
            epoch = families["remos_shard_epoch"].value({"shard": shard})
            assert epoch is not None and epoch >= 1
            staleness = families["remos_shard_staleness_seconds"].value(
                {"shard": shard}
            )
            assert staleness is not None and staleness >= 0
        assert families["remos_federation_shards"].value() == 2
        assert families["remos_federation_epoch"].value() >= 1

    def test_merge_counter_present(self, live):
        base, _ = live
        families = prom_parse(_get(base + "/metrics")[2])
        merges = families["remos_federation_merges_total"].value(
            {"aggregator": "federation"}
        )
        assert merges is not None and merges >= 1


class TestTelemetry:
    def test_federation_section(self, live):
        _, service = live
        telemetry = service.telemetry()
        federation = telemetry["federation"]
        assert federation["shards"] == 2
        assert federation["epoch"] >= 1
        assert telemetry["collector"]["type"] == "federation"
        assert set(telemetry["collector"]["cells"]) == {"s0", "s1"}
        assert "slo" in telemetry and "slowlog" in telemetry

    def test_snapshot_section_is_the_summary(self, live):
        _, service = live
        snapshot = service.telemetry()["snapshot"]
        assert set(snapshot["shards"]) == {"s0", "s1"}
        assert snapshot["edges"][0]["members"] == ["wan:s0|s1"]
