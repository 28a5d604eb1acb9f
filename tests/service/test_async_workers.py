"""The asyncio front end and the multi-process epoch handoff.

The asyncio server must honour the exact observability contract the
threaded server established (both delegate to
:func:`repro.service.app.handle_request`): traceparent echo on every
response including errors, keep-alive connection reuse, structured
status codes.  The worker tests pin the handoff protocol: a
:class:`WorkerReplica` fed pickled frozen views over a pipe republishes
them locally (epoch advances, queries answer), always jumping to the
latest pending view, and an end-to-end pre-forked server serves real
HTTP from every worker while only the parent sweeps.
"""

import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro import obs
from repro.core import Flow
from repro.service import MultiProcessServer, RemosService, aio, serve_aio
from repro.service.workers import WorkerReplica
from repro.testbed import build_cmu_testbed


@pytest.fixture(scope="module")
def live():
    obs.configure_observability(metrics=True, tracing=True, logging=False)
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(
        world, sweep_interval=0.05, slow_query_threshold=0.0
    )
    service.start(warmup=5.0)
    server = serve_aio(service, port=0)
    base = f"http://{server.address[0]}:{server.address[1]}"
    yield service, server, base
    server.stop()
    service.stop()


def fetch(url: str, data: bytes | None = None, headers: dict | None = None):
    request = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def strict_json(body: bytes):
    """Parse as a strict JSON parser would: bare NaN/Infinity are errors."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(body, parse_constant=refuse)


class TestAsyncFrontEnd:
    def test_healthz_and_traceparent_echo(self, live):
        _, _, base = live
        sent = "00-12345678123456781234567812345678-1234567812345678-01"
        status, body, headers = fetch(base + "/healthz", headers={"traceparent": sent})
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        echoed = {k.lower(): v for k, v in headers.items()}["traceparent"]
        assert echoed.split("-")[1] == sent.split("-")[1]  # same trace
        assert echoed != sent  # new span id

    def test_errors_carry_traceparent(self, live):
        _, _, base = live
        status, body, headers = fetch(base + "/graph")  # no nodes -> 400
        assert status == 400
        assert "error" in json.loads(body)
        assert "traceparent" in {k.lower() for k in headers}
        status, _, headers = fetch(base + "/definitely-not-a-path")
        assert status == 404
        assert "traceparent" in {k.lower() for k in headers}

    def test_flow_info_post(self, live):
        _, _, base = live
        payload = json.dumps(
            {"variable": [{"src": "m-1", "dst": "m-4"}]}
        ).encode()
        status, body, _ = fetch(
            base + "/flow_info", data=payload,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        result = strict_json(body)
        assert result["variable"]
        assert all("bandwidth" in answer for answer in result["variable"])

    def test_loopback_flow_answers_400(self, live):
        _, _, base = live
        payload = json.dumps(
            {"variable": [{"src": "m-1", "dst": "m-1"}]}
        ).encode()
        status, body, _ = fetch(
            base + "/flow_info", data=payload,
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        error = strict_json(body)["error"]
        assert error.startswith("QueryError:")
        assert "loopback" in error

    def test_keep_alive_reuses_connection(self, live):
        _, server, _ = live
        conn = HTTPConnection(server.address[0], server.address[1], timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.headers.get("Connection") == "keep-alive"
        finally:
            conn.close()

    def test_connection_close_honoured(self, live):
        _, server, _ = live
        conn = HTTPConnection(server.address[0], server.address[1], timeout=10)
        try:
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.headers.get("Connection") == "close"
        finally:
            conn.close()

    def test_malformed_request_line_answers_400(self, live):
        import socket as socketlib

        _, server, _ = live
        with socketlib.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_metrics_exposes_vectorized_gauge(self, live):
        _, _, base = live
        status, body, _ = fetch(base + "/metrics")
        assert status == 200
        assert b"remos_vectorized_solves_total" in body
        assert b"remos_vectorized " not in body  # the old on/off gauge
        assert b"remos_scalar_solves_total" not in body
        assert b"remos_snapshot_epoch" in body

    @pytest.mark.parametrize(
        "target, body",
        [
            # Non-finite numbers, as strings and as bare JSON tokens.
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4", "cap": "nan"}]}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4", "cap": NaN}]}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4", "requested": "nan"}]}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4", "requested": "inf"}]}'),
            ("/flow_info", '{"fixed": [{"src": "m-1", "dst": "m-4", "requested": Infinity}]}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4"}],'
                           ' "timeframe": {"kind": "history", "window": "nan"}}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4"}],'
                           ' "timeframe": {"kind": "history", "window": "inf"}}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4"}],'
                           ' "timeframe": {"kind": "future", "horizon": "nan"}}'),
            ("/node/m-1?timeframe=history&window=nan", None),
            ("/graph?nodes=m-1,m-4&timeframe=future&horizon=inf", None),
            # Valid JSON of the wrong shape.
            ("/flow_info", "[1, 2]"),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4"}], "timeframe": "history"}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4", "requested": [1]}]}'),
            ("/flow_info", '{"variable": [{"src": ["x"], "dst": "m-4"}]}'),
            ("/flow_info", '{"variable": 5}'),
            ("/flow_info", '{"variable": [{"src": "m-1", "dst": "m-4"}],'
                           ' "timeframe": {"kind": "future", "horizon": 5, "predictor": [1]}}'),
            ("/debug/profile?seconds=1&interval=0", None),
            ("/debug/profile?seconds=1&interval=nan", None),
        ],
    )
    def test_malformed_or_non_finite_query_answers_400(self, live, target, body):
        _, _, base = live
        status, reply, _ = fetch(
            base + target, data=None if body is None else body.encode()
        )
        assert status == 400, reply
        assert isinstance(strict_json(reply)["error"], str)

    def test_infinite_cap_is_no_cap(self, live):
        _, _, base = live
        status, reply, _ = fetch(
            base + "/flow_info",
            data=b'{"variable": [{"src": "m-1", "dst": "m-4", "cap": "inf"}]}',
        )
        assert status == 200
        assert strict_json(reply)["variable"]

    def test_slow_queries_recorded(self, live):
        service, _, base = live
        payload = json.dumps(
            {"variable": [{"src": "m-2", "dst": "m-6"}]}
        ).encode()
        fetch(base + "/flow_info", data=payload,
              headers={"Content-Type": "application/json"})
        status, body, _ = fetch(base + "/debug/slow")
        assert status == 200
        records = json.loads(body)["records"]
        assert any(r["endpoint"] == "flow_info" for r in records)


class TestWorkerHandoff:
    def test_replica_republishes_piped_epochs(self):
        """The handoff protocol in-process: pipe -> install -> publish."""
        obs.configure_observability(metrics=True, tracing=False, logging=False)
        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(world, sweep_interval=0.05)
        service.prepare(warmup=5.0)
        parent_conn, child_conn = multiprocessing.Pipe()
        replica = WorkerReplica(child_conn, workers=2)
        try:
            first = service.remos.publisher.current()
            parent_conn.send(first.view)  # pickled through the pipe
            replica.start()
            assert replica.running
            assert replica.snapshot().epoch == 1
            answer = replica.flow_info(
                variable_flows=[Flow(src="m-1", dst="m-4")]
            )
            assert answer.answers

            # Publish two more epochs in the parent; the replica must end
            # up on the latest (it drains the pipe, skipping stale views).
            for _ in range(2):
                service._env.run(until=service._env.now + 1.0)
                service.remos.publish()
                parent_conn.send(service.remos.publisher.current().view)
            target = service.remos.publisher.current().generation
            deadline = time.time() + 5.0
            while (
                replica.snapshot().generation != target
                and time.time() < deadline
            ):
                time.sleep(0.05)
            assert replica.snapshot().generation == target
            assert replica.sweep_errors == 0

            # The sentinel shuts the listener down.
            parent_conn.send(None)
            assert replica.closed.wait(timeout=5.0)
        finally:
            replica.stop()
            parent_conn.close()
            service.stop()

    def test_preforked_server_end_to_end(self):
        """Two forked workers on one socket, parent sweeping, real HTTP."""
        obs.configure_observability(metrics=True, tracing=True, logging=False)
        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(
            world, sweep_interval=0.05, slow_query_threshold=0.0
        )
        server = MultiProcessServer(service, port=0, workers=2, warmup=5.0)
        server.start()
        try:
            assert len(server.pids) == 2
            base = f"http://{server.address[0]}:{server.address[1]}"
            status, body, headers = fetch(base + "/healthz")
            assert status == 200
            first_epoch = json.loads(body)["epoch"]
            assert first_epoch >= 1
            assert "traceparent" in {k.lower() for k in headers}

            payload = json.dumps(
                {"variable": [{"src": "m-1", "dst": "m-4"}]}
            ).encode()
            status, body, _ = fetch(
                base + "/flow_info", data=payload,
                headers={"Content-Type": "application/json"},
            )
            assert status == 200
            assert json.loads(body)["variable"]

            # The parent sweeper publishes ~20/s and broadcasts at 4/s;
            # worker epochs must advance.
            deadline = time.time() + 10.0
            advanced = False
            while time.time() < deadline and not advanced:
                time.sleep(0.3)
                _, body, _ = fetch(base + "/healthz")
                advanced = json.loads(body)["epoch"] > first_epoch
            assert advanced, "workers never received a newer epoch"
        finally:
            server.stop()
        assert not server.pids


class TestQueryPool:
    """The door answers on the service's own pool, sized by ``workers``."""

    def test_door_answers_on_the_query_pool(self, monkeypatch):
        obs.configure_observability(metrics=True, tracing=False, logging=False)
        service = RemosService.from_world(
            build_cmu_testbed(poll_interval=0.5), sweep_interval=0.05, workers=1
        )
        service.start(warmup=2.0)
        lock = threading.Lock()
        threads: list[str] = []
        running = [0, 0]  # (now, peak)
        handle = aio.handle_request

        def observed(svc, request):
            with lock:
                threads.append(threading.current_thread().name)
                running[0] += 1
                running[1] = max(running)
            time.sleep(0.05)  # long enough for the other requests to queue
            try:
                return handle(svc, request)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(aio, "handle_request", observed)
        server = serve_aio(service, port=0)
        base = f"http://{server.address[0]}:{server.address[1]}"
        try:
            statuses = []
            clients = [
                threading.Thread(target=lambda: statuses.append(fetch(base + "/healthz")[0]))
                for _ in range(4)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
                assert not client.is_alive()
            assert statuses == [200] * 4
            assert len(threads) == 4
            assert all(name.startswith("remos-query") for name in threads), threads
            assert running[1] == 1

            # After stop() the pool is gone: the door answers 503 itself.
            service.stop()
            status, reply, _ = fetch(
                base + "/flow_info", data=b'{"variable": [{"src": "m-1", "dst": "m-4"}]}'
            )
            assert status == 503
            assert "stopped" in strict_json(reply)["error"]
            assert len(threads) == 4
        finally:
            server.stop()
            service.stop()
