"""Self-tests of the load generator against a stub server that stalls.

Run from the repository root: ``python3 -m pytest -q perfbench/test_loadgen.py``.
"""

from __future__ import annotations

import http.server
import random
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
import run  # noqa: E402
from worlds import Query  # noqa: E402

STALL_S = 0.2


class _Stub(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    status = 200

    def do_GET(self):  # noqa: N802 - http.server naming
        time.sleep(STALL_S)
        body = b"{}"
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _serve(handler):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


@pytest.fixture
def stub():
    yield from _serve(_Stub)


@pytest.fixture(params=[500, 503])
def failing_stub(request):
    handler = type("_Failing", (_Stub,), {"status": request.param})
    for address in _serve(handler):
        yield address, request.param


def _queries(n: int) -> list:
    return [Query("node", "GET", "/node/x", None, ("x",)) for _ in range(n)]


def test_latency_counts_from_intended_send_time(stub):
    # Six requests due at once over two connections: they complete in
    # three waves, and each wave's wait for a free connection counts.
    # The upper bound allows each stall some scheduling overshoot.
    phase = loadgen.run_phase(stub, _queries(6), [0.0] * 6, random.Random(1), 0.0, 0.0)
    latencies = sorted(phase.latencies())
    for wave in range(1, 4):
        for latency in latencies[2 * wave - 2: 2 * wave]:
            assert wave * STALL_S <= latency < wave * (STALL_S + 0.1)
    assert phase.failed == 0


def test_backlog_and_lag_are_reported(stub):
    # 20 req/s against two connections that each serve 5 req/s: the
    # backlog climbs through the phase.
    offsets = [i * 0.05 for i in range(20)]
    phase = loadgen.run_phase(stub, _queries(20), offsets, random.Random(1), 20.0, 1.0)
    assert phase.backlog_max >= 10
    assert phase.growing_backlog
    assert 0.0 <= phase.lag_p99_s < loadgen.LAG_BOUND_S
    assert phase.valid


def test_a_spaced_schedule_keeps_no_backlog(stub):
    offsets = [i * 0.3 for i in range(6)]
    phase = loadgen.run_phase(stub, _queries(6), offsets, random.Random(1), 1 / 0.3, 1.8)
    assert phase.backlog_max <= 1
    assert not phase.growing_backlog
    for latency in phase.latencies():
        assert STALL_S <= latency < STALL_S + 0.1


def test_phase_with_generator_lag_is_invalid(stub):
    def late_sleep(seconds: float) -> None:
        time.sleep(seconds + 2 * loadgen.LAG_BOUND_S)

    offsets = [i * 0.3 for i in range(4)]
    phase = loadgen.run_phase(
        stub, _queries(4), offsets, random.Random(1), 1 / 0.3, 1.2, sleep=late_sleep
    )
    assert phase.lag_p99_s > loadgen.LAG_BOUND_S
    assert not phase.valid


def test_failed_requests_make_the_run_incorrect(failing_stub):
    # Every answer fails.  Outside the rate search each failure makes the
    # run incorrect; a rung may only answer 503 (overload), not 500.
    address, status = failing_stub
    phase = loadgen.run_phase(address, _queries(4), [0.0] * 4, random.Random(1), 0.0, 0.0)
    assert phase.failed == 4
    assert all(r.error == f"HTTP {status}" for r in phase.records)
    assert run.hard_failures(phase.records, overload_ok=False) == 4
    assert run.hard_failures(phase.records, overload_ok=True) == (4 if status == 500 else 0)


def test_epoch_window_counts_a_trailing_stall():
    # Ten epochs 0.05 s apart: 20/s.  Probed at the last publication, the
    # window reads 20/s; probed 1 s after it, the stall counts.
    first, last = (0, 100.0, 100.01), (10, 100.5, 100.5)
    assert run.epoch_rate(*run.epoch_window(first, last)) == pytest.approx(20.0)
    stalled = (10, 100.5, 101.5)
    assert run.epoch_rate(*run.epoch_window(first, stalled)) == pytest.approx(10 / 1.45)
    # No publication in the window at all reads zero.
    assert run.epoch_rate(*run.epoch_window(last, stalled)) == 0.0


def test_a_phase_offers_a_fixed_count_and_mix():
    # Poisson arrival times given their mean count, and each pool's share
    # of the requests by largest remainder: only timing and order vary.
    import worlds

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    for seed in (1, 2):
        offsets = loadgen.poisson_offsets(random.Random(seed), 9.0, 7.5)
        assert len(offsets) == 68
        assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] < 7.5
        spec = worlds.world_spec("tree64-churn", seed)
        kinds = [q.kind for q in worlds.Mix("tree64-churn", seed, spec).deal(68)]
        assert (kinds.count("flow_info"), kinds.count("graph"), kinds.count("node")) == (54, 7, 7)
