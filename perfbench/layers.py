"""Per-layer spans for the traced run, recorded from outside ``src/``.

:func:`install` wraps each layer's public entry points (class attributes
and module functions the callers look up at call time) before the world
is built.  Spans are kept in memory -- name, start, end, thread, parent
span and the trace id of the request being served -- and written as JSON
when the server stops.  :func:`attribute` turns the span file plus the
generator's records into the per-layer table.

Trace ids come from the request's W3C ``traceparent``: the wrapper around
``handle_request`` binds it to the executor thread, and every span opened
on that thread inherits it.  On the event loop, ``service.aio.dispatch``
runs from a request parsed to its answer written, so the door's own
share (executor hand-off, loop wake-up, write) is a measured span too.  A coalesced batch runs on its leader's
thread, so it is attributed to the leader's trace; a follower's
``service.core.flow_info`` self time is its coalescing wait.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

#: Thread names of the services' single writers.
SWEEPERS = ("remos-sweeper", "remos-fed-sweeper")


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn, name: str, note=None, delta: tuple[str, ...] = ()):
        """A span around every call of *fn*.

        The span's extra field holds ``note(args, kwargs)`` or, with
        *delta*, how much each named counter grew during the call (these
        counters are bumped only by the thread making the call).
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            before = [counts[c] for c in delta]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if delta:
                    extra = [counts[c] - b for c, b in zip(delta, before)]
                else:
                    extra = note(args, kwargs) if note else None
                spans.append(
                    (span_id, name, start, end, threading.current_thread().name,
                     parent, getattr(local, "trace", None), extra)
                )

        return wrapper

    def wrap_request(self, fn):
        """``handle_request``: bind the request's trace id to the thread."""
        inner = self.wrap(fn, "service.app.handle_request")
        local = self._local

        @functools.wraps(fn)
        def wrapper(service, request, *args, **kwargs):
            local.trace = _trace_id(request.header("traceparent"))
            try:
                return inner(service, request, *args, **kwargs)
            finally:
                local.trace = None

        return wrapper

    def wrap_door(self, door) -> None:
        """Time *door* (the asyncio server class) from parse to write."""
        read, write = door._read_request, door._write_response
        parsed: dict[str, float] = {}

        async def read_request(reader, client):
            request = await read(reader, client)
            trace = request and _trace_id(request.header("traceparent"))
            if trace:
                parsed[trace] = time.perf_counter()
            return request

        async def write_response(writer, response, close):
            await write(writer, response, close)
            trace = _trace_id(response.traceparent)
            start = parsed.pop(trace, None)
            if start is not None:
                self.spans.append(
                    (next(self._ids), "service.aio.dispatch", start, time.perf_counter(),
                     threading.current_thread().name, 0, trace, None)
                )

        door._read_request = staticmethod(read_request)
        door._write_response = staticmethod(write_response)

    def wrap_process(self, fn, name: str):
        """A simulation-process generator: span from first step to return."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = yield from fn(*args, **kwargs)
            spans.append(
                (next(ids), name, start, time.perf_counter(),
                 threading.current_thread().name, 0, None, None)
            )
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def _trace_id(traceparent: str | None) -> str | None:
    parts = (traceparent or "").split("-")
    return parts[1] if len(parts) == 4 else None


def install() -> Recorder:
    """Wrap every measured layer; call before the world is built."""
    from repro.collector import cell, metrics, snmp_collector
    from repro.core import api, evaluator, modeler, snaparrays, snapshot
    from repro.fairshare import maxmin, vectorized
    from repro.federation import aggregator
    from repro.federation import api as fed_api
    from repro.net import routing
    from repro.service import aio, core
    from repro.sim import engine
    from repro.stats import quartiles, series

    rec = Recorder()

    def method(owner, attr, name, **how):
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, **how))

    aio.handle_request = rec.wrap_request(aio.handle_request)
    rec.wrap_door(aio.AsyncHTTPServer)
    front = core.QueryFrontEnd
    method(front, "flow_info", "service.core.flow_info")
    method(front, "get_graph", "service.core.get_graph")
    method(front, "node_info", "service.core.node_info")
    method(api.Remos, "flow_info_batch", "core.api.flow_info_batch")
    method(api.Remos, "get_graph", "core.api.get_graph")
    method(api.Remos, "node_info", "core.api.node_info")
    method(fed_api.FederatedRemos, "flow_info_batch", "federation.api.flow_info_batch")
    method(fed_api.FederatedRemos, "_evaluate_cross", "federation.api.evaluate_cross")
    method(fed_api.FederatedRemos, "get_graph", "federation.api.get_graph")
    method(fed_api.FederatedRemos, "node_info", "federation.api.node_info")
    # The public available_bandwidth delegates here, as do the internal
    # callers on the query path.
    method(modeler.Modeler, "_available_bandwidth", "core.modeler.available_bandwidth")
    method(modeler.Modeler, "available_capacities", "core.modeler.available_capacities")
    method(modeler.Modeler, "logical_graph", "core.modeler.logical_graph")
    snaparrays.evaluate_flow_query = rec.wrap(
        snaparrays.evaluate_flow_query, "core.snaparrays.evaluate"
    )
    method(evaluator.TimeframeEvaluator, "evaluate", "core.evaluator.evaluate")
    from_samples = quartiles.StatMeasure.__dict__["from_samples"].__func__
    quartiles.StatMeasure.from_samples = classmethod(
        rec.wrap(from_samples, "stats.quartiles.from_samples")
    )
    method(maxmin.MaxMinProblem, "solve", "fairshare.solve",
           note=lambda args, kwargs: len(args[0].demands))
    vectorized.solve_arrays = rec.wrap(vectorized.solve_arrays, "fairshare.solve_arrays")
    method(routing.RoutingTable, "route", "net.routing.route")
    method(routing.RoutingTable, "routes_between", "net.routing.routes_between")
    method(routing.RoutingTable, "multicast_tree", "net.routing.multicast_tree")
    # Extra: samples recorded during the run (SNMP polls run inside it).
    method(engine.Engine, "run", "sim.engine.run", delta=("collector.metrics.records",))
    method(cell.Cell, "refresh", "collector.cell.refresh")
    method(aggregator.Aggregator, "refresh", "federation.aggregator.refresh")

    publish = snapshot.SnapshotPublisher.refresh

    @functools.wraps(publish)
    def refresh(self, *args, **kwargs):
        before = self._current
        result = publish(self, *args, **kwargs)
        if result is not before:
            rec.count("core.snapshot.publishes")
        return result

    snapshot.SnapshotPublisher.refresh = rec.wrap(
        refresh, "core.snapshot.refresh", delta=("core.snapshot.publishes",)
    )
    method(metrics.MetricsStore, "frozen_clone", "collector.metrics.frozen_clone",
           delta=("collector.metrics.series_cloned", "collector.metrics.values_copied"))
    clone = series.TimeSeries.frozen_clone

    def counted_clone(self):
        rec.count("collector.metrics.series_cloned")
        rec.count("collector.metrics.values_copied", len(self))
        return clone(self)

    series.TimeSeries.frozen_clone = counted_clone
    record = metrics.MetricsStore.record

    def counted_record(self, *args, **kwargs):
        rec.count("collector.metrics.records")
        return record(self, *args, **kwargs)

    metrics.MetricsStore.record = counted_record
    snmp_collector.discover = rec.wrap_process(snmp_collector.discover, "collector.discovery")
    return rec


# -- analysis (generator side) ---------------------------------------------------


def _mean_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.fmean(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def attribute(trace: dict, phase) -> dict:
    """Per-layer metrics and the per-request self-time table of *phase*.

    Writer-side spans count when they fall inside the phase on the shared
    monotonic clock; set-up spans are read from the whole trace.  A
    request's self times add up to its ``service.aio.dispatch`` span
    (the door's own part is that span minus ``handle_request``), so the
    unattributed remainder -- client latency minus generator wait and
    that span -- is what no span covers: the client's send and read, the
    sockets, and the door reading and parsing the request.
    """
    lo, hi = phase.started, phase.ended
    spans = [s for s in trace["spans"] if lo <= s[2] and s[3] <= hi]
    names = {s[0]: s[1] for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5]:
            covered[span[5]] += span[3] - span[2]
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def durations(*wanted, where=lambda s: True) -> list[float]:
        return [s[3] - s[2] for n in wanted for s in by_name.get(n, ()) if where(s)]

    def calls(*wanted) -> int:
        return sum(len(by_name.get(n, ())) for n in wanted)

    ok = [r for r in phase.records if r.error is None]
    traces = {r.trace_id for r in ok}
    requests = len(ok) or 1

    # Reader side: self time along each measured request's blocking path.
    # handle_request runs on an executor thread, so the door's span on the
    # loop thread is not its parent by the thread stack: subtract it here.
    handled = {
        s[6]: s[3] - s[2] for s in by_name.get("service.app.handle_request", ()) if s[6] in traces
    }
    table: dict[str, float] = defaultdict(float)
    coalesce = []
    for span in spans:
        if span[6] not in traces:
            continue
        own = span[3] - span[2] - covered.get(span[0], 0.0)
        if span[1] == "service.aio.dispatch":
            own -= handled.get(span[6], 0.0)
        table[span[1]] += own
        if span[1] == "service.core.flow_info":
            coalesce.append(own)
    queue = [(r.done - r.sent) - handled[r.trace_id] for r in ok if r.trace_id in handled]
    per_request = {name: 1e3 * total / requests for name, total in sorted(table.items())}
    per_request["loadgen.wait"] = _mean_ms(r.sent - r.due for r in ok)
    unattributed = _mean_ms(r.latency for r in ok) - sum(per_request.values())

    # Writer side: one sweeper iteration is an Engine.run plus the
    # refreshes that follow it on the sweeper thread.
    iterations = []
    for span in sorted(
        (s for s in spans if s[4] in SWEEPERS and s[5] == 0), key=lambda s: s[2]
    ):
        if span[1] == "sim.engine.run":
            iterations.append([span[3] - span[2], 0.0, span[7][0]])
        elif iterations:
            iterations[-1][1] += span[3] - span[2]
    sweep_ms = [1e3 * (run + refresh) for run, refresh, _ in iterations]
    sweeps = len(iterations) or 1
    published = [
        s for s in by_name.get("core.snapshot.refresh", ()) if s[4] in SWEEPERS and s[7][0]
    ]
    clones = by_name.get("collector.metrics.frozen_clone", ())
    solves = by_name.get("fairshare.solve", ())
    main_runs = [s for s in trace["spans"] if s[1] == "sim.engine.run" and s[4] == "MainThread"]
    discovery = [s for s in trace["spans"] if s[1] == "collector.discovery"]
    wall = hi - lo
    metrics = {
        "service.aio.queue_ms_p50": 1e3 * _quantile(queue, 0.5),
        "service.aio.queue_ms_p99": 1e3 * _quantile(queue, 0.99),
        "service.app.self_ms": per_request.get("service.app.handle_request", 0.0),
        "service.core.coalesce_wait_ms": _mean_ms(coalesce),
        "core.api.flow_info_batch_ms": _mean_ms(durations("core.api.flow_info_batch")),
        "core.api.get_graph_ms": _mean_ms(durations("core.api.get_graph")),
        "core.api.node_info_ms": _mean_ms(durations("core.api.node_info")),
        "core.modeler.available_bandwidth_ms": _mean_ms(
            durations("core.modeler.available_bandwidth", "core.modeler.available_capacities")
        ),
        "core.modeler.available_bandwidth_calls_per_req": calls(
            "core.modeler.available_bandwidth", "core.modeler.available_capacities"
        ) / requests,
        "core.modeler.logical_graph_ms": _mean_ms(durations("core.modeler.logical_graph")),
        "core.snaparrays.evaluate_ms": _mean_ms(durations("core.snaparrays.evaluate")),
        "core.evaluator.evaluate_ms": _mean_ms(durations("core.evaluator.evaluate")),
        "stats.quartiles.from_samples_per_epoch": calls("stats.quartiles.from_samples")
        / max(1, len(published)),
        "stats.quartiles.from_samples_ms": _mean_ms(durations("stats.quartiles.from_samples")),
        "fairshare.solve_ms": _mean_ms(durations("fairshare.solve")),
        "fairshare.demands_per_solve": statistics.fmean(s[7] for s in solves) if solves else 0.0,
        "net.routing.route_calls_per_req": calls(*ROUTING) / requests,
        "net.routing.route_ms": _mean_ms(durations(*ROUTING)),
        "federation.api.cross_flow_info_ms": _mean_ms(durations("federation.api.evaluate_cross")),
        "federation.api.intra_flow_info_ms": _mean_ms(durations(
            "core.api.flow_info_batch",
            where=lambda s: names.get(s[5]) == "federation.api.flow_info_batch",
        )),
        "federation.api.get_graph_ms": _mean_ms(durations("federation.api.get_graph")),
        "service.core.sweep_ms_p50": _quantile(sweep_ms, 0.5),
        "service.core.sweep_ms_p99": _quantile(sweep_ms, 0.99),
        "service.core.sweeper_busy_frac": sum(sweep_ms) / 1e3 / wall if wall > 0 else 0.0,
        "collector.poll_ms": _mean_ms(run for run, _, _ in iterations),
        "collector.samples_per_sweep": sum(n for _, _, n in iterations) / sweeps,
        "core.snapshot.publish_ms": _mean_ms(s[3] - s[2] for s in published),
        "collector.metrics.series_cloned_per_publish": (
            statistics.fmean(s[7][0] for s in clones) if clones else 0.0
        ),
        "collector.metrics.values_copied_per_publish": (
            statistics.fmean(s[7][1] for s in clones) if clones else 0.0
        ),
        "federation.aggregator.refresh_ms": _mean_ms(durations("federation.aggregator.refresh")),
        "collector.discovery_s": (
            max(s[3] for s in discovery) - min(s[2] for s in discovery) if discovery else 0.0
        ),
        # prepare() runs the engine to readiness, then once more for warmup.
        "setup.warmup_s": main_runs[-1][3] - main_runs[-1][2] if main_runs else 0.0,
        "trace.unattributed_ms": unattributed,
    }
    return {"metrics": metrics, "self_ms_per_request": per_request}


ROUTING = ("net.routing.route", "net.routing.routes_between", "net.routing.multicast_tree")
