"""The HTTP application layer of the Remos service.

The asyncio front door (:mod:`repro.service.aio`) parses each request
off the wire and funnels it through :func:`handle_request` here, so the
request-scoped observability contract from ``docs/OBSERVABILITY.md``
lives in one place:

* every request runs under a :class:`~repro.obs.context.TraceContext` —
  parsed from an incoming W3C ``traceparent`` header or freshly generated
  — bound (thread-locally) for the duration of the handler, and echoed on
  **every** response as a ``traceparent`` header;
* access logs are structured ``http.access`` events (method, path,
  status, duration, trace id);
* per-endpoint latencies feed the service's SLO registry; queries over
  the slow threshold land in the slow-query log with span trees attached;
* ``/healthz`` answers **503** with machine-readable ``reasons`` when a
  freshness SLO is blown.

Handlers are synchronous; the door runs each one start-to-finish on
one thread of the service's query pool.  Malformed requests — a body
that is not a JSON object, a value of the wrong type, a non-finite
number where a rate or duration belongs — answer **400** with a JSON
``{"error": ...}`` body.

Endpoints
---------
``GET /healthz``
    Liveness plus the current snapshot epoch.  **503** with a
    machine-readable ``reasons`` list when a freshness SLO is blown
    (stale epoch, overlong sweep) — see ``RemosService.health``.
``GET /metrics``
    Prometheus text exposition of the global registry.
``GET /telemetry``
    The combined telemetry report as JSON (with SLO + slow-log sections).
``GET /debug/slow``
    The slow-query log, newest first: span tree, args, epoch stamps and
    cache profile per record.  ``?limit=N`` caps the count.
``GET /debug/slo``
    Declared objectives: latency error budgets and freshness monitors,
    plus the predictive-admission verdict counters when admission
    control is configured.
``GET /debug/profile?seconds=N``
    Run the sampling wall-clock profiler for N seconds (default 2, max
    30; ``interval`` in seconds optional, at least 1 ms and at most
    ``seconds``) and return collapsed stacks as ``text/plain`` —
    flamegraph-ready.  One profile at a time per process (409 otherwise).
``GET /graph?nodes=a,b,c``
    ``remos_get_graph`` over the named nodes.  Timeframe selection via
    flat query parameters: ``timeframe=static|current|history|future``
    with ``window``/``horizon``/``predictor`` as needed (for example
    ``/graph?nodes=a,b&timeframe=future&horizon=30&predictor=auto``).
``GET /node/<host>``
    ``node_info`` for one compute host.  Accepts the same
    ``timeframe``/``window``/``horizon``/``predictor`` parameters as
    ``/graph``.
``POST /flow_info``
    Body: ``{"fixed": [...], "variable": [...], "independent": [...],
    "timeframe": {...}}`` where each flow is ``{"src", "dst",
    "requested"?, "cap"?, "name"?}`` and the timeframe is ``{"kind":
    "static"|"current"|"history"|"future", "window"?, "horizon"?,
    "predictor"?}`` (defaults to current).  The Python kwarg spellings
    ``fixed_flows``/``variable_flows``/``independent_flows`` are
    accepted as aliases.

The query endpoints are also the enforcement point for **predictive
admission control** (:mod:`repro.service.admission`, ``repro serve
--admission-mode degrade|shed``): when the service's forecast of its own
request rate crosses the configured threshold, FUTURE queries are
degraded to CURRENT (``"timeframe_degraded": true`` in the body,
``X-Remos-Degraded`` header) or the request is shed with **503** and a
``Retry-After`` header, depending on the configured mode.  Health,
metrics and debug endpoints are never shed.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.core import Flow, Timeframe
from repro.obs.profiler import MIN_INTERVAL, SamplingProfiler
from repro.util.errors import ReproError

_log = obs.get_logger("repro.service.app")

#: One profile at a time per process: the sampler reads every thread.
_profile_lock = threading.Lock()

#: Longest profile a request may ask for (seconds).
MAX_PROFILE_SECONDS = 30.0


def _number(spec: dict, key: str, default: float) -> float:
    """A numeric field of a request spec: a JSON number or numeric string.

    Range and finiteness are :class:`Flow`'s and :class:`Timeframe`'s to
    check; this only refuses values that are not numbers at all.
    """
    value = spec.get(key, default)
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ReproError(f"{key!r} must be a number, got {value!r}")


def _string(spec: dict, key: str, default: str | None = None) -> str | None:
    value = spec.get(key, default)
    if value is not None and not isinstance(value, str):
        raise ReproError(f"{key!r} must be a string, got {value!r}")
    return value


def _parse_flow(spec) -> Flow:
    if not isinstance(spec, dict) or "src" not in spec or "dst" not in spec:
        raise ReproError(f"flow spec needs src and dst: {spec!r}")
    return Flow(
        src=_string(spec, "src"),
        dst=_string(spec, "dst"),
        requested=_number(spec, "requested", 1.0),
        cap=_number(spec, "cap", float("inf")),
        name=_string(spec, "name"),
    )


def _parse_timeframe(spec) -> Timeframe:
    if spec is None:
        return Timeframe.current()
    if not isinstance(spec, dict):
        raise ReproError(f"timeframe must be an object, got {spec!r}")
    kind = spec.get("kind", "current")
    if kind == "static":
        return Timeframe.static()
    if kind == "current":
        return Timeframe.current()
    if kind == "history":
        if "window" not in spec:
            raise ReproError('history timeframe needs a "window" (seconds)')
        return Timeframe.history(_number(spec, "window", 0.0))
    if kind == "future":
        if "horizon" not in spec:
            raise ReproError('future timeframe needs a "horizon" (seconds)')
        return Timeframe.future(
            _number(spec, "horizon", 0.0),
            predictor=_string(spec, "predictor", "ewma"),
            window=_number(spec, "window", 60.0),
        )
    raise ReproError(f"unknown timeframe kind {kind!r}")


def _timeframe_from_params(params: dict) -> Timeframe | None:
    """The timeframe encoded in GET query parameters, or None.

    Mirrors the POST JSON spec with flat parameters: ``?timeframe=future``
    selects the kind, ``window`` / ``horizon`` / ``predictor`` fill in the
    rest (``/node/h3?timeframe=future&horizon=30&predictor=auto``).
    """
    kind = params.get("timeframe", [None])[0]
    if kind is None:
        return None
    spec = {"kind": kind}
    for key in ("window", "horizon", "predictor"):
        value = params.get(key, [None])[0]
        if value is not None:
            spec[key] = value
    return _parse_timeframe(spec)


def _endpoint_name(method: str, path: str) -> str:
    """The SLO/metric label for a request path (bounded cardinality)."""
    if path.startswith("/node/"):
        return "node"
    known = {
        "/healthz": "healthz",
        "/metrics": "metrics",
        "/telemetry": "telemetry",
        "/graph": "graph",
        "/flow_info": "flow_info",
        "/debug/slow": "debug_slow",
        "/debug/slo": "debug_slo",
        "/debug/profile": "debug_profile",
    }
    return known.get(path, "other")


@dataclass
class Request:
    """One parsed HTTP request, as the transports hand it over."""

    method: str
    target: str  #: the raw request target (path + optional ?query)
    headers: dict[str, str] = field(default_factory=dict)  #: lower-cased names
    body: bytes = b""
    client: str = ""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """One response for the transports to serialise."""

    status: int
    body: bytes
    content_type: str
    traceparent: str | None = None
    headers: dict[str, str] = field(default_factory=dict)  #: extra headers

    @property
    def reason(self) -> str:
        try:
            return HTTPStatus(self.status).phrase
        except ValueError:
            return ""

    @classmethod
    def text(cls, status: int, body: str, content_type: str) -> "Response":
        return cls(status, body.encode("utf-8"), content_type)

    @classmethod
    def json(cls, status: int, data) -> "Response":
        return cls.text(status, json.dumps(data, indent=2), "application/json")

    @classmethod
    def error(cls, status: int, error: BaseException) -> "Response":
        return cls.json(status, {"error": f"{type(error).__name__}: {error}"})


def handle_request(service, request: Request) -> Response:
    """Answer one request: bind a trace, route, settle the SLO accounts.

    Never raises — handler errors become 400 (:class:`ReproError`,
    ``ValueError``, ``KeyError``) or 500 JSON bodies, and every response
    (including errors) carries the request's ``traceparent``.
    """
    parent = obs.parse_traceparent(request.header("traceparent"))
    context = parent.child() if parent else obs.TraceContext.generate()
    started = time.perf_counter()
    url = urlparse(request.target)
    endpoint = _endpoint_name(request.method, url.path)
    with obs.bind_context(context):
        try:
            if request.method == "GET":
                response = _route_get(service, url, request)
            elif request.method == "POST":
                response = _route_post(service, url, request)
            else:
                response = Response.json(
                    405, {"error": f"method {request.method} not allowed"}
                )
        except ReproError as error:
            response = Response.error(400, error)
        except (ValueError, KeyError) as error:
            response = Response.error(400, error)
        except Exception as error:  # defensive: keep the server alive
            response = Response.error(500, error)
        finally:
            # flow_info settles its own SLO inside the service (the
            # coalescing path owns the richer record); everything else is
            # settled here at the HTTP boundary.
            if endpoint != "flow_info":
                service.slos.record_request(
                    endpoint, time.perf_counter() - started
                )
        response.traceparent = context.to_traceparent()
        _log.info(
            "http.access",
            method=request.method,
            path=request.target,
            status=response.status,
            client=request.client,
            duration=round(time.perf_counter() - started, 6),
        )
    return response


def _admit(service, endpoint: str, timeframe: Timeframe | None):
    """Consult predictive admission for one query request.

    Returns ``(shed_response, timeframe, degraded)``: a ready 503 when the
    request is shed (the caller returns it as-is), otherwise the — possibly
    degraded — timeframe to answer with.
    """
    controller = getattr(service, "admission", None)
    if controller is None:
        return None, timeframe, False
    decision = controller.admit(endpoint, timeframe)
    if decision.action == "shed":
        response = Response.json(
            503,
            {
                "error": "overloaded: query shed by predictive admission",
                "predicted_qps": round(decision.predicted_qps, 3),
                "retry_after": decision.retry_after,
            },
        )
        response.headers["Retry-After"] = decision.retry_after_header
        return response, timeframe, False
    if decision.action == "degrade":
        return None, decision.timeframe, True
    return None, timeframe, False


def _answer_get(service, endpoint: str, args: dict, timeframe, answer) -> Response:
    """Admit, answer and slow-log one GET query (``/graph``, ``/node``).

    *answer* maps the effective (possibly degraded) timeframe to the
    result; the slow-log arguments echo that timeframe.  The SLO is
    settled by :func:`handle_request`, which times the whole request.
    """
    shed, timeframe, degraded = _admit(service, endpoint, timeframe)
    if shed is not None:
        return shed
    if timeframe is not None:
        args["timeframe"] = str(timeframe)
    if degraded:
        args["degraded"] = True
    with service.observe_query(
        endpoint, f"http.{endpoint}", args, settle=False, status=200
    ):
        return _query_response(answer(timeframe).to_dict(), degraded)


def _query_response(payload: dict, degraded: bool) -> Response:
    """A 200 answer, stamped when admission degraded its timeframe."""
    if degraded:
        payload["timeframe_degraded"] = True
    response = Response.json(200, payload)
    if degraded:
        response.headers["X-Remos-Degraded"] = "future->current"
    return response


def _route_get(service, url, request: Request) -> Response:
    params = parse_qs(url.query)
    if url.path == "/healthz":
        health = service.health()
        return Response.json(200 if health["healthy"] else 503, health)
    if url.path == "/metrics":
        return Response.text(
            200,
            service.metrics_text(),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    if url.path == "/telemetry":
        return Response.json(200, service.telemetry())
    if url.path == "/debug/slow":
        limit = params.get("limit", [None])[0]
        return Response.json(
            200,
            service.slowlog.to_dict(limit=None if limit is None else int(limit)),
        )
    if url.path == "/debug/slo":
        report = service.slos.to_dict()
        controller = getattr(service, "admission", None)
        if controller is not None:
            # Shed load is spent error budget: surface the admission
            # verdicts next to the latency/freshness SLOs they protect.
            report["admission"] = controller.to_dict()
        return Response.json(200, report)
    if url.path == "/debug/profile":
        return _route_profile(params)
    if url.path == "/graph":
        nodes = [
            name
            for chunk in params.get("nodes", [])
            for name in chunk.split(",")
            if name
        ]
        return _answer_get(
            service,
            "graph",
            {"nodes": nodes},
            _timeframe_from_params(params),
            lambda timeframe: service.get_graph(nodes, timeframe),
        )
    if url.path.startswith("/node/"):
        host = url.path[len("/node/") :]
        return _answer_get(
            service,
            "node",
            {"host": host},
            _timeframe_from_params(params),
            lambda timeframe: service.node_info(host, timeframe),
        )
    return Response.json(404, {"error": f"no such path {url.path!r}"})


def _route_profile(params: dict) -> Response:
    """``/debug/profile?seconds=N&interval=S`` — collapsed stacks."""
    seconds = float(params.get("seconds", ["2"])[0])
    interval = float(params.get("interval", ["0.01"])[0])
    if not 0.0 < seconds <= MAX_PROFILE_SECONDS:
        raise ReproError(
            f"seconds must be in (0, {MAX_PROFILE_SECONDS:g}], got {seconds:g}"
        )
    if not MIN_INTERVAL <= interval <= seconds:
        raise ReproError(
            f"interval must be in [{MIN_INTERVAL:g}, seconds], got {interval:g}"
        )
    if not _profile_lock.acquire(blocking=False):
        return Response.json(409, {"error": "a profile is already running"})
    try:
        profiler = SamplingProfiler(interval=interval)
        with profiler:
            time.sleep(seconds)
        _log.info(
            "profile_complete",
            seconds=seconds,
            samples=profiler.samples,
            stacks=len(profiler.counts()),
        )
        return Response.text(200, profiler.collapsed(), "text/plain; charset=utf-8")
    finally:
        _profile_lock.release()


def _route_post(service, url, request: Request) -> Response:
    body = json.loads(request.body.decode("utf-8") or "{}")
    if not isinstance(body, dict):
        raise ReproError(f"request body must be a JSON object, got {body!r}")
    if url.path == "/flow_info":
        # Accept both the short key and the Python kwarg name
        # ("variable" / "variable_flows", etc.).
        def flows(key: str) -> list[Flow]:
            specs = body.get(key, body.get(f"{key}_flows", []))
            if not isinstance(specs, list):
                raise ReproError(f"{key!r} must be a list of flows, got {specs!r}")
            return [_parse_flow(f) for f in specs]

        timeframe = _parse_timeframe(body.get("timeframe"))
        shed, timeframe, degraded = _admit(service, "flow_info", timeframe)
        if shed is not None:
            return shed
        result = service.flow_info(
            fixed_flows=flows("fixed"),
            variable_flows=flows("variable"),
            independent_flows=flows("independent"),
            timeframe=timeframe,
        )
        return _query_response(result.to_dict(), degraded)
    return Response.json(404, {"error": f"no such path {url.path!r}"})
