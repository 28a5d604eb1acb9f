"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro info
    python -m repro query --hosts m-1,m-4 --traffic m-6:m-8:90
    python -m repro select --start m-4 --nodes 4 --traffic m-6:m-8:90
    python -m repro table2 --rows "FFT (512)/2,Airshed/3"
    python -m repro table3

Everything runs the deterministic simulation; nothing touches a real
network.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro._version import __version__
from repro.adapt import select_nodes
from repro.bench import Table, format_seconds, percent_increase
from repro.bench.experiments import (
    TABLE3_SCENARIOS,
    run_adaptive,
    run_fixed,
    run_selected,
)
from repro.core import Flow, Timeframe
from repro.testbed import CMU_HOSTS, TRAFFIC_M6_M8, build_cmu_testbed
from repro.traffic import TrafficScenario, TrafficSpec
from repro.util import format_bandwidth
from repro.util.errors import ReproError

TABLE2_ROWS = {
    "FFT (512)/2": ("FFT (512)", 2, ["m-4", "m-6"]),
    "FFT (512)/4": ("FFT (512)", 4, ["m-4", "m-5", "m-6", "m-7"]),
    "FFT (1K)/2": ("FFT (1K)", 2, ["m-4", "m-6"]),
    "FFT (1K)/4": ("FFT (1K)", 4, ["m-4", "m-5", "m-6", "m-7"]),
    "Airshed/3": ("Airshed", 3, ["m-4", "m-5", "m-6"]),
    "Airshed/5": ("Airshed", 5, ["m-4", "m-5", "m-6", "m-7", "m-8"]),
}


def _parse_traffic(spec: str | None) -> TrafficScenario | None:
    """Parse ``src:dst:rateMbps`` (comma-separated for several streams)."""
    if not spec:
        return None
    streams = []
    for piece in spec.split(","):
        parts = piece.split(":")
        if len(parts) != 3:
            raise ReproError(f"traffic spec {piece!r} is not src:dst:rateMbps")
        src, dst, rate = parts
        streams.append(
            TrafficSpec(src, dst, kind="cbr", rate=float(rate) * 1e6, weight=1000.0)
        )
    return TrafficScenario("cli-traffic", streams)


def cmd_info(args) -> int:
    print(f"repro {__version__} — reproduction of Remos (HPDC 1998)")
    print("testbed hosts:", ", ".join(CMU_HOSTS))
    print("commands: info, query, select, serve, stats, table2, table3, top")
    return 0


def cmd_stats(args) -> int:
    """Run a warm query workload with observability on; report telemetry."""
    obs.configure_observability(
        metrics=True,
        tracing=True,
        logging=args.log,
        log_level="debug" if args.log else "info",
    )
    world = build_cmu_testbed(poll_interval=1.0)
    scenario = _parse_traffic(args.traffic)
    if scenario:
        scenario.start(world.net)
    remos = world.start_monitoring(warmup=args.warmup)
    hosts = args.hosts.split(",")
    if len(hosts) < 2:
        raise ReproError("--hosts needs at least two comma-separated hosts")
    flows = [
        Flow(src, dst, name=f"{src}->{dst}")
        for src in hosts
        for dst in hosts
        if src != dst
    ]
    timeframe = Timeframe.history(args.warmup)
    # First pass fills the generation-stamped caches; the rest are the warm
    # repeated queries an adapting application would issue.
    for _ in range(max(2, args.repeat)):
        remos.flow_info(variable_flows=flows, timeframe=timeframe)
        remos.get_graph(hosts, timeframe)

    telemetry = remos.telemetry()
    if args.json:
        print(json.dumps(telemetry, indent=2))
        return 0
    if args.prom:
        print(obs.get_registry().to_prometheus(), end="")
        return 0

    cache = telemetry["cache"]
    collector = telemetry["collector"] or {}
    view = telemetry["view"] or {}
    table = Table("repro stats — warm query telemetry", ["Metric", "Value"])
    table.add_row("queries answered", cache["queries"])
    table.add_row("mean query time", f"{cache['mean_query_time'] * 1e3:.3f} ms")
    table.add_row("cache hit rate", f"{cache['hit_rate']:.2%}")
    table.add_row("cache invalidations", cache["invalidations"])
    table.add_row("collector sweeps", collector.get("sweeps", "n/a"))
    table.add_row("view generation", view.get("generation", "n/a"))
    staleness = view.get("staleness_seconds")
    table.add_row(
        "view staleness", f"{staleness:.3f} s" if staleness is not None else "n/a"
    )
    stages = telemetry["metrics"].get(obs.STAGE_HISTOGRAM, {"series": []})
    for series in stages["series"]:
        summary = series["summary"]
        if summary is None:
            continue
        stage = series["labels"].get("stage", "?")
        table.add_row(
            f"stage {stage}",
            f"median {summary['median'] * 1e3:.3f} ms "
            f"(q1 {summary['q1'] * 1e3:.3f} / q3 {summary['q3'] * 1e3:.3f}, "
            f"n={series['count']})",
        )
    table.print()
    trace = obs.get_tracer().last_trace("query.flow_info")
    if trace is not None:
        print("\nlast flow_info trace:")
        print(trace.format_tree())
    return 0


def cmd_query(args) -> int:
    world = build_cmu_testbed(poll_interval=1.0)
    scenario = _parse_traffic(args.traffic)
    if scenario:
        scenario.start(world.net)
    remos = world.start_monitoring(warmup=args.warmup)
    hosts = args.hosts.split(",")
    if len(hosts) < 2:
        raise ReproError("--hosts needs at least two comma-separated hosts")
    flows = [
        Flow(src, dst, name=f"{src}->{dst}")
        for src in hosts
        for dst in hosts
        if src != dst
    ]
    result = remos.flow_info(
        variable_flows=flows, timeframe=Timeframe.history(args.warmup)
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    table = Table(
        f"simultaneous flow query among {args.hosts}",
        ["Flow", "median bw", "quartiles", "accuracy"],
    )
    for answer in result.variable:
        table.add_row(
            answer.label,
            format_bandwidth(answer.bandwidth.median),
            str(answer.bandwidth),
            f"{answer.bandwidth.accuracy:.2f}",
        )
    table.print()
    return 0


def cmd_select(args) -> int:
    world = build_cmu_testbed(poll_interval=1.0)
    scenario = _parse_traffic(args.traffic)
    if scenario:
        scenario.start(world.net)
    remos = world.start_monitoring(warmup=args.warmup)
    timeframe = Timeframe.static() if args.static else Timeframe.current()
    selection = select_nodes(
        remos, CMU_HOSTS, k=args.nodes, start=args.start, timeframe=timeframe
    )
    mode = "static capacities" if args.static else "dynamic measurements"
    if args.json:
        print(json.dumps({"mode": mode, "hosts": selection.hosts, "cost": selection.cost}))
        return 0
    print(f"selected ({mode}): {', '.join(selection.hosts)}")
    print(f"expected-communication cost: {selection.cost:.3e}")
    return 0


def cmd_table2(args) -> int:
    rows = args.rows.split(",") if args.rows else list(TABLE2_ROWS)
    table = Table(
        "Table 2 — node selection with external traffic m-6 -> m-8",
        ["Program", "Nodes", "Remos set", "t", "Static set", "t", "%inc"],
    )
    for row in rows:
        if row not in TABLE2_ROWS:
            raise ReproError(f"unknown row {row!r}; choose from {list(TABLE2_ROWS)}")
        program, k, static_hosts = TABLE2_ROWS[row]
        dynamic = run_selected(program, k=k, start="m-4", scenario=TRAFFIC_M6_M8())
        static = run_fixed(program, static_hosts, scenario=TRAFFIC_M6_M8())
        table.add_row(
            program, k,
            ",".join(dynamic.hosts), format_seconds(dynamic.elapsed),
            ",".join(static_hosts), format_seconds(static.elapsed),
            f"{percent_increase(dynamic.elapsed, static.elapsed):+.0f}%",
        )
    table.print()
    return 0


def cmd_table3(args) -> int:
    table = Table(
        "Table 3 — adaptive vs fixed Airshed (compiled for 8, run on 5)",
        ["Node set", "Pattern", "t", "migrations"],
    )
    start_hosts = ["m-4", "m-5", "m-6", "m-7", "m-8"]
    for mode in ("Fixed", "Adaptive"):
        for pattern, make_scenario in TABLE3_SCENARIOS.items():
            result = run_adaptive(
                scenario=make_scenario(),
                start_hosts=start_hosts,
                adaptive=(mode == "Adaptive"),
            )
            migrations = (
                result.adaptation.migrations if result.adaptation is not None else 0
            )
            table.add_row(mode, pattern, format_seconds(result.elapsed), migrations)
    table.print()
    return 0


def cmd_serve(args) -> int:
    """Run the concurrent query service over the testbed, fronted by HTTP.

    One asyncio front door answers every request on the service's query
    thread pool (``--threads``); ``--workers N`` runs N of them as
    pre-forked processes on a shared socket (the parent keeps the
    single-writer sweeper and broadcasts each published epoch to the
    workers).
    """
    import time as _time

    from repro.service import MultiProcessServer, RemosService, serve_aio

    if args.federation > 0 and args.workers > 0:
        # The multi-process front door replicates one cell's epochs; a
        # federation has per-shard publishers the replicas can't mirror yet.
        print("--federation and --workers are mutually exclusive", file=sys.stderr)
        return 2
    # Tracing is on by default so slow-query records carry full span trees;
    # the request path is instrumented anyway, and `repro serve` exists to
    # be observed.  --no-tracing restores the bare-metal path.
    obs.configure_observability(
        metrics=True, tracing=not args.no_tracing, logging=args.log, log_level="info"
    )
    front_end = dict(
        sweep_interval=args.sweep_interval,
        sim_step=args.sim_step,
        workers=args.threads,
        slow_query_threshold=args.slow_threshold,
        max_epoch_age=args.max_epoch_age,
        max_sweep_seconds=args.max_sweep_seconds,
        admission_mode=args.admission_mode,
        admission_threshold_qps=args.admission_threshold_qps,
        admission_horizon=args.admission_horizon,
        admission_retry_after=args.admission_retry_after,
    )
    if args.federation > 0:
        from repro.federation import FederationService, FederationWorld

        world = FederationWorld.build(
            poll_interval=args.poll_interval,
            shards=args.federation,
            leaves=args.fed_leaves,
            spines=args.fed_spines,
            hosts_per_leaf=args.fed_hosts_per_leaf,
        )
        service = FederationService(world, **front_end)
    else:
        world = build_cmu_testbed(poll_interval=args.poll_interval)
        service = RemosService.from_world(world, **front_end)
    scenario = _parse_traffic(args.traffic)
    if scenario:
        scenario.start(world.net)
    if args.workers > 0:
        server = MultiProcessServer(
            service,
            host=args.host,
            port=args.port,
            workers=args.workers,
            warmup=args.warmup,
        ).start()
        address = server.address
        mode = f"{args.workers} worker processes"
    else:
        service.start(warmup=args.warmup)
        server = serve_aio(service, host=args.host, port=args.port)
        address = server.address
        mode = "asyncio"
    print(
        f"remos service listening on http://{address[0]}:{address[1]} ({mode})"
    )
    print(
        "endpoints: /healthz /metrics /telemetry /graph?nodes=a,b /node/<host> "
        "POST /flow_info /debug/slow /debug/slo /debug/profile?seconds=N"
    )
    try:
        deadline = None if args.duration is None else _time.time() + args.duration
        while deadline is None or _time.time() < deadline:
            _time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.stop()
        print(
            f"served {service.remos.queries_answered} queries over "
            f"{service.sweeps} sweeps ({service.publishes} snapshots published)"
        )
    return 0


def _fetch(url: str, timeout: float) -> tuple[int, bytes]:
    """GET *url*, returning (status, body) — error statuses are data here."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        # /healthz answers 503 with a JSON body when degraded; that is a
        # reading, not a failure.
        return error.code, error.read()


def _top_snapshot(base: str, timeout: float) -> dict:
    """One poll of /healthz + /metrics + /debug/slow for the dashboard."""
    from repro.obs import promparse

    status, health_raw = _fetch(f"{base}/healthz", timeout)
    health = json.loads(health_raw.decode("utf-8"))
    _, metrics_raw = _fetch(f"{base}/metrics", timeout)
    families = promparse.parse(metrics_raw.decode("utf-8"))
    _, slow_raw = _fetch(f"{base}/debug/slow?limit=8", timeout)
    slow = json.loads(slow_raw.decode("utf-8"))

    def counter_sum(family_name: str, sample_name: str | None = None) -> float:
        family = families.get(family_name)
        if family is None:
            return 0.0
        wanted = sample_name or family_name
        return sum(v for name, _, v in family.samples if name == wanted)

    def quantiles(family_name: str) -> dict[str, dict[str, float]]:
        """Per-label-set quantile rows of a summary family."""
        family = families.get(family_name)
        rows: dict[str, dict[str, float]] = {}
        if family is None:
            return rows
        for name, labels, value in family.samples:
            key = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items()) if k != "quantile"
            )
            row = rows.setdefault(key, {})
            if name == family_name and "quantile" in labels:
                row[labels["quantile"]] = value
            elif name == f"{family_name}_count":
                row["count"] = value
        return rows

    def gauge(family_name: str, labels: dict | None = None) -> float | None:
        family = families.get(family_name)
        return None if family is None else family.value(labels)

    return {
        "health": health,
        "http_status": status,
        "queries_total": counter_sum("remos_query_seconds", "remos_query_seconds_count"),
        "sweeps_total": counter_sum("remos_service_sweeps_total"),
        "batches_total": counter_sum("remos_service_batches_total"),
        "epoch_age": gauge("remos_snapshot_age_seconds"),
        "hit_rate": gauge("remos_cache_hit_rate"),
        "query_latency": quantiles("remos_query_seconds"),
        "http_latency": quantiles("remos_http_request_seconds"),
        "budget": {
            labels.get("endpoint", "?"): value
            for _, labels, value in (
                families["remos_slo_error_budget_remaining"].samples
                if "remos_slo_error_budget_remaining" in families
                else []
            )
        },
        "slow": slow,
    }


def _render_top(base: str, snap: dict, previous: dict | None, elapsed: float) -> str:
    """One screenful of dashboard text from a `_top_snapshot` poll."""
    import time as _time

    health = snap["health"]
    lines = []
    age = snap["epoch_age"]
    if age is None:
        age = health.get("epoch_age_seconds")
    lines.append(
        f"remos top — {base} — {_time.strftime('%H:%M:%S')}   "
        f"health: {health.get('status', '?')} "
        f"(epoch {health.get('epoch', '?')}"
        + (f", age {age:.2f}s" if isinstance(age, (int, float)) else "")
        + ")"
    )
    for reason in health.get("reasons", []):
        lines.append(
            f"  !! {reason.get('monitor')}: {reason.get('reason', 'unhealthy')}"
            + (
                f" (reading {reason['reading']:.3g} > max {reason['maximum']:.3g})"
                if reason.get("reading") is not None
                else ""
            )
        )
    if previous is not None and elapsed > 0:
        qps = (snap["queries_total"] - previous["queries_total"]) / elapsed
        sps = (snap["sweeps_total"] - previous["sweeps_total"]) / elapsed
        rates = f"qps {qps:7.2f}   sweeps/s {sps:6.2f}"
    else:
        rates = "qps     n/a   sweeps/s    n/a   (first poll)"
    hit = snap["hit_rate"]
    lines.append(
        f"{rates}   queries {snap['queries_total']:.0f}   "
        f"batches {snap['batches_total']:.0f}"
        + (f"   cache hit {hit:.1%}" if hit is not None else "")
    )
    lines.append("")
    lines.append("query latency (s):          p50       p75       max     count")
    for key, row in sorted(snap["query_latency"].items()):
        label = key.split("=", 1)[-1] or "?"
        lines.append(
            f"  {label:<22}{row.get('0.5', 0.0):9.4f} {row.get('0.75', 0.0):9.4f} "
            f"{row.get('1', 0.0):9.4f} {row.get('count', 0):9.0f}"
        )
    if snap["http_latency"]:
        lines.append("http latency (s):           p50       p75       max     count")
        for key, row in sorted(snap["http_latency"].items()):
            label = key.split("=", 1)[-1] or "?"
            budget = snap["budget"].get(label)
            budget_text = f"   budget {budget:+.2f}" if budget is not None else ""
            lines.append(
                f"  {label:<22}{row.get('0.5', 0.0):9.4f} {row.get('0.75', 0.0):9.4f} "
                f"{row.get('1', 0.0):9.4f} {row.get('count', 0):9.0f}{budget_text}"
            )
    slow = snap["slow"]
    lines.append("")
    lines.append(
        f"slow queries (>{slow.get('threshold_seconds', 0):g}s, "
        f"{slow.get('recorded', 0)} recorded):"
    )
    for record in slow.get("records", [])[:8]:
        stamp = _time.strftime("%H:%M:%S", _time.localtime(record.get("ts", 0)))
        trace = record.get("trace_id") or "-"
        lines.append(
            f"  {stamp}  {record.get('endpoint', '?'):<10} "
            f"{record.get('duration', 0):7.3f}s  epoch {record.get('epoch', '?')}  "
            f"trace {trace[:16]}"
        )
    if not slow.get("records"):
        lines.append("  (none)")
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Live one-screen ops dashboard over a running `repro serve`."""
    import time as _time

    base = args.url.rstrip("/")
    previous = None
    last_poll = _time.monotonic()
    iterations = 0
    try:
        while True:
            snap = _top_snapshot(base, args.timeout)
            now = _time.monotonic()
            text = _render_top(base, snap, previous, now - last_poll)
            previous, last_poll = snap, now
            if not args.no_clear and iterations > 0:
                print("\x1b[2J\x1b[H", end="")
            print(text)
            iterations += 1
            if args.iterations and iterations >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except OSError as error:
        raise ReproError(f"cannot reach {base}: {error}") from error


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Remos reproduction (HPDC 1998) experiment runner"
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="package and testbed summary").set_defaults(
        func=cmd_info
    )

    query = subparsers.add_parser("query", help="simultaneous flow query on the testbed")
    query.add_argument("--hosts", required=True, help="comma-separated host list")
    query.add_argument("--traffic", help="competing traffic: src:dst:rateMbps[,...]")
    query.add_argument("--warmup", type=float, default=10.0, help="measurement time (s)")
    query.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    query.set_defaults(func=cmd_query)

    select = subparsers.add_parser("select", help="Remos-driven node selection")
    select.add_argument("--start", default="m-4", help="start node (default m-4)")
    select.add_argument("--nodes", type=int, default=4, help="cluster size")
    select.add_argument("--traffic", help="competing traffic: src:dst:rateMbps[,...]")
    select.add_argument("--static", action="store_true", help="ignore measurements")
    select.add_argument("--warmup", type=float, default=10.0)
    select.add_argument("--json", action="store_true", help="emit JSON instead of text")
    select.set_defaults(func=cmd_select)

    stats = subparsers.add_parser(
        "stats", help="run a warm query workload and report pipeline telemetry"
    )
    stats.add_argument(
        "--hosts", default=",".join(CMU_HOSTS), help="comma-separated host list"
    )
    stats.add_argument("--traffic", help="competing traffic: src:dst:rateMbps[,...]")
    stats.add_argument("--warmup", type=float, default=10.0, help="measurement time (s)")
    stats.add_argument(
        "--repeat", type=int, default=3, help="warm query repetitions (default 3)"
    )
    stats.add_argument("--json", action="store_true", help="emit the full telemetry JSON")
    stats.add_argument(
        "--prom", action="store_true", help="emit Prometheus text exposition format"
    )
    stats.add_argument(
        "--log", action="store_true", help="also enable structured debug logging"
    )
    stats.set_defaults(func=cmd_stats)

    serve = subparsers.add_parser(
        "serve", help="run the concurrent query service over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = any free)")
    serve.add_argument(
        "--poll-interval", type=float, default=1.0, help="collector poll interval (sim s)"
    )
    serve.add_argument(
        "--sweep-interval",
        type=float,
        default=0.02,
        help="wall seconds between sweeper iterations",
    )
    serve.add_argument(
        "--sim-step", type=float, default=1.0, help="simulated seconds per sweep"
    )
    serve.add_argument("--warmup", type=float, default=10.0, help="measurement time (s)")
    serve.add_argument("--traffic", help="competing traffic: src:dst:rateMbps[,...]")
    serve.add_argument(
        "--threads",
        type=int,
        default=4,
        help="query threads per process: the most requests answered at once",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pre-forked worker processes on a shared socket (0 = single process)",
    )
    serve.add_argument(
        "--federation",
        type=int,
        default=0,
        help="serve a federated deployment of N shard cells instead of the "
        "single-cell testbed (0 = single cell)",
    )
    serve.add_argument(
        "--fed-leaves", type=int, default=2, help="leaf switches per shard region"
    )
    serve.add_argument(
        "--fed-spines", type=int, default=2, help="spine switches per shard region"
    )
    serve.add_argument(
        "--fed-hosts-per-leaf", type=int, default=4, help="hosts per leaf switch"
    )
    serve.add_argument(
        "--duration", type=float, default=None, help="auto-stop after N wall seconds"
    )
    serve.add_argument("--log", action="store_true", help="structured logging to stderr")
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable span tracing (slow-query records lose their span trees)",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=0.25,
        help="slow-query log threshold in seconds (0 records every query)",
    )
    serve.add_argument(
        "--max-epoch-age",
        type=float,
        default=10.0,
        help="freshness SLO: /healthz turns 503 when the epoch is older (s)",
    )
    serve.add_argument(
        "--max-sweep-seconds",
        type=float,
        default=5.0,
        help="freshness SLO: /healthz turns 503 when a sweep takes longer (s)",
    )
    serve.add_argument(
        "--admission-mode",
        choices=["off", "degrade", "shed"],
        default="off",
        help="predictive admission control: degrade FUTURE queries to "
        "CURRENT or shed with 503 + Retry-After under predicted overload",
    )
    serve.add_argument(
        "--admission-threshold-qps",
        type=float,
        default=200.0,
        help="predicted request rate (qps) above which admission kicks in",
    )
    serve.add_argument(
        "--admission-horizon",
        type=float,
        default=5.0,
        help="seconds ahead the admission controller forecasts its load",
    )
    serve.add_argument(
        "--admission-retry-after",
        type=float,
        default=1.0,
        help="Retry-After seconds suggested to shed callers",
    )
    serve.set_defaults(func=cmd_serve)

    top = subparsers.add_parser(
        "top", help="live one-screen dashboard over a running `repro serve`"
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8080", help="base URL of the service"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N polls (0 = run until interrupted)",
    )
    top.add_argument(
        "--timeout", type=float, default=5.0, help="per-request timeout (s)"
    )
    top.add_argument(
        "--no-clear", action="store_true", help="append screens instead of clearing"
    )
    top.set_defaults(func=cmd_top)

    table2 = subparsers.add_parser("table2", help="reproduce Table 2 rows")
    table2.add_argument("--rows", help=f"comma-separated from {list(TABLE2_ROWS)}")
    table2.set_defaults(func=cmd_table2)

    table3 = subparsers.add_parser("table3", help="reproduce Table 3")
    table3.set_defaults(func=cmd_table3)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (also installed as ``python -m repro``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
