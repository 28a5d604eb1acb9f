"""Remos query ledger: open-loop load on the asyncio door, one workload a run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tree64-churn --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1   # every workload, untraced and traced

The server (``perfbench/server.py``) runs as its own process, pinned to
one CPU with the generator on the others, so the two never share an
interpreter lock or a core.  Workloads, nominal rates and the metric
metadata live in ``perfbench/spec.json``.

``--trace 0`` measures the end-to-end metrics over several fresh server
processes: set-up time (spawn to the first healthy ``/healthz``), latency
p50/p90 at the workload's fixed nominal rate timed from each request's
intended send time, the highest offered rate meeting the service's own
p99 SLO without a growing backlog, and epochs published per second.
``--trace 1`` runs the nominal phase twice, untraced and then with the
layer spans of :mod:`layers` installed, and reports the per-layer metrics,
the unattributed remainder and the tracing overhead.

Every answer is checked (:mod:`checks`).  A failed check, or any failed
request outside the rate search (a non-200, a timeout, a connection
error), makes the run report ``correct: false`` and exit 1; a rate-search
rung may only answer 503 or time out, which counts as an SLO miss.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_tmp"

#: Untimed phase at the nominal rate that fills caches and finishes
#: lazy set-up before anything is measured.
WARM_S = 1.0
#: Each run measures several fresh server processes (``servers`` in
#: spec.json) one after another: each gives one set-up time and one
#: nominal phase, and the last one the rate search.  EXTRA_SETUPS more
#: processes are only set up and stopped.  Set-up time is the median over
#: all of them, so one slow process does not move the run.  Latency
#: quantiles and the epoch rate pool the servers' nominal phases.
EXTRA_SETUPS = 2
#: Nominal phase per server: NOMINAL_SHARE of ``--seconds`` (set-ups,
#: warm-ups and the rate ladder take about the rest) and at least
#: NOMINAL_MIN_REQUESTS, so that the pooled p90 has twenty samples beyond
#: it.  p99 would need five times the phase, more than a run can spend on
#: a workload that saturates near 25 req/s.
NOMINAL_SHARE = 1 / 4
NOMINAL_MIN_REQUESTS = 70
#: Rate search: a ladder in steps of LADDER_STEP (finer than the metric's
#: bound) from the workload's ``ladder_start_qps``: up while rungs meet the
#: SLO, or down until one does, never below nominal and at most MAX_RUNGS
#: rungs, which bounds a run's length (a server more than 1.12^3 = 1.4x
#: past the start reads as the top rung).  Each rung is at least RUNG_S
#: long and RUNG_REQUESTS requests.
LADDER_STEP = 1.12
MAX_RUNGS = 4
RUNG_S = 1.5
RUNG_REQUESTS = 30
#: Limits on a server coming up, well inside a run's 180 s budget.
LISTENING_WITHIN_S = 120.0
HEALTHY_WITHIN_S = 20.0
#: Failures a rate-search rung may show under overload without failing
#: the run (they still count in ``failed`` and miss the SLO).
OVERLOAD_ERRORS = ("HTTP 503", "TimeoutError")
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: With two or more CPUs the server gets the first and the generator the
#: rest, so the generator's timers never queue behind server threads.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(_CPUS[:1])
LOADGEN_CPUS = set(_CPUS[1:]) or SERVER_CPUS

sys.path.insert(0, str(HERE))


def hard_failures(records, overload_ok: bool) -> int:
    """Failed requests that make the run incorrect.

    Every failure does, except, with *overload_ok*, the overload answers
    of :data:`OVERLOAD_ERRORS`.
    """
    return sum(
        r.error is not None and not (overload_ok and r.error.startswith(OVERLOAD_ERRORS))
        for r in records
    )


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Server:
    """One server process over one world; ``setup_s`` is spawn to healthy."""

    def __init__(self, spec: dict, spans: Path | None = None):
        SCRATCH.mkdir(exist_ok=True)
        command = [sys.executable, str(HERE / "server.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.log = open(SCRATCH / "server.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS),
        )
        try:
            self.proc.stdin.write(json.dumps(spec).encode() + b"\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], LISTENING_WITHIN_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("server did not come up; see .perfbench_tmp/server.log")
            self.address = ("127.0.0.1", json.loads(line)["port"])
            deadline = time.perf_counter() + HEALTHY_WITHIN_S
            while self.get("/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server listening but /healthz never answered 200")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def get(self, path: str):
        connection = http.client.HTTPConnection(*self.address, timeout=30.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Counters:
    """Exact work counters: /telemetry and /proc deltas over one phase."""

    FIELDS = (
        "publishes", "sweeps", "sweep_errors", "batches", "queries_batched",
        "cache_hits", "cache_misses", "routing_rebuilds", "vectorized_solves",
        "scalar_solves", "forecast_cells", "queries_answered",
    )

    def __init__(self, server: Server):
        telemetry = server.get_json("/telemetry")
        service = telemetry["service"]
        cache = telemetry["cache"]
        snapshot = telemetry.get("snapshot") or {}
        solves = telemetry.get("solves") or {}
        self.values = {
            "publishes": service["publishes"],
            "sweeps": service["sweeps"],
            "sweep_errors": service["sweep_errors"],
            "batches": service["batches_executed"],
            "queries_batched": service["queries_batched"],
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "routing_rebuilds": cache.get("routing_rebuilds", 0),
            "vectorized_solves": solves.get("vectorized_solves", 0),
            "scalar_solves": solves.get("scalar_solves", 0),
            "forecast_cells": (telemetry.get("forecast") or {}).get("cells", 0),
            "queries_answered": telemetry.get("queries_answered", 0),
        }
        probed_at = time.time()
        self.point = (
            snapshot.get("epoch", service["publishes"]),
            snapshot.get("published_at", probed_at),
            probed_at,
        )
        self.cpu_s = server.cpu_s()
        self.wall = time.perf_counter()

    def delta(self, before: "Counters", requests: int) -> dict:
        out = {k: self.values[k] - before.values[k] for k in self.FIELDS}
        out["cpu_ms_per_req"] = 1e3 * (self.cpu_s - before.cpu_s) / max(1, requests)
        out["wall_s"] = self.wall - before.wall
        out["trailing_gap_s"] = self.point[2] - self.point[1]
        out["epochs"], out["epoch_span_s"] = epoch_window(before.point, self.point)
        out["epochs_per_s"] = epoch_rate(out["epochs"], out["epoch_span_s"])
        return out


def epoch_window(first, last) -> tuple[int, float]:
    """Epochs published between two ``(epoch, published_at, probed_at)``
    probes, and the time they took.

    The time runs from the last publication before the window to the last
    one in it, so the figure is not quantised by where the window's
    boundaries fall; a trailing gap (to the end of the window) longer than
    the window's mean publication period is added, so a sweeper that
    stalls lowers the figure.
    """
    epochs = last[0] - first[0]
    span = last[1] - first[1]
    period = span / epochs if epochs else 0.0
    return epochs, span + max(0.0, last[2] - last[1] - period)


def epoch_rate(epochs: int, span: float) -> float:
    return epochs / span if span > 0 else 0.0


class Ledger:
    """One run's load, checks and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, meta: dict):
        import checks
        import loadgen
        import worlds

        self.checks, self.loadgen = checks, loadgen
        self.workload = workload
        self.meta = meta["workloads"][workload]
        self.nominal_s = seconds * NOMINAL_SHARE
        self.spec = worlds.world_spec(workload, seed)
        self.capacity = worlds.access_capacity(self.spec)
        self.mix = worlds.Mix(workload, seed, self.spec)
        self.rng = random.Random(f"{workload}/arrivals/{seed}")
        self.attempted = 0
        self.failed = 0
        self.hard_failed = 0
        self.errors: list[str] = []
        self.oversubscribed = 0
        self.phases: list[tuple[str, object]] = []

    def phase(self, server: Server, label: str, rate: float, duration: float,
              overload_ok: bool = False):
        offsets = self.loadgen.poisson_offsets(self.rng, rate, duration)
        queries = self.mix.deal(len(offsets))
        before = Counters(server)
        phase = self.loadgen.run_phase(server.address, queries, offsets, self.rng, rate, duration)
        phase.counters = Counters(server).delta(before, len(phase.records))
        for record in phase.records:
            if record.error is None:
                error = self.checks.check(record.query, record.body, self.capacity)
                if error is not None:
                    record.error = "answer check: " + error
                elif self.checks.oversubscribed(record.query, record.body, self.capacity):
                    self.oversubscribed += 1
            record.body = b""
        phase.failed = sum(r.error is not None for r in phase.records)
        self.attempted += len(phase.records)
        self.failed += phase.failed
        self.hard_failed += hard_failures(phase.records, overload_ok)
        self.errors += [f"{label}: {r.error}" for r in phase.records if r.error is not None]
        self.phases.append((label, phase))
        return phase

    def meets_slo(self, phase, slo: dict) -> bool:
        if phase.failed or phase.growing_backlog or not phase.valid:
            return False
        kinds = {r.query.kind for r in phase.records}
        return all(phase.quantile(0.99, kind) <= slo[kind] for kind in kinds)

    def serve(self, spans: Path | None = None) -> Server:
        """A fresh server, warmed at the nominal rate."""
        server = Server(self.spec, spans)
        try:
            self.phase(server, "warm", self.meta["nominal_qps"], WARM_S)
        except BaseException:
            server.stop()
            raise
        return server

    def nominal(self, server: Server):
        rate = self.meta["nominal_qps"]
        return self.phase(
            server, "nominal", rate, max(self.nominal_s, NOMINAL_MIN_REQUESTS / rate)
        )

    def search(self, server: Server, nominal_phase, slo: dict) -> float:
        """Highest offered rate on the ladder that meets the SLO."""
        nominal = self.meta["nominal_qps"]
        if not self.meets_slo(nominal_phase, slo):
            return 0.0

        def meets(rate: float) -> bool:
            phase = self.phase(
                server, f"ladder@{rate:.1f}", rate, max(RUNG_S, RUNG_REQUESTS / rate),
                overload_ok=True,
            )
            time.sleep(0.2)  # let the server drain between rungs
            return self.meets_slo(phase, slo)

        rate = self.meta["ladder_start_qps"]
        if not meets(rate):
            for _ in range(MAX_RUNGS - 1):
                rate /= LADDER_STEP
                if rate <= nominal:
                    break
                if meets(rate):
                    return rate
            return nominal
        for _ in range(MAX_RUNGS - 1):
            if not meets(rate * LADDER_STEP):
                break
            rate *= LADDER_STEP
        return rate


def _service_slo(server: Server) -> dict:
    latency = server.get_json("/debug/slo")["latency"]
    return {kind: latency[kind]["threshold_seconds"] for kind in ("flow_info", "graph", "node")}


#: Work counters printed per request (R) or per epoch (E) beside each phase.
PER_REQUEST = ("cache_hits", "cache_misses", "batches", "vectorized_solves", "scalar_solves")
PER_EPOCH = ("routing_rebuilds", "forecast_cells", "sweep_errors")


def _report_phases(ledger: Ledger) -> None:
    for label, phase in ledger.phases:
        c = phase.counters
        requests = max(1, len(phase.records))
        epochs = max(1, c["publishes"])
        print(
            f"  phase {label:<14} rate={phase.rate:7.2f}/s n={len(phase.records):4d} "
            f"p50={1e3 * phase.quantile(0.5):7.1f}ms p90={1e3 * phase.quantile(0.9):7.1f}ms "
            f"p99={1e3 * phase.quantile(0.99):7.1f}ms failed={phase.failed} "
            f"lag_p99={1e3 * phase.lag_p99_s:.2f}ms backlog max={phase.backlog_max} "
            f"first={phase.backlog_first:.1f} last={phase.backlog_last:.1f}"
            f"{'' if phase.valid else ' INVALID(generator lag)'}"
        )
        print(
            "      counters: "
            + " ".join(f"{k}/R={c[k] / requests:.3g}" for k in PER_REQUEST)
            + " " + " ".join(f"{k}/E={c[k] / epochs:.3g}" for k in PER_EPOCH)
            + f" publishes={c['publishes']} requests/E={requests / epochs:.3g}"
            + f" cpu_ms/R={c['cpu_ms_per_req']:.3g} epochs/s={c['epochs_per_s']:.3g}"
            + f" trailing_gap={c['trailing_gap_s']:.3g}s"
        )


def run_untraced(ledger: Ledger) -> dict:
    setups, nominals = [], []
    for _ in range(EXTRA_SETUPS):
        server = Server(ledger.spec)
        setups.append(server.setup_s)
        server.stop()
    servers = ledger.meta["servers"]
    for index in range(servers):
        server = ledger.serve()
        setups.append(server.setup_s)
        try:
            nominal = ledger.nominal(server)
            if not nominal.valid:  # reported as INVALID; measure once more
                nominal = ledger.nominal(server)
            if not nominal.valid:
                fail(f"nominal phase invalid: generator lag p99 {1e3 * nominal.lag_p99_s:.2f} ms")
            nominals.append(nominal)
            if index == servers - 1:
                max_qps = ledger.search(server, nominal, _service_slo(server))
        finally:
            server.stop()
    _report_phases(ledger)
    pooled = ledger.loadgen.Phase.pool(nominals)
    print(f"  pooled nominal phases: {len(pooled.records)} requests")
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * pooled.quantile(0.5),
        "latency_p90_ms": 1e3 * pooled.quantile(0.9),
        "max_qps_at_slo": max_qps,
        # Pooled over the servers' nominal phases, so it covers most of
        # the run and a spell of the host running slow moves it less.
        "epochs_per_s": epoch_rate(
            sum(p.counters["epochs"] for p in nominals),
            sum(p.counters["epoch_span_s"] for p in nominals),
        ),
    }


def run_traced(ledger: Ledger) -> tuple[dict, dict, int]:
    """The nominal phase untraced, then traced: per-layer metrics."""
    import layers

    server = ledger.serve()
    try:
        plain = ledger.nominal(server)
    finally:
        server.stop()
    spans_path = SCRATCH / f"spans-{os.getpid()}.json"
    server = ledger.serve(spans_path)
    try:
        traced = ledger.nominal(server)
    finally:
        server.stop()
    trace = json.loads(spans_path.read_text())
    spans_path.unlink()
    report = layers.attribute(trace, traced)
    metrics = report["metrics"]
    counters = traced.counters
    lookups = counters["cache_hits"] + counters["cache_misses"]
    metrics.update({
        "service.core.batch_size": (
            counters["queries_batched"] / counters["batches"] if counters["batches"] else 0.0
        ),
        "service.cpu_ms_per_req": plain.counters["cpu_ms_per_req"],
        "core.cache_hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "net.routing.rebuilds": counters["routing_rebuilds"],
        "trace.overhead_p50_ms": 1e3 * (traced.quantile(0.5) - plain.quantile(0.5)),
        "loadgen.lag_ms_p99": 1e3 * max(plain.lag_p99_s, traced.lag_p99_s),
        "loadgen.backlog_max": max(plain.backlog_max, traced.backlog_max),
    })
    if ledger.workload.startswith("fed"):
        # The federation's cache report sums its cells' caches.
        metrics["federation.cache_hit_ratio"] = metrics["core.cache_hit_ratio"]
    _report_phases(ledger)
    return metrics, report["self_ms_per_request"], len(traced.records)


def measure(workload: str, seed: int, seconds: float, trace: bool, meta: dict):
    """One run: the end-to-end metrics, or with *trace* the per-layer ones."""
    ledger = Ledger(workload, seed, seconds, meta)
    print(f"workload {workload} seed {seed}: nominal {ledger.meta['nominal_qps']} req/s"
          f"{', traced' if trace else ''}")
    if trace:
        values, table, requests = run_traced(ledger)
        print(f"  self time per request along the blocking path (ms, {requests} requests;"
              f" unattributed = client latency minus all of these):")
        for name, value in sorted(table.items(), key=lambda item: -item[1]):
            print(f"    {name:<40} {value:10.4f}")
        units = {name: m["unit"] for name, m in meta["per_layer"].items()}
    else:
        values = run_untraced(ledger)
        units = {name: m["unit"] for name, m in meta["end_to_end"].items()}
        values["failed_frac"] = ledger.failed / max(1, ledger.attempted)
        for name, m in meta["reported"].items():
            print(f"  {name:<48} {values[name]:14.4f} {m['unit']}  (reported, not gated)")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {ledger.failed} failed of {ledger.attempted} attempted, all phases")
    print(f"  answers with q1/median/q3 columns over an access link (marginal "
          f"quantiles, see checks.py): {ledger.oversubscribed}")
    for error in ledger.errors[:5]:
        print(f"  failed request: {error}")
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Remos query ledger")
    parser.add_argument("--workload", help="one workload of perfbench/spec.json")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=45.0,
        help="measuring time of one run; sets the nominal phase lengths",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no Remos sources under {ROOT / 'src'}; run from the repository root")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    meta = json.loads((HERE / "spec.json").read_text())
    if args.all:
        runs = [(w, trace) for w in meta["workloads"] for trace in (False, True)]
    elif args.workload in meta["workloads"]:
        runs = [(args.workload, bool(args.trace))]
    else:
        fail(f"--workload must be one of {sorted(meta['workloads'])}")
    os.sched_setaffinity(0, LOADGEN_CPUS)
    sys.setswitchinterval(0.0005)  # wake a due sender promptly
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload, trace in runs:
        ledger, values = measure(workload, args.seed, args.seconds, trace, meta)
        attempted += ledger.attempted
        failed += ledger.failed
        correct = correct and ledger.hard_failed == 0 and ledger.attempted > 0
        prefix = f"{workload}/" if args.all else ""
        metrics.update({prefix + name: value for name, value in values.items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
