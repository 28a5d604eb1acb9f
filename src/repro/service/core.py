"""RemosService: the sweep scheduler and thread-safe query front end.

Two layers live here:

* :class:`QueryFrontEnd` — the *reader* side: snapshot-isolated query
  methods, the coalescing queue, latency SLOs, the slow-query log,
  health and telemetry.  It owns no data source of its own — something
  else must publish snapshots through ``self.remos``.  The multi-process
  worker replicas (:mod:`repro.service.workers`) subclass it directly.
* :class:`RemosService` — the full single-process service: a front end
  plus the background **sweeper** thread that owns every mutation
  (advance the engine, refresh each cell, merge, publish).  It is the
  only writer loop; a federation service is the same loop over more
  cells.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

from repro import obs
from repro.collector import Cell, Collector
from repro.collector.cell import bring_up, refresh_cells
from repro.core import Flow, FlowInfoResult, FlowQuery, Remos, Timeframe
from repro.core.snapshot import Snapshot
from repro.obs.slo import SLORegistry
from repro.obs.slowlog import SlowQueryLog
from repro.service.admission import AdmissionController
from repro.sim import Engine
from repro.util.errors import ConfigurationError, QueryError

_log = obs.get_logger("repro.service")


class _Pending:
    """One waiting flow_info request inside the coalescing queue."""

    __slots__ = ("query", "timeframe", "result", "error", "done", "leader_span")

    def __init__(self, query: FlowQuery, timeframe: Timeframe):
        self.query = query
        self.timeframe = timeframe
        self.result: FlowInfoResult | None = None
        self.error: BaseException | None = None
        self.done = False
        #: ``(trace_id, span_id)`` of the batch span that answered this
        #: request — followers link it from their own trace.
        self.leader_span: tuple[str, str] | None = None

    def outcome(self) -> FlowInfoResult:
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class QueryFrontEnd:
    """The thread-safe reader side of a Remos service.

    Query methods are safe to call from any number of threads; each runs
    against the snapshot current at its start (``remos.snapshot()``
    exposes it for differential testing).  Concurrent ``flow_info``
    requests sharing a timeframe are coalesced into shared batches.

    Subclasses provide the snapshot *source*: :class:`RemosService`
    publishes from its own sweeper thread, a worker replica publishes
    epochs received from the parent process.

    Parameters
    ----------
    source:
        Where answers come from: a :class:`Collector` (wrapped in a fresh
        Remos facade), a :class:`~repro.collector.cell.Cell` (its own
        facade is used, so the cell's epochs are the service's epochs), or
        any already-built facade exposing ``flow_info_batch`` — a
        :class:`~repro.core.api.Remos` or a
        :class:`~repro.federation.api.FederatedRemos`.
    max_batch:
        Most flow_info requests answered by one coalesced batch.
    workers:
        Size of the query thread pool (``repro serve --threads``): the
        HTTP door answers every request on it (:meth:`submit`), so at
        most this many requests run at once per process.
    slow_query_threshold:
        Wall-clock seconds above which a completed query is recorded in
        the slow-query log (0 records everything; see
        :class:`~repro.obs.slowlog.SlowQueryLog`).
    slow_log_capacity:
        Slow-query ring size.
    max_epoch_age:
        Freshness SLO: wall-clock seconds a published epoch may age before
        :meth:`health` (and HTTP ``/healthz``) reports the service
        unhealthy with an ``epoch_stale`` reason.
    max_sweep_seconds:
        Freshness SLO: the longest a single sweep (or epoch installation)
        may take before health degrades with a ``sweep_slow`` reason.
    admission_mode:
        Predictive admission control at the HTTP boundary: ``"off"``
        (default), ``"degrade"`` (FUTURE queries fall back to CURRENT
        under predicted overload) or ``"shed"`` (503 + ``Retry-After``).
        See :class:`~repro.service.admission.AdmissionController`.
    admission_threshold_qps:
        Predicted request rate above which the admission mode kicks in.
    admission_horizon:
        Seconds ahead the admission controller forecasts its own load.
    admission_retry_after:
        ``Retry-After`` seconds suggested to shed callers.
    """

    def __init__(
        self,
        source: Collector,
        max_batch: int = 8,
        workers: int = 4,
        slow_query_threshold: float = 0.25,
        slow_log_capacity: int = 128,
        max_epoch_age: float = 10.0,
        max_sweep_seconds: float = 5.0,
        admission_mode: str = "off",
        admission_threshold_qps: float = 200.0,
        admission_horizon: float = 5.0,
        admission_retry_after: float = 1.0,
    ):
        if max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self._max_batch = max_batch
        self._workers = workers
        #: Queries never publish: the snapshot source is the single writer.
        if isinstance(source, Cell):
            self.remos = source.remos
        elif hasattr(source, "flow_info_batch") and hasattr(source, "publisher"):
            self.remos = source  # an already-built (possibly federated) facade
        else:
            self.remos = Remos(source, auto_publish=False)
        self._executor: ThreadPoolExecutor | None = None
        self._started = False
        # Coalescing state, all guarded by _cond.
        self._cond = threading.Condition()
        self._queue: dict[Timeframe, list[_Pending]] = {}
        self._leader_busy = False
        # Service counters (leader/sweeper-only writers).
        self.sweeps = 0
        self.publishes = 0
        self.batches_executed = 0
        self.queries_batched = 0
        self.sweep_errors = 0
        # Request-scoped observability: slow-query forensics + declared SLOs.
        self.slowlog = SlowQueryLog(
            threshold_seconds=slow_query_threshold, capacity=slow_log_capacity
        )
        self.slos = SLORegistry()
        self.max_epoch_age = max_epoch_age
        self.max_sweep_seconds = max_sweep_seconds
        #: Predictive backpressure, consulted by the HTTP app layer.
        self.admission = AdmissionController(
            mode=admission_mode,
            threshold_qps=admission_threshold_qps,
            horizon=admission_horizon,
            retry_after=admission_retry_after,
        )
        self.slos.declare_latency("flow_info", threshold_seconds=0.5, target=0.99)
        self.slos.declare_latency("graph", threshold_seconds=0.5, target=0.99)
        self.slos.declare_latency("node", threshold_seconds=0.25, target=0.99)
        self.last_sweep_seconds: float | None = None
        self.last_sweep_at: float | None = None
        # Telemetry-only sweep schedule; RemosService overwrites these.
        self._sweep_interval: float | None = None
        self._sim_step: float | None = None

    def _activate(self) -> None:
        """Register gauges/monitors and open the query thread pool.

        Called once by subclasses after the first snapshot exists and —
        in multi-process mode — strictly *after* any fork, so the worker
        never inherits a half-built executor.
        """
        self._publish_service_gauges()
        self._register_slo_monitors()
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="remos-query"
        )
        self._started = True

    def front_end_config(self) -> dict:
        """The constructor kwargs that rebuild an equivalent front end.

        The multi-process front door uses this to give every worker
        replica the same batching, forensics and freshness settings as
        the parent service.
        """
        return {
            "max_batch": self._max_batch,
            "workers": self._workers,
            "slow_query_threshold": self.slowlog.threshold_seconds,
            "slow_log_capacity": self.slowlog.capacity,
            "max_epoch_age": self.max_epoch_age,
            "max_sweep_seconds": self.max_sweep_seconds,
            "admission_mode": self.admission.mode,
            "admission_threshold_qps": self.admission.threshold_qps,
            "admission_horizon": self.admission.horizon,
            "admission_retry_after": self.admission.retry_after,
        }

    @property
    def running(self) -> bool:
        return self._started

    def submit(self, fn, *args) -> Future:
        """Run ``fn(*args)`` on the query thread pool.

        Raises :class:`RuntimeError` once the service is stopped (the
        pool is gone, or shutting down).
        """
        executor = self._executor
        if executor is None:
            raise RuntimeError("service is stopped")
        return executor.submit(fn, *args)

    def _deactivate(self) -> None:
        """Close the query thread pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    def _register_slo_monitors(self) -> None:
        """Declare the freshness monitors health() answers from."""
        publisher = self.remos.publisher

        def epoch_age() -> float | None:
            snapshot = publisher.current()
            return None if snapshot is None else snapshot.age_seconds()

        self.slos.add_monitor(
            "epoch_age",
            maximum=self.max_epoch_age,
            probe=epoch_age,
            reason="epoch_stale",
        )
        self.slos.add_monitor(
            "sweep_duration",
            maximum=self.max_sweep_seconds,
            probe=lambda: self.last_sweep_seconds,
            reason="sweep_slow",
        )
        self.slos.publish_gauges()

    def _publish_service_gauges(self) -> None:
        registry = obs.get_registry()
        if not obs.metrics_enabled():
            return
        publisher = self.remos.publisher
        registry.gauge(
            "remos_snapshot_age_seconds",
            help="Wall-clock seconds since the current snapshot was published",
        ).set_function(
            lambda: (
                0.0
                if publisher.current() is None
                else publisher.current().age_seconds()
            )
        )

    # -- queries (reader side) ---------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The snapshot queries are currently answered from."""
        return self.remos.snapshot()

    def flow_info(
        self,
        fixed_flows: list[Flow] | None = None,
        variable_flows: list[Flow] | None = None,
        independent_flows: list[Flow] | None = None,
        timeframe: Timeframe | None = None,
    ) -> FlowInfoResult:
        """A flow query, coalesced with concurrent ones when possible.

        Requests sharing a timeframe that arrive while another is being
        answered are drained by one leader into a single
        :meth:`~repro.core.api.Remos.flow_info_batch` call — identical
        answers, shared per-epoch work.  A solitary request degenerates to
        a batch of one.

        Request-scoped observability: the whole call (queueing, waiting,
        leading or following) runs under a ``service.flow_info`` span; a
        *follower* whose answer was computed by another thread's batch
        records a **span link** to the leader's ``service.flow_info_batch``
        span, so the trace explains where the time actually went.  Every
        completed call feeds the ``flow_info`` latency SLO and — above the
        slow-query threshold — the slow-query log, with the full span
        tree, arguments, epoch stamps and cache-hit profile.
        """
        timeframe = timeframe or Timeframe.current()
        query = FlowQuery(
            fixed=tuple(fixed_flows or ()),
            variable=tuple(variable_flows or ()),
            independent=tuple(independent_flows or ()),
        )
        pending = _Pending(query, timeframe)
        shard = self._shard_of_query(query)
        args = self._flow_args(query, timeframe)
        with self.observe_query("flow_info", "service.flow_info", args, shard=shard) as sp:
            result = self._coalesce(pending)
            if sp:
                followed = (
                    pending.leader_span is not None
                    and pending.leader_span[0] != sp.trace_id
                )
                sp.set(flows=len(query.flows), coalesced=followed)
                if shard is not None:
                    sp.set(shard=shard)
                if followed:
                    sp.add_link(*pending.leader_span, role="coalescing_leader")
            return result

    def _coalesce(self, pending: _Pending) -> FlowInfoResult:
        """The leader/follower protocol: wait, or drain a group and lead."""
        with self._cond:
            self._queue.setdefault(pending.timeframe, []).append(pending)
        while True:
            with self._cond:
                while not pending.done and self._leader_busy:
                    self._cond.wait(timeout=0.5)
                if pending.done:
                    return pending.outcome()
                self._leader_busy = True
                group = self._queue.get(pending.timeframe, [])
                take = group[: self._max_batch]
                rest = group[self._max_batch :]
                if rest:
                    self._queue[pending.timeframe] = rest
                else:
                    self._queue.pop(pending.timeframe, None)
            try:
                if take:
                    self._execute_group(take)
            finally:
                with self._cond:
                    self._leader_busy = False
                    self._cond.notify_all()
            if pending.done:
                return pending.outcome()

    def _shard_of_query(self, query: FlowQuery) -> str | None:
        """The shard a flow query lands on, for span/slowlog stamping.

        None outside federations (the facade has no shard routing);
        ``"cross"`` when the endpoints span shards or are unknown (the
        query itself will raise the precise error).
        """
        home_shard = getattr(self.remos, "home_shard", None)
        if home_shard is None:
            return None
        endpoints = []
        for flow in query.flows:
            endpoints.append(flow.src)
            endpoints.extend(flow.dsts if hasattr(flow, "dsts") else (flow.dst,))
        return home_shard(endpoints) or "cross"

    @staticmethod
    def _flow_args(query: FlowQuery, timeframe: Timeframe) -> dict:
        """The request arguments, JSON-ready, for slow-query forensics."""

        def specs(flows: tuple[Flow, ...]) -> list[dict]:
            out = []
            for flow in flows:
                spec = {"src": flow.src, "dst": flow.dst, "requested": flow.requested}
                if flow.cap != float("inf"):
                    spec["cap"] = flow.cap
                if flow.name:
                    spec["name"] = flow.name
                out.append(spec)
            return out

        return {
            "fixed": specs(query.fixed),
            "variable": specs(query.variable),
            "independent": specs(query.independent),
            "timeframe": str(timeframe),
        }

    @contextmanager
    def observe_query(
        self,
        endpoint: str,
        span_name: str,
        args: dict,
        shard: str | None = None,
        settle: bool = True,
        status: int | None = None,
    ):
        """Run one query under a *span_name* span, then account for it.

        The completed query settles the *endpoint* latency SLO (unless
        *settle* is false: the HTTP layer settles the endpoints it times
        itself) and is offered to the slow-query log with its span tree,
        arguments, epoch stamps and cache-hit profile; *status* is
        recorded when the query succeeds.  Yields the span (falsy when
        tracing is off).
        """
        span = obs.span(span_name)
        stats = self.remos.cache_stats
        hits, misses = stats.hits, stats.misses
        started = time.perf_counter()
        error: BaseException | None = None
        try:
            with span as sp:
                yield sp
        except BaseException as exc:
            error = exc
            raise
        finally:
            duration = time.perf_counter() - started
            if settle:
                self.slos.record_request(endpoint, duration)
            if duration < self.slowlog.threshold_seconds and error is None:
                self.slowlog.observe(endpoint, duration)  # count it, record nothing
            else:
                if error is not None:
                    args = {**args, "error": f"{type(error).__name__}: {error}"}
                    status = None
                traced = isinstance(span, obs.Span)
                context = obs.current_context()
                if context is None:
                    trace_id = span.trace_id if traced else None
                else:
                    trace_id = context.trace_id
                snapshot = self.remos.publisher.current()
                self.slowlog.observe(
                    endpoint,
                    duration,
                    trace_id=trace_id,
                    args=args,
                    epoch=None if snapshot is None else snapshot.epoch,
                    generation=None if snapshot is None else snapshot.generation,
                    structure_generation=(
                        None if snapshot is None else snapshot.structure_generation
                    ),
                    cache_hits=stats.hits - hits,
                    cache_misses=stats.misses - misses,
                    span_tree=span.tree() if traced else None,
                    shard=shard,
                    status=status,
                )

    def _execute_group(self, group: list[_Pending]) -> None:
        """Answer one drained group with a single batched query."""
        timeframe = group[0].timeframe
        with obs.span("service.flow_info_batch") as sp:
            if sp:
                # Stamp the batch span's identity on every member *before*
                # executing, so even a poisoned batch leaves followers a
                # link to the span that tried.
                sp.set(batch=len(group))
                identity = (sp.trace_id, sp.span_id)
                for p in group:
                    p.leader_span = identity
            try:
                results = self.remos.flow_info_batch(
                    [p.query for p in group], timeframe
                )
            except QueryError:
                # One invalid scenario poisons a whole batch; retry each
                # request alone so the error lands only where it belongs.
                for p in group:
                    try:
                        p.result = self.remos.flow_info_batch([p.query], timeframe)[0]
                    except BaseException as exc:
                        p.error = exc
                    p.done = True
            except BaseException as exc:
                for p in group:
                    p.error = exc
                    p.done = True
            else:
                for p, result in zip(group, results):
                    p.result = result
                    p.done = True
        self.batches_executed += 1
        self.queries_batched += len(group)
        obs.inc(
            "remos_service_batches_total",
            help="Coalesced flow_info batches executed by the query service",
        )
        obs.inc(
            "remos_service_batched_queries_total",
            amount=len(group),
            help="flow_info requests answered through coalesced batches",
        )

    def get_graph(self, nodes: list[str], timeframe: Timeframe | None = None):
        """Delegate to :meth:`Remos.get_graph` (snapshot-isolated)."""
        return self.remos.get_graph(nodes, timeframe)

    def node_info(self, host: str, timeframe: Timeframe | None = None):
        """Delegate to :meth:`Remos.node_info` (snapshot-isolated)."""
        return self.remos.node_info(host, timeframe)

    def check_admission(self, fixed_flows: list[Flow], timeframe: Timeframe | None = None):
        """Delegate to :meth:`Remos.check_admission` (snapshot-isolated)."""
        return self.remos.check_admission(fixed_flows, timeframe)

    # -- telemetry ---------------------------------------------------------------

    def health(self) -> dict:
        """The machine-readable health verdict behind HTTP ``/healthz``.

        ``status`` is ``"ok"``, ``"degraded"`` (a freshness monitor is
        blown — serve a 503) or ``"stopped"``; ``reasons`` lists every
        failing monitor with its reading and bound.
        """
        healthy, reasons = self.slos.health()
        if not self.running:
            healthy = False
            reasons = [
                {"monitor": "service", "healthy": False, "reason": "stopped"}
            ] + reasons
            status = "stopped"
        else:
            status = "ok" if healthy else "degraded"
        snapshot = self.remos.publisher.current()
        return {
            "status": status,
            "healthy": healthy,
            "reasons": reasons,
            "epoch": 0 if snapshot is None else snapshot.epoch,
            "epoch_age_seconds": (
                None if snapshot is None else snapshot.age_seconds()
            ),
        }

    def telemetry(self) -> dict:
        """The facade's telemetry plus service, SLO and slow-log sections."""
        report = self.remos.telemetry()
        report["service"] = {
            "running": self.running,
            "sweeps": self.sweeps,
            "sweep_errors": self.sweep_errors,
            "publishes": self.publishes,
            "batches_executed": self.batches_executed,
            "queries_batched": self.queries_batched,
            "sweep_interval": self._sweep_interval,
            "sim_step": self._sim_step,
            "max_batch": self._max_batch,
            "last_sweep_seconds": self.last_sweep_seconds,
        }
        report["slo"] = self.slos.to_dict()
        report["admission"] = self.admission.to_dict()
        slowlog = self.slowlog.to_dict(limit=0)
        slowlog.pop("records")
        report["slowlog"] = slowlog
        return report

    def metrics_text(self) -> str:
        """The Prometheus exposition of the global registry."""
        return obs.get_registry().to_prometheus()


class RemosService(QueryFrontEnd):
    """A snapshot-isolated Remos query service: readers plus one writer.

    One background **sweeper** thread owns every mutation: it steps the
    simulation engine, refreshes the service's cells in order (each
    publishes an immutable snapshot), then runs the optional merge step.
    A single cell sweeps ``(cell,)``; a federation
    (:class:`~repro.federation.service.FederationService`) sweeps its
    region cells, then the backbone, then merges the aggregation tree.
    The reader side is inherited from :class:`QueryFrontEnd`.

    Parameters
    ----------
    collector:
        The collector (or :class:`CollectorMaster`) to serve queries from,
        or an already-wrapped :class:`~repro.collector.cell.Cell`.  A bare
        collector is wrapped in ``Cell("root", ...)`` — a single-cell
        deployment is just a federation of one.  With *cells* given, any
        facade :class:`QueryFrontEnd` accepts.
    env:
        The simulation engine the sweeper advances.  Only the sweeper
        thread may run it.
    sweep_interval:
        Wall-clock seconds between sweeper iterations.
    sim_step:
        Simulated seconds advanced per sweeper iteration.
    cells:
        The cells each sweep refreshes, in order (default: the one cell
        *collector* names).
    merge:
        Called after every refresh pass (default: nothing).
    **front_end:
        Everything :class:`QueryFrontEnd` accepts (``max_batch``,
        ``workers``, ``slow_query_threshold``, ``slow_log_capacity``,
        ``max_epoch_age``, ``max_sweep_seconds``, ``admission_mode``,
        ``admission_threshold_qps``, ``admission_horizon``,
        ``admission_retry_after``).
    """

    #: Thread name of the single writer.
    sweeper_name = "remos-sweeper"

    def __init__(
        self,
        collector: Collector,
        env: Engine,
        sweep_interval: float = 0.02,
        sim_step: float = 1.0,
        cells: tuple[Cell, ...] | None = None,
        merge=None,
        **front_end,
    ):
        if cells is None:
            collector = collector if isinstance(collector, Cell) else Cell("root", collector)
            cells = (collector,)
        super().__init__(collector, **front_end)
        self._cells = tuple(cells)
        self._merge = merge
        self._env = env
        self._sweep_interval = sweep_interval
        self._sim_step = sim_step
        self._stop_event = threading.Event()
        self._sweeper: threading.Thread | None = None
        self._prepared = False

    @classmethod
    def from_world(cls, world, **kwargs) -> "RemosService":
        """Build a service over a testbed :class:`~repro.testbed.World`."""
        if world.collector is None:
            raise ConfigurationError("world has no collector")
        return cls(world.collector, world.env, **kwargs)

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, warmup: float = 0.0) -> "RemosService":
        """Run every cell to readiness (+ *warmup* simulated seconds) and
        publish the first snapshot — **without starting any thread**.

        The multi-process front door calls this before forking its
        workers so the fork happens while the parent is still
        single-threaded; :meth:`start` finishes the job (idempotently)
        afterwards.
        """
        if self._prepared:
            return self
        bring_up(self._env, self._cells, warmup)
        refresh_cells(self._cells, self._merge)
        self.publishes = self.remos.publisher.publishes
        self._prepared = True
        return self

    def start(self, warmup: float = 0.0) -> "RemosService":
        """Prepare (if not already), then start the sweeper thread."""
        if self._started:
            return self
        self.prepare(warmup)
        self._activate()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name=self.sweeper_name, daemon=True
        )
        self._sweeper.start()
        _log.info(
            "service_started",
            cells=len(self._cells),
            sweep_interval=self._sweep_interval,
        )
        return self

    def stop(self) -> None:
        """Stop the sweeper, the query pool and every cell (idempotent)."""
        if not self._started:
            return
        self._stop_event.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
            self._sweeper = None
        self._deactivate()
        for cell in self._cells:
            cell.stop()
        self._stop_event = threading.Event()
        self._prepared = False
        _log.info("service_stopped", sweeps=self.sweeps, publishes=self.publishes)

    def __enter__(self) -> "RemosService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def _sweep_loop(self) -> None:
        """The single writer: advance, refresh each cell, merge, repeat."""
        while not self._stop_event.wait(self._sweep_interval):
            started = time.perf_counter()
            try:
                self._env.run(until=self._env.now + self._sim_step)
                refresh_cells(self._cells, self._merge)
                self.sweeps += 1
                self.publishes = self.remos.publisher.publishes
                obs.inc(
                    "remos_service_sweeps_total",
                    help="Sweeper iterations completed by the query service",
                )
            except Exception as exc:
                # Keep serving the last good snapshot; a broken sweep must
                # never take the readers down.
                self.sweep_errors += 1
                _log.error("sweep_failed", error=f"{type(exc).__name__}: {exc}")
            finally:
                # Sweep-duration telemetry feeds the freshness SLO monitor:
                # a sweeper that still runs but takes too long is as much a
                # staleness risk as one that died.
                elapsed = time.perf_counter() - started
                self.last_sweep_seconds = elapsed
                self.last_sweep_at = time.time()
                obs.observe(
                    "remos_sweep_seconds",
                    elapsed,
                    help="Wall-clock seconds per sweeper iteration",
                )
