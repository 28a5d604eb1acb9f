"""FederatedRemos: the existing query API over many cells.

The facade implements the same surface as :class:`~repro.core.api.Remos`
(``get_graph`` / ``flow_info`` / ``flow_info_batch`` / ``node_info`` /
``check_admission`` / ``telemetry``) against a
:class:`~repro.collector.cell.ShardRegistry` of cells and an
:class:`~repro.federation.aggregator.Aggregator` tree.

Answer ladder (the discipline the differential suite enforces):

* **Intra-shard** — every endpoint of the query lives in one cell: the
  query is *delegated* to that cell's own Remos facade, so the answer is
  bit-identical to a single-cell oracle reading the same measurements.
* **Cross-shard** — endpoints span cells: the answer is *composed* from
  exact intra-shard segments (each endpoint's cell resolves its own
  routes and capacities) joined by summary edges whose per-quantile
  availability is the element-wise minimum over the bundle's member WAN
  links.  A single flow cannot use more than one member at once and the
  summary does not know which member carries it, so the minimum is the
  sound bound: composed answers never overestimate what the single-cell
  oracle would grant the same flow queried alone.

Cross-shard queries touch only the cells hosting queried endpoints plus
the backbone — per-query cost is bounded by the summary size and the
query's own footprint, never by the total host count.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Hashable

from repro import obs
from repro.collector.cell import Cell, ShardRegistry, refresh_cells
from repro.core import snaparrays as _snaparrays
from repro.core.flows import Flow, FlowInfoResult, FlowQuery, MulticastFlow
from repro.core.graph import RemosEdge, RemosGraph, RemosNode
from repro.core.modeler import AUTO_COLLAPSE_THRESHOLD, Modeler
from repro.core.timeframe import Timeframe
from repro.fairshare import FlowRequest, admission_report
from repro.fairshare.vectorized import KeySpace
from repro.federation.aggregator import Aggregator
from repro.federation.summary import FederationSummary, SummaryEdge
from repro.stats import StatMeasure
from repro.util.errors import CollectorError, QueryError

_log = obs.get_logger("repro.federation.api")

#: Resource-key namespace for summary edges in composed allocations:
#: ``("fed", edge.a, edge.b, crossing_direction)``.
FED_RESOURCE = "fed"


class FederationCacheStats:
    """Read-only aggregate over every member cell's cache counters.

    Duck-compatible with the :class:`~repro.core.cachestats.CacheStats`
    readings the service front end and telemetry consume; query counts
    and wall time are recorded here (per facade), everything else sums
    over the cells and backbones live.
    """

    def __init__(self, members: "tuple[Cell, ...]"):
        self._members = members
        self._lock = threading.Lock()
        self.queries = 0
        self.query_time = 0.0

    def _sum(self, attribute: str) -> int:
        return sum(getattr(cell.remos.cache_stats, attribute) for cell in self._members)

    @property
    def hits(self) -> int:
        return self._sum("hits")

    @property
    def misses(self) -> int:
        return self._sum("misses")

    @property
    def invalidations(self) -> int:
        return self._sum("invalidations")

    @property
    def partial_invalidations(self) -> int:
        return self._sum("partial_invalidations")

    @property
    def entries_evicted(self) -> int:
        return self._sum("entries_evicted")

    @property
    def routing_rebuilds(self) -> int:
        return self._sum("routing_rebuilds")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mean_query_time(self) -> float:
        return self.query_time / self.queries if self.queries else 0.0

    def record_query(self, seconds: float) -> None:
        with self._lock:
            self.queries += 1
            self.query_time += seconds

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "partial_invalidations": self.partial_invalidations,
            "entries_evicted": self.entries_evicted,
            "routing_rebuilds": self.routing_rebuilds,
            "queries": self.queries,
            "query_time": self.query_time,
            "mean_query_time": self.mean_query_time,
            "per_cell": {
                cell.name: cell.remos.cache_stats.to_dict() for cell in self._members
            },
        }


class _QueryPin(_snaparrays.FlowSource):
    """Everything one cross-shard query reads, pinned at query start.

    Cells publish concurrently with queries; pinning each involved cell's
    snapshot (and the federation summary) once keeps a single answer from
    straddling epochs.  Lazy: only the shards the query actually touches
    are pinned.

    Also the cross-shard plan and price steps of the flow pipeline
    (:mod:`repro.core.snaparrays`): a flow's plan is its composed
    footprint (:meth:`FederatedRemos._plan_flow`), and a resource is
    priced by the shard whose capacity view knows it, or — for a summary
    edge — by the edge's member-minimum availability.
    """

    def __init__(self, remos: "FederatedRemos", timeframe: Timeframe):
        super().__init__(KeySpace())
        self._remos = remos
        self.timeframe = timeframe
        self.summary: FederationSummary = remos._summary()
        self._modelers: dict[str, Modeler] = {}
        self._backbone_modelers: dict[str, Modeler] = {}
        self._capacity_views: dict[tuple[str, str], object] = {}
        self._edge_measures: dict[tuple[str, str, str], StatMeasure] = {}
        self._gateway_shard: dict[str, str] | None = None
        #: Summary-edge resource key -> (edge, from_shard), from the plans.
        self._edge_keys: dict[Hashable, tuple[SummaryEdge, str]] = {}
        #: Shards whose segments the plans cross, in first-seen order.
        self._shards: dict[str, None] = {}
        self._key_shard: dict[Hashable, str] = {}

    def modeler(self, shard: str) -> Modeler:
        modeler = self._modelers.get(shard)
        if modeler is None:
            modeler = self._remos.registry.cell(shard).snapshot().modeler
            self._modelers[shard] = modeler
        return modeler

    def backbone_modeler(self, owner: str) -> Modeler:
        modeler = self._backbone_modelers.get(owner)
        if modeler is None:
            backbone = self._remos._backbones.get(owner)
            if backbone is None:
                raise QueryError(f"no backbone cell for aggregator {owner!r}")
            modeler = backbone.snapshot().modeler
            self._backbone_modelers[owner] = modeler
        return modeler

    def capacity_view(self, shard: str, level: str):
        key = (shard, level)
        view = self._capacity_views.get(key)
        if view is None:
            view = self.modeler(shard).capacity_view(self.timeframe, quantile=level)
            self._capacity_views[key] = view
        return view

    def edge_measure(self, edge: SummaryEdge, from_shard: str) -> StatMeasure:
        """Availability of a summary edge crossed *leaving* ``from_shard``.

        Element-wise :meth:`StatMeasure.min_of` over the bundle members'
        live availability in the crossing direction — the conservative
        choice, since a single flow uses exactly one (unknown) member.
        """
        cache_key = (edge.a, edge.b, from_shard)
        measure = self._edge_measures.get(cache_key)
        if measure is not None:
            return measure
        modeler = self.backbone_modeler(edge.owner)
        topology = modeler.view.topology
        if self._gateway_shard is None:
            self._gateway_shard = {
                gateway: summary.shard
                for summary in self.summary.cells.values()
                for gateway in summary.gateways
            }
        for member in edge.members:
            link = topology.link(member)
            if self._gateway_shard.get(link.a) == from_shard:
                direction = link.direction(link.a, link.b)
            else:
                direction = link.direction(link.b, link.a)
            sample = modeler.available_bandwidth(direction, self.timeframe)
            measure = (
                sample if measure is None else StatMeasure.min_of(measure, sample)
            )
        assert measure is not None  # bundles always have members
        self._edge_measures[cache_key] = measure
        return measure

    def register(self, plan: "_FlowPlan") -> None:
        """Note which shards and summary edges price *plan*'s resources."""
        for shard, _hops in plan.intra:
            self._shards.setdefault(shard, None)
        for edge, from_shard in plan.edges:
            self._edge_keys[fed_key(edge, from_shard)] = (edge, from_shard)

    def plan(self, flow) -> _snaparrays.PlannedFlow:
        plan = self._remos._plan_flow(self, flow)
        self.register(plan)
        accuracy = 1.0
        for shard, hops in plan.intra:
            modeler = self.modeler(shard)
            for hop in hops:
                measure = modeler.available_bandwidth(hop, self.timeframe)
                accuracy = min(accuracy, measure.accuracy)
        for edge, from_shard in plan.edges:
            accuracy = min(accuracy, self.edge_measure(edge, from_shard).accuracy)
        return _snaparrays.PlannedFlow(
            self.keyspace.intern_row(plan.resources),
            StatMeasure.constant(plan.latency),
            plan.hop_count,
            accuracy,
        )

    def price(self, level: str, key: Hashable) -> float:
        """Capacity of a registered plan's resource at *level*.

        Refuses a key no involved shard knows: read as unconstrained it
        would make the federated answer less strict than the oracle's.
        """
        crossing = self._edge_keys.get(key)
        if crossing is not None:
            return getattr(self.edge_measure(*crossing), level)
        shard = self._key_shard.get(key)
        if shard is None:
            # Shard views are disjoint, so at most one knows the key.
            for shard in self._shards:
                if key in self.capacity_view(shard, "median"):
                    break
            else:
                raise QueryError(f"no shard can price resource {key!r}")
            self._key_shard[key] = shard
        return self.capacity_view(shard, level)[key]


def fed_key(edge: SummaryEdge, from_shard: str) -> tuple:
    """The directed allocation resource key of a summary edge."""
    return (FED_RESOURCE, edge.a, edge.b, "ab" if from_shard == edge.a else "ba")


class _FlowPlan:
    """One flow's composed resource footprint inside a cross-shard query."""

    __slots__ = ("flow", "resources", "latency", "hop_count", "intra", "edges")

    def __init__(self, flow, resources, latency, hop_count, intra, edges):
        self.flow = flow
        self.resources: tuple[Hashable, ...] = resources
        self.latency: float = latency
        self.hop_count: int = hop_count
        #: (shard, route) pairs for accuracy accounting.
        self.intra: tuple = intra
        #: (edge, from_shard) pairs crossed, in order.
        self.edges: tuple = edges


class FederatedRemos:
    """The query interface over a federation of cells.

    Implements the :class:`~repro.core.api.Remos` query surface; see the
    module docstring for the delegation/composition ladder.  Construction
    is cheap — cells and the aggregator are wired by
    :class:`~repro.federation.world.FederationWorld` or the service.
    """

    def __init__(
        self,
        registry: ShardRegistry,
        aggregator: Aggregator,
        name: str | None = None,
    ):
        self.registry = registry
        self.aggregator = aggregator
        self.name = name or aggregator.name
        self._backbones = aggregator.backbones()
        members = tuple(registry.cells) + tuple(self._backbones.values())
        self.cache_stats = FederationCacheStats(members)
        self.queries_answered = 0
        self._query_count_lock = threading.Lock()
        if obs.metrics_enabled():
            self._publish_gauges()

    # -- publisher plumbing ------------------------------------------------------

    @property
    def publisher(self) -> Aggregator:
        """The aggregator doubles as this facade's snapshot publisher."""
        return self.aggregator

    def publish(self) -> FederationSummary:
        """Re-merge the aggregation tree (writer-side; the sweeper's job)."""
        return self.aggregator.refresh()

    def refresh_all(self) -> FederationSummary:
        """Publish every cell and backbone, then re-merge (test/CLI helper).

        The service's sweeper does this per simulation step; outside the
        service this is the one call that brings the whole federation to
        the current measurement state.
        """
        return refresh_cells(
            (*self.registry.cells, *self._backbones.values()), self.aggregator.refresh
        )

    def snapshot(self) -> FederationSummary:
        """The current federation summary (raises before the first merge)."""
        return self._summary()

    def _summary(self) -> FederationSummary:
        summary = self.aggregator.current()
        if summary is None:
            raise CollectorError(
                "no federation summary published yet; start the service (or "
                "call refresh_all()) before querying"
            )
        return summary

    # -- shared query plumbing ---------------------------------------------------

    def _begin_query(self) -> float:
        with self._query_count_lock:
            self.queries_answered += 1
        return time.perf_counter()

    def _end_query(self, started: float, kind: str) -> None:
        elapsed = time.perf_counter() - started
        self.cache_stats.record_query(elapsed)
        obs.observe(
            "remos_query_seconds",
            elapsed,
            help="Wall-clock seconds per answered Remos query",
            query=kind,
        )

    def home_shard(self, names) -> str | None:
        """The single shard owning every name, or None when they span shards.

        Unknown names also return None — the query path raises the precise
        error when it partitions.
        """
        home: str | None = None
        for name in names:
            shard = self.registry.shard_of(name)
            if shard is None:
                return None
            if home is None:
                home = shard
            elif shard != home:
                return None
        return home

    def _cell(self, shard: str) -> Cell:
        return self.registry.cell(shard)

    def _validate_endpoint(self, pin: _QueryPin, shard: str, endpoint: str) -> None:
        topology = pin.modeler(shard).view.topology
        if not topology.has_node(endpoint):
            raise QueryError(f"unknown flow endpoint {endpoint!r}")
        if not topology.node(endpoint).is_compute:
            raise QueryError(
                f"flow endpoints must be compute nodes; {endpoint!r} is not"
            )

    # -- graph queries -----------------------------------------------------------

    def get_graph(
        self,
        nodes: list[str],
        timeframe: Timeframe | None = None,
        collapse: str = "auto",
    ) -> RemosGraph:
        """``remos_get_graph`` over the federation.

        Intra-shard queries are delegated (bit-identical, any collapse
        mode); cross-shard queries compose per-shard flat detail over the
        queried endpoints plus border gateways with one summary edge per
        crossed shard pair (``collapse`` is ignored there; the returned
        graph's ``collapse`` attribute reads ``"federated"``).
        """
        nodes = list(nodes)
        if not nodes:
            raise QueryError("get_graph requires at least one node")
        timeframe = timeframe or Timeframe.current()
        groups = self.registry.partition(nodes)
        if len(groups) == 1:
            (shard,) = groups
            with obs.span("federation.get_graph") as sp:
                if sp:
                    sp.set(shard=shard, path="delegated")
                return self._cell(shard).remos.get_graph(nodes, timeframe, collapse)
        started = self._begin_query()
        with obs.span("query.get_graph") as sp:
            try:
                if sp:
                    sp.set(shard="cross", shards=len(groups))
                graph = self._federated_graph(groups, nodes, timeframe)
                if sp:
                    sp.set(node_count=len(nodes), collapse=graph.collapse)
                return graph
            finally:
                self._end_query(started, "get_graph")

    def _federated_graph(
        self,
        groups: dict[str, list[str]],
        nodes: list[str],
        timeframe: Timeframe,
    ) -> RemosGraph:
        pin = _QueryPin(self, timeframe)
        graph = RemosGraph(nodes)
        graph.collapse = "federated"
        # Summary edges along every involved pair's summary path; the
        # gateways those edges attach at anchor the per-shard detail below
        # (gateways[0] could be a different border router entirely).
        involved = list(groups)
        added: set[frozenset[str]] = set()
        path_edges: list[SummaryEdge] = []
        anchors: dict[str, set[str]] = {shard: set() for shard in groups}
        for i, shard_a in enumerate(involved):
            for shard_b in involved[i + 1:]:
                for edge in pin.summary.summary_path(shard_a, shard_b):
                    for shard in edge.shards():
                        if shard in anchors:
                            anchors[shard].add(edge.gateway_of(shard))
                    if edge.shards() in added:
                        continue
                    added.add(edge.shards())
                    path_edges.append(edge)
        # Per-involved-shard detail: the cell's own flat logical graph over
        # its queried nodes, anchored at its summary-edge gateways; transit
        # shards contribute just their gateway nodes.
        for shard, shard_nodes in groups.items():
            sub = pin.modeler(shard).logical_graph(
                shard_nodes, timeframe, "flat", include=tuple(sorted(anchors[shard]))
            )
            for node in sub.nodes:
                graph.add_node(node)
            for edge in sub.edges:
                graph.add_edge(edge)
        for edge in path_edges:
            self._add_summary_edge(pin, graph, edge)
        return graph

    def _add_summary_edge(
        self, pin: _QueryPin, graph: RemosGraph, edge: SummaryEdge
    ) -> None:
        backbone_topology = pin.backbone_modeler(edge.owner).view.topology
        for gateway in (edge.gateway_a, edge.gateway_b):
            if not graph.has_node(gateway):
                node = backbone_topology.node(gateway)
                graph.add_node(
                    RemosNode(
                        name=gateway,
                        kind=node.kind,
                        internal_bandwidth=node.internal_bandwidth,
                        compute_speed=node.compute_speed,
                        memory_bytes=node.memory_bytes,
                    )
                )
        graph.add_edge(
            RemosEdge(
                name=f"fed:{edge.a}|{edge.b}",
                a=edge.gateway_a,
                b=edge.gateway_b,
                capacity=edge.capacity,
                latency=edge.latency,
                available={
                    edge.gateway_a: pin.edge_measure(edge, edge.a),
                    edge.gateway_b: pin.edge_measure(edge, edge.b),
                },
                physical_links=edge.members,
            )
        )

    # -- flow queries ------------------------------------------------------------

    def flow_info(
        self,
        fixed_flows: list[Flow] | None = None,
        variable_flows: list[Flow] | None = None,
        independent_flows: list[Flow] | None = None,
        timeframe: Timeframe | None = None,
    ) -> FlowInfoResult:
        """``remos_flow_info`` over the federation (see the answer ladder)."""
        fixed = list(fixed_flows or [])
        variable = list(variable_flows or [])
        independent = list(independent_flows or [])
        if not fixed and not variable and not independent:
            raise QueryError("flow_info requires at least one flow")
        query = FlowQuery(fixed=fixed, variable=variable, independent=independent)
        return self.flow_info_batch([query], timeframe)[0]

    def flow_info_batch(
        self,
        queries: list[FlowQuery],
        timeframe: Timeframe | None = None,
    ) -> list[FlowInfoResult]:
        """Batch scenarios, routed per scenario to the cheapest sound path.

        Scenarios entirely within one shard are delegated to that cell in
        sub-batches (bit-identical to the oracle); scenarios spanning
        shards are composed here.  Results come back in scenario order.
        """
        timeframe = timeframe or Timeframe.current()
        scenarios = list(queries)
        if not scenarios:
            return []
        started = self._begin_query()
        with obs.span("query.flow_info_batch") as sp:
            try:
                results: list[FlowInfoResult | None] = [None] * len(scenarios)
                delegated: dict[str, list[int]] = {}
                cross: list[int] = []
                for index, scenario in enumerate(scenarios):
                    endpoints = [
                        endpoint
                        for flow in scenario.flows
                        for endpoint in _snaparrays.endpoints_of(flow)
                    ]
                    home = self.home_shard(endpoints)
                    if home is None:
                        cross.append(index)
                    else:
                        delegated.setdefault(home, []).append(index)
                for shard, indices in delegated.items():
                    answers = self._cell(shard).remos.flow_info_batch(
                        [scenarios[i] for i in indices], timeframe
                    )
                    for i, answer in zip(indices, answers):
                        results[i] = answer
                if cross:
                    pin = _QueryPin(self, timeframe)
                    for i in cross:
                        results[i] = self._evaluate_cross(pin, scenarios[i], timeframe)
                if sp:
                    sp.set(
                        shard="cross" if cross else next(iter(delegated), "none"),
                        scenario_count=len(scenarios),
                        delegated=len(scenarios) - len(cross),
                        cross=len(cross),
                        flow_count=sum(len(s.flows) for s in scenarios),
                    )
                assert all(result is not None for result in results)
                return results  # type: ignore[return-value]
            finally:
                self._end_query(started, "flow_info_batch")

    def _plan_flow(self, pin: _QueryPin, flow) -> _FlowPlan:
        """Compose one flow's resource footprint across shards."""
        endpoints = _snaparrays.endpoints_of(flow)
        shards = {endpoint: self.registry.shard_of(endpoint) for endpoint in endpoints}
        for endpoint, shard in shards.items():
            if shard is None:
                raise QueryError(f"unknown flow endpoint {endpoint!r}")
            self._validate_endpoint(pin, shard, endpoint)
        distinct = set(shards.values())
        if isinstance(flow, MulticastFlow):
            if len(distinct) > 1:
                raise QueryError(
                    "cross-shard multicast flows are not supported; "
                    f"{flow.src!r} -> {flow.dst} spans shards {sorted(distinct)}"
                )
            (shard,) = distinct
            modeler = pin.modeler(shard)
            resources = modeler.resources_for_tree(flow.src, list(flow.dsts))
            tree = modeler.routing.multicast_tree(flow.src, list(flow.dsts))
            return _FlowPlan(
                flow, resources, tree.max_latency, len(tree.hops),
                ((shard, tree.hops),), (),
            )
        src_shard, dst_shard = shards[flow.src], shards[flow.dst]
        if src_shard == dst_shard:
            modeler = pin.modeler(src_shard)
            resources = modeler.resources_for_route(flow.src, flow.dst)
            route = modeler.routing.route(flow.src, flow.dst)
            return _FlowPlan(
                flow, resources, route.latency, route.hop_count,
                ((src_shard, route.hops),), (),
            )
        # Cross-shard: exact segments to/from the border gateways, summary
        # edges in between.  Transit shards are crossed gateway-to-gateway
        # over the backbone — no intra-transit detail is touched.
        path = pin.summary.summary_path(src_shard, dst_shard)
        src_modeler = pin.modeler(src_shard)
        dst_modeler = pin.modeler(dst_shard)
        # Anchor the intra-shard segments at the border routers the summary
        # path actually attaches to — with several gateways per cell,
        # gateways[0] could disagree with the WAN edge's endpoint and leave
        # the composed footprint missing the inter-gateway hop.
        src_gateway = path[0].gateway_of(src_shard)
        dst_gateway = path[-1].gateway_of(dst_shard)
        src_route = src_modeler.routing.route(flow.src, src_gateway)
        dst_route = dst_modeler.routing.route(dst_gateway, flow.dst)
        resources: list[Hashable] = list(
            src_modeler.resources_for_route(flow.src, src_gateway)
        )
        edges: list[tuple[SummaryEdge, str]] = []
        from_shard = src_shard
        latency = src_route.latency + dst_route.latency
        for edge in path:
            edges.append((edge, from_shard))
            resources.append(fed_key(edge, from_shard))
            latency += edge.latency
            from_shard = edge.other(from_shard)
        resources.extend(dst_modeler.resources_for_route(dst_gateway, flow.dst))
        # Deduplicate while preserving first-reference order (a gateway
        # crossbar could appear in both segments' expansions on loops).
        seen: set[Hashable] = set()
        unique = tuple(r for r in resources if not (r in seen or seen.add(r)))
        return _FlowPlan(
            flow,
            unique,
            latency,
            src_route.hop_count + len(path) + dst_route.hop_count,
            ((src_shard, src_route.hops), (dst_shard, dst_route.hops)),
            tuple(edges),
        )

    def _evaluate_cross(
        self, pin: _QueryPin, scenario: FlowQuery, timeframe: Timeframe
    ) -> FlowInfoResult:
        """Answer one cross-shard scenario through the flow pipeline.

        The pin supplies the plan step (:meth:`_plan_flow`: exact shard
        segments joined by summary edges) and the price step (each shard's
        own capacity view, exact; each summary edge's member minimum,
        conservative); solve and answer are the single cell's.
        """
        return _snaparrays.evaluate_flow_query(
            pin, scenario.fixed, scenario.variable, scenario.independent, timeframe
        )

    # -- node / admission queries ------------------------------------------------

    def node_info(self, host: str, timeframe: Timeframe | None = None):
        """Delegated straight to the owning cell (always intra-shard)."""
        return self.registry.cell_of(host).remos.node_info(host, timeframe)

    def check_admission(
        self,
        fixed_flows: list[Flow],
        timeframe: Timeframe | None = None,
    ):
        """Admission over the federation.

        Intra-shard requests are delegated; requests spanning shards are
        priced against composed median capacities (the conservative WAN
        bound makes a federated "fits" at least as strict as the oracle's).
        """
        timeframe = timeframe or Timeframe.current()
        if not fixed_flows:
            raise QueryError("check_admission requires at least one flow")
        endpoints = [
            endpoint
            for flow in fixed_flows
            for endpoint in _snaparrays.endpoints_of(flow)
        ]
        home = self.home_shard(endpoints)
        if home is not None:
            return self._cell(home).remos.check_admission(fixed_flows, timeframe)
        started = self._begin_query()
        with obs.span("query.check_admission") as sp:
            try:
                pin = _QueryPin(self, timeframe)
                requests = []
                for index, flow in enumerate(fixed_flows):
                    plan = self._plan_flow(pin, flow)
                    pin.register(plan)
                    requests.append(
                        FlowRequest(
                            flow_id=flow.label(index, "fixed"),
                            resources=plan.resources,
                            requested=flow.requested,
                            cap=flow.requested,
                        )
                    )
                # Every key priced (or refused), as the flow pipeline does.
                capacities = {
                    key: pin.price("median", key)
                    for request in requests
                    for key in request.resources
                }
                report = admission_report(capacities, requests)
                if sp:
                    sp.set(shard="cross", flow_count=len(fixed_flows))
                return report
            finally:
                self._end_query(started, "check_admission")

    # -- freshness / telemetry ---------------------------------------------------

    def staleness_seconds(self) -> float | None:
        """The *worst* (largest) staleness across cells, or None."""
        values = [
            staleness
            for cell in self.registry.cells
            if (staleness := cell.staleness_seconds()) is not None
        ]
        return max(values) if values else None

    def _publish_gauges(self) -> None:
        """Register federation gauges (weakly, like the Remos facade)."""
        registry = obs.get_registry()
        ref = weakref.ref(self)

        def reader(fn):
            def read() -> float:
                remos = ref()
                return 0.0 if remos is None else fn(remos)

            return read

        registry.gauge(
            "remos_federation_epoch",
            help="Epoch counter of the current federation summary",
        ).set_function(reader(lambda r: float(r.aggregator.epoch)))
        registry.gauge(
            "remos_federation_shards",
            help="Cells registered in the federation",
        ).set_function(reader(lambda r: float(len(r.registry))))
        for cell in self.registry.cells:
            cell_ref = weakref.ref(cell)
            registry.gauge(
                "remos_shard_epoch",
                labels={"shard": cell.name},
                help="Per-shard snapshot epoch counter",
            ).set_function(
                lambda c=cell_ref: float(c().epoch) if c() is not None else 0.0
            )
            registry.gauge(
                "remos_shard_staleness_seconds",
                labels={"shard": cell.name},
                help="Per-shard simulated seconds since the newest measurement",
            ).set_function(
                lambda c=cell_ref: (
                    (c().staleness_seconds() or 0.0) if c() is not None else 0.0
                )
            )

    def telemetry(self) -> dict:
        """Combined observability snapshot, shaped like Remos.telemetry."""
        if obs.metrics_enabled():
            self._publish_gauges()
        summary = self.aggregator.current()
        return {
            "status": "ok" if summary is not None else "no summary yet",
            "queries_answered": self.queries_answered,
            "cache": self.cache_stats.to_dict(),
            "view": None,
            "snapshot": None if summary is None else summary.to_dict(),
            "collector": {
                "type": "federation",
                "cells": {
                    cell.name: {
                        "epoch": cell.epoch,
                        "staleness_seconds": cell.staleness_seconds(),
                    }
                    for cell in self.registry.cells
                },
                "backbones": {
                    owner: cell.epoch for owner, cell in self._backbones.items()
                },
            },
            "observability_enabled": obs.observability_enabled(),
            "federation": {
                "name": self.name,
                "shards": len(self.registry),
                "epoch": self.aggregator.epoch,
                "merges": self.aggregator.publishes,
            },
            "metrics": obs.get_registry().to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FederatedRemos {self.name!r} shards={len(self.registry)} "
            f"epoch={self.aggregator.epoch}>"
        )
