"""Frozen pre-unification flow evaluation: the differential oracles.

Before the flow-evaluation pipeline was unified into
``repro.core.snaparrays.evaluate_flow_query``, ``remos_flow_info`` was
written three times over two max-min kernels.  The scalar pieces are kept
here **verbatim** (modulo turning methods into functions and dropping the
kernel switches) so the single pipeline can be proven bit-identical to
them:

* :class:`MaxMinProblem` — the pure-Python filling loop with its crossing
  index (``MaxMinProblem.solve_scalar``);
* :class:`StagedProblem` — the fixed → variable → independent chain over
  that loop;
* :func:`capacity_snapshots_full`, :func:`query_accuracy` and
  :func:`evaluate_flow_query` — ``Remos._capacity_snapshots_full``,
  ``Remos._query_accuracy`` and the scalar ``Remos._evaluate_flow_query``;
* :func:`evaluate_cross` — ``FederatedRemos._evaluate_cross`` as it was
  before it delegated to the shared pipeline.

:func:`scalar_pipeline` and :func:`scalar_denominator` let benchmarks time
the old scalar path in place of the pipeline (their speedup denominators);
:func:`assert_results_identical` compares answers bit for bit.

Do not fix or optimise this module — its value is being frozen.
"""

from __future__ import annotations

import dataclasses
import struct
from contextlib import contextmanager
from typing import Hashable, Iterable, Mapping

from repro import obs
from repro.core.flows import Flow, FlowAnswer, FlowInfoResult, MulticastFlow
from repro.fairshare.allocator import FlowRequest, StagedAllocation
from repro.fairshare.maxmin import _EPS, _RATE_FLOOR, Demand, MaxMinResult
from repro.stats import StatMeasure
from repro.util.errors import ConfigurationError, QueryError

# Quantiles at which flow allocations are evaluated, pessimistic first.
_LEVELS = ("minimum", "q1", "median", "q3", "maximum")


class MaxMinProblem:
    """Verbatim scalar ``MaxMinProblem`` (``solve`` is ``solve_scalar``)."""

    __slots__ = ("demands", "_crossing", "_order", "_positions")

    def __init__(self, demands: Iterable[Demand]):
        self.demands: list[Demand] = list(demands)
        seen: set[Hashable] = set()
        for demand in self.demands:
            if demand.flow_id in seen:
                raise ConfigurationError(f"duplicate flow_id {demand.flow_id!r}")
            seen.add(demand.flow_id)
        self._crossing: dict[Hashable, list[Demand]] | None = None
        self._order: dict[Hashable, int] | None = None
        self._positions: dict[Hashable, dict[Hashable, int]] | None = None

    def _ensure_index(self) -> None:
        """Build the scalar path's crossing index (idempotent).

        resource -> demands crossing it, in original demand order, one
        entry per occurrence in the demand's resource tuple (so filtered
        iteration reproduces the pressure rebuild's float-add sequence);
        flow_id -> original position; flow_id -> {resource: first index}.
        """
        if self._crossing is not None:
            return
        crossing: dict[Hashable, list[Demand]] = {}
        order: dict[Hashable, int] = {}
        all_positions: dict[Hashable, dict[Hashable, int]] = {}
        for index, demand in enumerate(self.demands):
            order[demand.flow_id] = index
            positions: dict[Hashable, int] = {}
            all_positions[demand.flow_id] = positions
            for pos, resource in enumerate(demand.resources):
                crossing.setdefault(resource, []).append(demand)
                positions.setdefault(resource, pos)
        self._order = order
        self._positions = all_positions
        self._crossing = crossing

    def _weight_sum(self, resource: Hashable, active: dict[Hashable, Demand]) -> float:
        """Sum active crossers' weights in original demand order."""
        total = 0.0
        for demand in self._crossing[resource]:
            if demand.flow_id in active:
                total += demand.weight
        return total

    def _pressure_rank(
        self, resource: Hashable, active: dict[Hashable, Demand]
    ) -> tuple[int, int]:
        """Position *resource* would take in a freshly rebuilt pressure index.

        The rebuilt index enumerates resources in first-encounter order over
        active demands, i.e. ordered by (first active crossing demand,
        position of the resource within that demand's tuple).
        """
        for demand in self._crossing[resource]:
            if demand.flow_id in active:
                return (
                    self._order[demand.flow_id],
                    self._positions[demand.flow_id][resource],
                )
        raise AssertionError(  # pragma: no cover - saturated => has crossers
            f"resource {resource!r} saturated with no active crossers"
        )

    def solve(self, capacities: Mapping[Hashable, float]) -> MaxMinResult:
        return self.solve_scalar(capacities)

    def solve_scalar(self, capacities: Mapping[Hashable, float]) -> MaxMinResult:
        """The pure-Python filling loop — the differential oracle and the
        no-numpy fallback."""
        self._ensure_index()
        result = MaxMinResult()
        remaining = {key: max(0.0, float(cap)) for key, cap in capacities.items()}
        # Clamped capacities, frozen at entry: the saturation threshold is
        # relative to these, not to the raw (possibly negative) inputs.
        limits = dict(remaining)

        for demand in self.demands:
            result.rates[demand.flow_id] = 0.0
            result.bottlenecks[demand.flow_id] = None

        # Flows with (near-)zero cap are frozen at 0 immediately,
        # demand-limited.  ``active`` keeps original demand order under
        # deletions; ``capped`` is the subset whose rates must be tracked
        # eagerly (they feed the headroom test each iteration).
        active: dict[Hashable, Demand] = {
            d.flow_id: d for d in self.demands if d.cap > _RATE_FLOOR
        }
        capped: dict[Hashable, Demand] = {
            fid: d for fid, d in active.items() if d.cap != float("inf")
        }

        # Per-resource active weight sums, inserted in first-encounter
        # order over the initial active set (the rebuilt pressure index's
        # order for iteration one).
        weight_sum: dict[Hashable, float] = {}
        for demand in active.values():
            for resource in demand.resources:
                if resource in remaining:
                    weight_sum[resource] = weight_sum.get(resource, 0.0) + demand.weight

        # Increment history for deferred (uncapped) rate materialisation.
        thetas: list[float] = []

        def materialise(demand: Demand) -> None:
            # Replays the eager loop's float ops in order: bitwise equal.
            rate = 0.0
            for theta in thetas:
                rate += theta * demand.weight
            result.rates[demand.flow_id] = rate

        while active:
            result.iterations += 1

            # Largest uniform per-weight increment every resource allows...
            theta = float("inf")
            for resource, total in weight_sum.items():
                theta = min(theta, remaining[resource] / total)
            # ... and each demand cap allows (uncapped flows have infinite
            # headroom and cannot lower the minimum).
            for flow_id, demand in capped.items():
                headroom = (demand.cap - result.rates[flow_id]) / demand.weight
                theta = min(theta, headroom)

            if theta == float("inf"):
                # Only uncapped flows over unconstrained resources remain;
                # they can grow without bound.  Report infinite rates.
                for flow_id in active:
                    result.rates[flow_id] = float("inf")
                break

            theta = max(0.0, theta)
            thetas.append(theta)

            # Apply the increment eagerly to capped flows only; uncapped
            # flows replay ``thetas`` when they freeze.
            for flow_id, demand in capped.items():
                result.rates[flow_id] += theta * demand.weight

            # Drain resources and detect saturation in one pass.
            saturated: list[Hashable] = []
            for resource, total in weight_sum.items():
                remaining[resource] -= theta * total
                if remaining[resource] <= _EPS * max(limits[resource], 1.0):
                    remaining[resource] = max(0.0, remaining[resource])
                    saturated.append(resource)

            # Freeze flows crossing saturated resources.  With several
            # saturations in one step, attribute bottlenecks in rebuilt-
            # pressure-index order, exactly as a full rebuild would.
            if len(saturated) > 1:
                saturated.sort(key=lambda r: self._pressure_rank(r, active))
            frozen: set[Hashable] = set()
            for resource in saturated:
                for demand in self._crossing[resource]:
                    if demand.flow_id in active and demand.flow_id not in frozen:
                        frozen.add(demand.flow_id)
                        result.bottlenecks[demand.flow_id] = resource

            # Freeze flows that reached their cap.
            for flow_id, demand in list(capped.items()):
                if flow_id in frozen:
                    continue
                if result.rates[flow_id] >= demand.cap * (1.0 - _EPS):
                    result.rates[flow_id] = demand.cap
                    frozen.add(flow_id)
                    # bottleneck stays None: demand-limited.

            if not frozen:  # pragma: no cover - defensive against FP stagnation
                raise ConfigurationError(
                    "max-min allocation failed to make progress; "
                    "check for zero-capacity resources with active flows"
                )

            # Retire frozen flows and refresh only the affected resources'
            # weight sums (recomputed in original demand order, so the sums
            # stay bitwise identical to a full rebuild).
            affected: set[Hashable] = set()
            for flow_id in frozen:
                demand = active.pop(flow_id)
                capped.pop(flow_id, None)
                if demand.cap == float("inf"):
                    materialise(demand)
                for resource in demand.resources:
                    if resource in weight_sum:
                        affected.add(resource)
            for resource in affected:
                total = self._weight_sum(resource, active)
                if total > 0.0:
                    weight_sum[resource] = total
                else:
                    # No active crossers left: the rebuilt index would
                    # simply omit this resource.
                    del weight_sum[resource]

        result.residual_capacity = remaining
        return result


def _merge(result: MaxMinResult, into: StagedAllocation) -> dict[Hashable, float]:
    """Fold a stage's result into the combined allocation; return new capacities."""
    into.rates.update(result.rates)
    into.bottlenecks.update(result.bottlenecks)
    return result.residual_capacity


class StagedProblem:
    """Verbatim ``StagedProblem`` over the scalar :class:`MaxMinProblem`."""

    __slots__ = ("fixed", "variable", "independent", "_problems")

    def __init__(
        self,
        fixed: list[FlowRequest] | None = None,
        variable: list[FlowRequest] | None = None,
        independent: list[FlowRequest] | None = None,
    ):
        self.fixed = list(fixed or [])
        self.variable = list(variable or [])
        self.independent = list(independent or [])

        all_ids = [f.flow_id for f in self.fixed + self.variable + self.independent]
        if len(set(all_ids)) != len(all_ids):
            raise ConfigurationError("flow_ids must be unique across all flow classes")

        self._problems: list[MaxMinProblem | None] = [
            MaxMinProblem(
                Demand(f.flow_id, f.resources, weight=1.0, cap=f.requested)
                for f in self.fixed
            )
            if self.fixed
            else None,
            MaxMinProblem(
                Demand(
                    f.flow_id,
                    f.resources,
                    weight=f.requested if f.requested > 0 else 1.0,
                    cap=f.cap,
                )
                for f in self.variable
            )
            if self.variable
            else None,
            MaxMinProblem(
                Demand(f.flow_id, f.resources, weight=1.0, cap=f.cap)
                for f in self.independent
            )
            if self.independent
            else None,
        ]

    def resource_keys(self) -> tuple[Hashable, ...]:
        keys: dict[Hashable, None] = {}
        for request in self.fixed + self.variable + self.independent:
            for resource in request.resources:
                keys.setdefault(resource, None)
        return tuple(keys)

    def solve(self, capacities: dict[Hashable, float]) -> StagedAllocation:
        """Run the fixed → variable → independent pipeline on *capacities*."""
        with obs.span("fairshare.allocate") as sp:
            if sp:
                sp.set(
                    fixed=len(self.fixed),
                    variable=len(self.variable),
                    independent=len(self.independent),
                    resources=len(capacities),
                )
            return self._solve(capacities)

    def _solve(self, capacities: dict[Hashable, float]) -> StagedAllocation:
        allocation = StagedAllocation()
        current = {key: max(0.0, float(cap)) for key, cap in capacities.items()}

        fixed_problem, variable_problem, independent_problem = self._problems

        if fixed_problem is not None:
            result = fixed_problem.solve(current)
            allocation.iterations += result.iterations
            current = _merge(result, allocation)
            for request in self.fixed:
                granted = result.rates[request.flow_id]
                allocation.satisfied[request.flow_id] = (
                    granted >= request.requested * (1.0 - 1e-9)
                )

        if variable_problem is not None:
            result = variable_problem.solve(current)
            allocation.iterations += result.iterations
            current = _merge(result, allocation)

        if independent_problem is not None:
            result = independent_problem.solve(current)
            allocation.iterations += result.iterations
            current = _merge(result, allocation)

        allocation.residual_capacity = current
        return allocation


def capacity_snapshots_full(modeler, timeframe) -> dict[str, dict[Hashable, float]]:
    """Verbatim ``Remos._capacity_snapshots_full``: eager whole-network dicts."""
    return {
        level: modeler.available_capacities(timeframe, quantile=level)
        for level in (*_LEVELS, "mean")
    }


def query_accuracy(modeler, timeframe, flows: list[Flow]) -> float:
    """Verbatim ``Remos._query_accuracy``."""
    accuracy = 1.0
    for flow in flows:
        if isinstance(flow, MulticastFlow):
            hops = modeler.routing.multicast_tree(flow.src, list(flow.dsts)).hops
        else:
            hops = modeler.routing.route(flow.src, flow.dst).hops
        for hop in hops:
            measure = modeler.available_bandwidth(hop, timeframe)
            accuracy = min(accuracy, measure.accuracy)
    return accuracy


def evaluate_flow_query(
    modeler, fixed, variable, independent, timeframe, snapshots
) -> FlowInfoResult:
    """Verbatim scalar ``Remos._evaluate_flow_query``."""
    topology = modeler.view.topology
    for flow in (*fixed, *variable, *independent):
        endpoints = (flow.src, *flow.dsts) if isinstance(flow, MulticastFlow) else (
            flow.src,
            flow.dst,
        )
        for endpoint in endpoints:
            if not topology.has_node(endpoint):
                raise QueryError(f"unknown flow endpoint {endpoint!r}")
            if not topology.node(endpoint).is_compute:
                raise QueryError(
                    f"flow endpoints must be compute nodes; {endpoint!r} is not"
                )

    def resources_of(flow) -> tuple:
        if isinstance(flow, MulticastFlow):
            return modeler.resources_for_tree(flow.src, list(flow.dsts))
        return modeler.resources_for_route(flow.src, flow.dst)

    def requests(flows: list[Flow], klass: str) -> list[FlowRequest]:
        return [
            FlowRequest(
                flow_id=flow.label(index, klass),
                resources=resources_of(flow),
                requested=flow.requested,
                cap=flow.cap,
            )
            for index, flow in enumerate(flows)
        ]

    fixed_requests = requests(fixed, "fixed")
    variable_requests = requests(variable, "variable")
    independent_requests = requests(independent, "independent")
    all_ids = [r.flow_id for r in (*fixed_requests, *variable_requests, *independent_requests)]
    if len(set(all_ids)) != len(all_ids):
        raise QueryError("flow labels must be unique within a query")

    problem = StagedProblem(
        fixed=fixed_requests,
        variable=variable_requests,
        independent=independent_requests,
    )
    keys = problem.resource_keys()
    rates_by_level: dict[str, dict[Hashable, float]] = {}
    median_allocation = None
    for level in (*_LEVELS, "mean"):
        full = snapshots[level]
        capacities = {key: full[key] for key in keys if key in full}
        allocation = problem.solve(capacities)
        rates_by_level[level] = allocation.rates
        if level == "median":
            median_allocation = allocation
    assert median_allocation is not None

    accuracy = query_accuracy(modeler, timeframe, fixed + variable + independent)

    def answers(flows: list[Flow], reqs: list[FlowRequest], klass: str) -> list[FlowAnswer]:
        result = []
        for flow, request in zip(flows, reqs):
            label = request.flow_id
            quartiles = sorted(rates_by_level[level][label] for level in _LEVELS)
            bandwidth = StatMeasure(
                minimum=quartiles[0],
                q1=quartiles[1],
                median=quartiles[2],
                q3=quartiles[3],
                maximum=quartiles[4],
                mean=rates_by_level["mean"][label],
                n_samples=len(_LEVELS),
                accuracy=accuracy,
            )
            if isinstance(flow, MulticastFlow):
                tree = modeler.routing.multicast_tree(flow.src, list(flow.dsts))
                latency, hop_count = tree.max_latency, len(tree.hops)
            else:
                route = modeler.routing.route(flow.src, flow.dst)
                latency, hop_count = route.latency, route.hop_count
            result.append(
                FlowAnswer(
                    flow=flow,
                    label=label,
                    bandwidth=bandwidth,
                    latency=StatMeasure.constant(latency),
                    hop_count=hop_count,
                    satisfied=(
                        median_allocation.satisfied.get(label)
                        if klass == "fixed"
                        else None
                    ),
                    bottleneck=median_allocation.bottlenecks.get(label),
                )
            )
        return result

    return FlowInfoResult(
        timeframe=timeframe,
        fixed=answers(fixed, fixed_requests, "fixed"),
        variable=answers(variable, variable_requests, "variable"),
        independent=answers(independent, independent_requests, "independent"),
    )


def evaluate_cross(fed, pin, scenario, timeframe) -> FlowInfoResult:
    """Verbatim pre-unification ``FederatedRemos._evaluate_cross``.

    *fed* is the :class:`~repro.federation.api.FederatedRemos` whose
    ``_plan_flow`` composes each flow; *pin* its ``_QueryPin``.
    """
    from repro.federation.api import fed_key

    fixed = list(scenario.fixed)
    variable = list(scenario.variable)
    independent = list(scenario.independent)
    plans: dict = {}

    def requests(flows, klass: str) -> list[FlowRequest]:
        built = []
        for index, flow in enumerate(flows):
            plan = fed._plan_flow(pin, flow)
            label = flow.label(index, klass)
            plans[label] = plan
            built.append(
                FlowRequest(
                    flow_id=label,
                    resources=plan.resources,
                    requested=flow.requested,
                    cap=flow.cap,
                )
            )
        return built

    fixed_requests = requests(fixed, "fixed")
    variable_requests = requests(variable, "variable")
    independent_requests = requests(independent, "independent")
    all_ids = [
        r.flow_id
        for r in (*fixed_requests, *variable_requests, *independent_requests)
    ]
    if len(set(all_ids)) != len(all_ids):
        raise QueryError("flow labels must be unique within a query")

    problem = StagedProblem(
        fixed=fixed_requests,
        variable=variable_requests,
        independent=independent_requests,
    )
    keys = problem.resource_keys()
    shard_keys: dict[str, list[Hashable]] = {}
    edge_keys: dict = {}
    for plan in plans.values():
        for edge, from_shard in plan.edges:
            edge_keys[fed_key(edge, from_shard)] = (edge, from_shard)
    for plan in plans.values():
        for shard, _hops in plan.intra:
            shard_keys.setdefault(shard, [])
    for key in keys:
        if key in edge_keys:
            continue
        for shard in shard_keys:
            view = pin.capacity_view(shard, "median")
            if key in view:
                shard_keys[shard].append(key)
                break
        else:
            raise QueryError(f"no shard can price resource {key!r}")

    rates_by_level: dict[str, dict[Hashable, float]] = {}
    median_allocation = None
    for level in (*_LEVELS, "mean"):
        capacities: dict[Hashable, float] = {}
        for shard, shard_specific in shard_keys.items():
            view = pin.capacity_view(shard, level)
            for key in shard_specific:
                capacities[key] = view[key]
        for key, (edge, from_shard) in edge_keys.items():
            measure = pin.edge_measure(edge, from_shard)
            capacities[key] = getattr(measure, level)
        allocation = problem.solve(capacities)
        rates_by_level[level] = allocation.rates
        if level == "median":
            median_allocation = allocation
    assert median_allocation is not None

    accuracy = 1.0
    for plan in plans.values():
        for shard, hops in plan.intra:
            modeler = pin.modeler(shard)
            for hop in hops:
                measure = modeler.available_bandwidth(hop, timeframe)
                accuracy = min(accuracy, measure.accuracy)
        for edge, from_shard in plan.edges:
            accuracy = min(accuracy, pin.edge_measure(edge, from_shard).accuracy)

    def answers(flows, reqs, klass: str) -> list[FlowAnswer]:
        result = []
        for flow, request in zip(flows, reqs):
            label = request.flow_id
            plan = plans[label]
            quartiles = sorted(rates_by_level[level][label] for level in _LEVELS)
            bandwidth = StatMeasure(
                minimum=quartiles[0],
                q1=quartiles[1],
                median=quartiles[2],
                q3=quartiles[3],
                maximum=quartiles[4],
                mean=rates_by_level["mean"][label],
                n_samples=len(_LEVELS),
                accuracy=accuracy,
            )
            result.append(
                FlowAnswer(
                    flow=flow,
                    label=label,
                    bandwidth=bandwidth,
                    latency=StatMeasure.constant(plan.latency),
                    hop_count=plan.hop_count,
                    satisfied=(
                        median_allocation.satisfied.get(label)
                        if klass == "fixed"
                        else None
                    ),
                    bottleneck=median_allocation.bottlenecks.get(label),
                )
            )
        return result

    return FlowInfoResult(
        timeframe=timeframe,
        fixed=answers(fixed, fixed_requests, "fixed"),
        variable=answers(variable, variable_requests, "variable"),
        independent=answers(independent, independent_requests, "independent"),
    )


def scalar_pipeline(source, fixed, variable, independent, timeframe) -> FlowInfoResult:
    """Drop-in for ``snaparrays.evaluate_flow_query`` on a single cell.

    Answers through the frozen scalar path over the same lazy capacity
    views the cell's :class:`~repro.core.snaparrays.BatchCaches` prices
    from — exactly what ``Remos`` ran with the scalar kernels forced.
    """
    return evaluate_flow_query(
        source.modeler, list(fixed), list(variable), list(independent),
        timeframe, source.views,
    )


@contextmanager
def scalar_denominator():
    """Route every single-cell flow query through :func:`scalar_pipeline`.

    Benchmarks that gate a speedup over the old scalar path use this as
    their denominator; the facade calls the pipeline through the module
    attribute, so the substitution is seen by every query.
    """
    from repro.core import snaparrays

    original = snaparrays.evaluate_flow_query
    snaparrays.evaluate_flow_query = scalar_pipeline
    try:
        yield
    finally:
        snaparrays.evaluate_flow_query = original


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def assert_results_identical(new: FlowInfoResult, old: FlowInfoResult) -> None:
    """Every answer equal to the oracle's, floats compared bit for bit."""
    assert new.timeframe == old.timeframe
    for klass in ("fixed", "variable", "independent"):
        ours, theirs = getattr(new, klass), getattr(old, klass)
        assert len(ours) == len(theirs), klass
        for a, b in zip(ours, theirs):
            assert (a.flow, a.label) == (b.flow, b.label)
            for field in dataclasses.fields(StatMeasure):
                for x, y in (
                    (getattr(a.bandwidth, field.name), getattr(b.bandwidth, field.name)),
                    (getattr(a.latency, field.name), getattr(b.latency, field.name)),
                ):
                    assert type(x) is type(y), (a.label, field.name, x, y)
                    if isinstance(x, float):
                        assert _bits(x) == _bits(y), (a.label, field.name, x, y)
                    else:
                        assert x == y, (a.label, field.name, x, y)
            assert a.hop_count == b.hop_count, a.label
            assert a.satisfied == b.satisfied, a.label
            assert a.bottleneck == b.bottleneck, a.label
