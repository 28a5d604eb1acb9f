"""Three-stage allocation for Remos flow queries.

The paper's ``remos_flow_info(fixed_flows, variable_flows, independent_flow,
timeframe)`` satisfies the flow classes in strict priority order (§4.2):

1. **fixed** flows — each wants exactly its requested bandwidth; equal-weight
   max-min among them, capped at the request, decides what is achievable;
2. **variable** flows — share what is left *proportionally to their relative
   requirements* (weighted max-min, uncapped unless the caller caps them);
3. **independent** flows — absorb whatever remains (equal-weight max-min).

Each later stage sees capacities reduced by the earlier stages' allocations.
:func:`solve_stages` is that chain, written once: the flow-query pipeline
(:mod:`repro.core.snaparrays`) runs it per availability level, and
:func:`allocate_three_stage` is its one-shot dict-in/dict-out form.  This
module is topology-agnostic: callers supply each flow's resource keys
(directed links + finite node crossbars); :mod:`repro.core` derives those
from routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro import obs
from repro.fairshare.maxmin import _EPS
from repro.fairshare.vectorized import DemandArrays, KeySpace, fill
from repro.util.errors import ConfigurationError

#: The flow classes in allocation priority order.
CLASSES = ("fixed", "variable", "independent")


@dataclass(frozen=True)
class FlowRequest:
    """A single flow presented for staged allocation.

    For *fixed* flows, ``requested`` is the exact bandwidth wanted.
    For *variable* flows, ``requested`` is the **relative** requirement (the
    paper's "3, 4.5 and 9 Mbps relative to each other") used as the max-min
    weight; ``cap`` optionally bounds the absolute rate.
    For *independent* flows, ``requested`` is ignored.
    """

    flow_id: Hashable
    resources: tuple[Hashable, ...]
    requested: float = 1.0
    cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.requested < 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: requested bandwidth must be non-negative"
            )
        if self.cap < 0:
            raise ConfigurationError(f"flow {self.flow_id!r}: cap must be non-negative")


@dataclass
class StagedAllocation:
    """Combined result of the three allocation stages.

    ``rates`` covers every flow from all stages.  ``satisfied`` marks fixed
    flows that received their full request.  ``bottlenecks`` names the
    limiting resource per flow (None = demand-limited).
    """

    rates: dict[Hashable, float] = field(default_factory=dict)
    satisfied: dict[Hashable, bool] = field(default_factory=dict)
    bottlenecks: dict[Hashable, Hashable | None] = field(default_factory=dict)
    residual_capacity: dict[Hashable, float] = field(default_factory=dict)
    iterations: int = 0

    def rate(self, flow_id: Hashable) -> float:
        """Allocated bits/second for *flow_id*."""
        return self.rates[flow_id]

    @property
    def all_fixed_satisfied(self) -> bool:
        """True when every fixed flow received its full request."""
        return all(self.satisfied.values())


def stage_arrays(klass: str, requested, caps, rows, keyspace: KeySpace) -> DemandArrays:
    """One stage's demands from its flows' requests, caps and resource rows.

    Fixed flows share equally, capped at their request; variable flows
    weigh by their relative requirement (1 when none is given), capped at
    ``cap``; independent flows share equally, capped at ``cap``.
    """
    requested = np.asarray(requested, dtype=np.float64)
    if klass == "fixed":
        return DemandArrays(np.ones(len(requested)), requested, rows, keyspace)
    if klass == "variable":
        weights = np.where(requested > 0, requested, 1.0)
    else:
        weights = np.ones(len(requested))
    return DemandArrays(weights, caps, rows, keyspace)


def fixed_satisfied(rates, requested) -> np.ndarray:
    """Which fixed flows were granted their full request."""
    return rates >= np.asarray(requested, dtype=np.float64) * (1.0 - 1e-9)


def solve_stages(
    stages: dict[str, DemandArrays], remaining: np.ndarray, present: np.ndarray
) -> dict[str, tuple]:
    """The fixed → variable → independent chain at one capacity level.

    *stages* maps each non-empty class to its demands, in :data:`CLASSES`
    order, all interned in one keyspace; *remaining* (entry-clamped,
    indexed by interned id) is drained **in place**, so each stage sees
    the capacity the earlier stages left; *present* marks the ids that are
    capacity-constrained.  Returns ``class -> (rates, bottleneck,
    iterations)`` as :func:`repro.fairshare.vectorized.fill` reports them.
    """
    solved = {}
    with obs.span("fairshare.allocate") as sp:
        if sp:
            sp.set(
                **{klass: stages[klass].n if klass in stages else 0 for klass in CLASSES},
                resources=int(present.sum()),
            )
        for klass, stage in stages.items():
            local_ids = stage.res_ids
            local_remaining = remaining[local_ids]
            # Saturation thresholds are relative to this stage's entry
            # limits: capacities net of the earlier stages' allocations.
            thresholds = _EPS * np.maximum(local_remaining, 1.0)
            solved[klass] = fill(stage, local_remaining, present[local_ids], thresholds)
            remaining[local_ids] = local_remaining
    return solved


def allocate_three_stage(
    capacities: dict[Hashable, float],
    fixed: list[FlowRequest] | None = None,
    variable: list[FlowRequest] | None = None,
    independent: list[FlowRequest] | None = None,
) -> StagedAllocation:
    """Run the fixed → variable → independent allocation pipeline.

    *capacities* should already exclude background (external) traffic; the
    Modeler subtracts measured utilization before calling this.  Resources
    absent from *capacities* are unconstrained.
    """
    classes = {
        klass: list(requests or [])
        for klass, requests in zip(CLASSES, (fixed, variable, independent))
    }
    all_ids = [r.flow_id for requests in classes.values() for r in requests]
    if len(set(all_ids)) != len(all_ids):
        raise ConfigurationError("flow_ids must be unique across all flow classes")

    keyspace = KeySpace()
    stages = {
        klass: stage_arrays(
            klass,
            [r.requested for r in requests],
            [r.cap for r in requests],
            [keyspace.intern_row(r.resources) for r in requests],
            keyspace,
        )
        for klass, requests in classes.items()
        if requests
    }
    residual = {key: max(0.0, float(cap)) for key, cap in capacities.items()}
    remaining = np.zeros(len(keyspace), dtype=np.float64)
    present = np.zeros(len(keyspace), dtype=bool)
    for key, value in residual.items():
        ident = keyspace.index.get(key)
        if ident is not None:
            remaining[ident] = value
            present[ident] = True
    solved = solve_stages(stages, remaining, present)

    allocation = StagedAllocation()
    for klass, stage in stages.items():
        rates, bottleneck, iterations = solved[klass]
        allocation.iterations += iterations
        requests = classes[klass]
        for request, rate, r in zip(requests, rates.tolist(), bottleneck.tolist()):
            allocation.rates[request.flow_id] = rate
            allocation.bottlenecks[request.flow_id] = None if r < 0 else stage.res_keys[r]
        if klass == "fixed":
            granted = fixed_satisfied(rates, [r.requested for r in requests])
            for request, ok in zip(requests, granted.tolist()):
                allocation.satisfied[request.flow_id] = ok
    for key in residual:
        ident = keyspace.index.get(key)
        if ident is not None:
            residual[key] = float(remaining[ident])
    allocation.residual_capacity = residual
    return allocation
