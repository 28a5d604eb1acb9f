"""Weighted, demand-capped max-min fair allocation by progressive filling.

The classic water-filling algorithm: raise every unfrozen flow's rate at a
speed proportional to its weight until either (a) some resource saturates —
all flows crossing it freeze at their current rate — or (b) a flow reaches
its demand cap and freezes there.  Repeat until every flow is frozen.

The result is the unique allocation in which no flow's rate can be raised
without lowering the rate of another flow with an equal-or-smaller
weighted rate (max-min fairness, Jaffe 1981; see also Hahne 1991 for the
round-robin realisation the paper cites).

The filling loop runs as array operations in
:mod:`repro.fairshare.vectorized`; build a :class:`MaxMinProblem` once
and call :meth:`MaxMinProblem.solve` per capacity snapshot when the same
flow set is evaluated against several (the incidence arrays are shared).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from repro.util.errors import ConfigurationError

# Relative slack below which a resource counts as saturated / a flow as
# having met its cap.  Rates are bits/second, so absolute epsilons would be
# scale-sensitive; everything here is relative to the quantity compared.
_EPS = 1e-9

# Caps below this are physically meaningless (less than one bit per 30
# years) and can underflow the progressive-filling arithmetic; such flows
# are frozen at zero immediately.
_RATE_FLOOR = 1e-9


@dataclass(frozen=True)
class Demand:
    """One flow's participation in an allocation.

    Attributes
    ----------
    flow_id:
        Caller's identifier for the flow; unique within one allocation call.
    resources:
        Hashable keys of every resource the flow consumes (directed links
        and finite-bandwidth node crossbars along its route).  A flow with
        no resources (e.g. a loopback flow) is only limited by its cap.
    weight:
        Relative share weight; variable Remos flows with bandwidth
        requirements "3, 4.5 and 9 Mbps relative to each other" become
        weights 3, 4.5 and 9.
    cap:
        Demand ceiling in bits/second; ``inf`` for greedy flows.
    """

    flow_id: Hashable
    resources: tuple[Hashable, ...]
    weight: float = 1.0
    cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: weight must be positive, got {self.weight}"
            )
        if self.cap < 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: cap must be non-negative, got {self.cap}"
            )


@dataclass
class MaxMinResult:
    """Outcome of one max-min allocation.

    ``rates`` maps flow_id to bits/second.  ``bottlenecks`` maps flow_id to
    the resource that froze the flow, or ``None`` when the flow was frozen
    by its own demand cap (it got everything it asked for).
    ``residual_capacity`` maps each resource key to the capacity left over.
    ``iterations`` counts progressive-filling steps (for observability and
    the scale benchmark's perf trajectory).
    """

    rates: dict[Hashable, float] = field(default_factory=dict)
    bottlenecks: dict[Hashable, Hashable | None] = field(default_factory=dict)
    residual_capacity: dict[Hashable, float] = field(default_factory=dict)
    iterations: int = 0

    def rate(self, flow_id: Hashable) -> float:
        """Allocated rate for *flow_id* in bits/second."""
        return self.rates[flow_id]

    def demand_limited(self, flow_id: Hashable) -> bool:
        """True if the flow got its full cap (network did not limit it)."""
        return self.bottlenecks[flow_id] is None


class MaxMinProblem:
    """A fixed flow set, solvable against many capacity snapshots.

    Validates the demand list once; the interned incidence arrays are
    built on the first :meth:`solve` and reused by every later one.
    """

    __slots__ = ("demands", "_arrays")

    def __init__(self, demands: Iterable[Demand]):
        self.demands: list[Demand] = list(demands)
        seen: set[Hashable] = set()
        for demand in self.demands:
            if demand.flow_id in seen:
                raise ConfigurationError(f"duplicate flow_id {demand.flow_id!r}")
            seen.add(demand.flow_id)
        self._arrays = None

    def solve(self, capacities: Mapping[Hashable, float]) -> MaxMinResult:
        """Allocate *capacities* among this problem's demands.

        Resources referenced by a demand but absent from *capacities* are
        treated as unconstrained (infinite).  Capacities may already have
        background load subtracted by the caller; negative capacities are
        clamped to zero once at entry, and the clamped value is reused by
        the relative-epsilon saturation test.
        """
        if self._arrays is None:
            keyspace = _vectorized.KeySpace()
            demands = self.demands
            self._arrays = _vectorized.DemandArrays(
                [demand.weight for demand in demands],
                [demand.cap for demand in demands],
                [keyspace.intern_row(demand.resources) for demand in demands],
                keyspace,
            )
        return _vectorized.solve_arrays(self._arrays, self.demands, capacities)


def weighted_max_min(
    demands: list[Demand],
    capacities: dict[Hashable, float],
) -> MaxMinResult:
    """Allocate *capacities* among *demands* with weighted max-min fairness.

    One-shot convenience wrapper around :class:`MaxMinProblem`; callers
    evaluating the same flow set against several capacity snapshots should
    build the problem once and call :meth:`MaxMinProblem.solve` per
    snapshot.
    """
    return MaxMinProblem(demands).solve(capacities)


# Imported last: vectorized.py type-references MaxMinResult from this
# module, so the import must run after the definitions above.
from repro.fairshare import vectorized as _vectorized  # noqa: E402
