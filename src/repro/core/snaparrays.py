"""The flow-evaluation pipeline: plan → price → solve → answer.

``remos_flow_info`` (§4.2) is one computation: fixed flows are served
first, variable flows next, and independent flows take what is left, all
under max-min fairness, evaluated at each availability quartile (plus the
mean).  :func:`evaluate_flow_query` is the only place it is written:

* **plan** — one :class:`PlannedFlow` row per flow: its resources as
  interned integer ids, its latency, hop count and the accuracy of the
  availability estimates along its hops;
* **price** — per-level capacity columns over those ids;
* **solve** — the staged chain
  (:func:`repro.fairshare.allocator.solve_stages`) over the max-min
  kernel, once per level;
* **answer** — :func:`_answers` builds every :class:`FlowAnswer`.

Plan and price come from a :class:`FlowSource`, one per batch of queries
(one evaluation time).  A single cell's source is :class:`BatchCaches`:
routes from the epoch's :class:`SnapshotArrays`, capacities from the
modeler's lazy ``CapacityView``\\ s.  The federation's cross-shard source
composes shard segments and summary edges (``repro.federation.api``).

:class:`SnapshotArrays` is one per :class:`~repro.core.modeler.Modeler`,
i.e. one per published epoch (snapshots are immutable, so it is
coherence-free): it interns resource keys and memoises every route's id
row, latency and hop count for all the queries against that epoch.

Answers are bit-identical to the scalar evaluator this pipeline replaced
(frozen in ``tests/core/_oracle_flow.py``; see the differential suites).
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Hashable, NamedTuple

import numpy as np

from repro.core.flows import Flow, FlowAnswer, FlowInfoResult, MulticastFlow
from repro.core.timeframe import Timeframe
from repro.fairshare.allocator import CLASSES, fixed_satisfied, solve_stages, stage_arrays
from repro.fairshare.vectorized import KeySpace
from repro.stats import StatMeasure
from repro.util.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.modeler import Modeler

# Quantiles at which flow allocations are evaluated, pessimistic first.
_LEVELS = ("minimum", "q1", "median", "q3", "maximum")
#: Every capacity level a query is solved at.
SOLVE_LEVELS = (*_LEVELS, "mean")


class PlannedFlow(NamedTuple):
    """The plan step's row for one flow."""

    #: Interned resource ids, one per occurrence.
    row: np.ndarray
    latency: StatMeasure
    hop_count: int
    #: Worst availability accuracy along the flow's hops.
    accuracy: float


class _Route(NamedTuple):
    row: np.ndarray
    latency: StatMeasure
    hops: tuple


def endpoints_of(flow) -> tuple[str, ...]:
    """Every node a flow names: its source, then its receiver(s)."""
    if isinstance(flow, MulticastFlow):
        return (flow.src, *flow.dsts)
    return (flow.src, flow.dst)


def _reject_loopback(flow) -> None:
    receivers = flow.dsts if isinstance(flow, MulticastFlow) else (flow.dst,)
    if flow.src in receivers:
        raise QueryError(
            f"loopback flow {flow.src}->{flow.dst}: a flow's source cannot "
            "be one of its destinations"
        )


class SnapshotArrays:
    """Structural array state shared by every query against one epoch.

    Built lazily by :meth:`Modeler.snapshot_arrays`.  Against a published
    (frozen) snapshot nothing here can go stale; against a live view,
    :meth:`sync` drops the route-derived state when the topology's
    structure generation advances — the same contract as the modeler's
    own ``_route_resources`` memo.

    Thread-safe for concurrent readers: misses take ``_lock`` and insert
    fully-built values, so lock-free hits only ever observe complete
    entries (the dict-of-immutables pattern ``docs/CONCURRENCY.md``
    documents for the route memo).
    """

    __slots__ = ("_modeler", "_structure", "_lock", "keyspace", "_routes")

    def __init__(self, modeler: "Modeler"):
        self._modeler = modeler
        self._structure = modeler.view.structure_generation
        self._lock = threading.Lock()
        self.keyspace = KeySpace()
        #: (src, dst) or (src, dsts) -> its _Route.
        self._routes: dict[tuple, _Route] = {}

    def sync(self) -> None:
        """Drop route-derived state if the topology changed in place."""
        structure = self._modeler.view.structure_generation
        if structure != self._structure:
            with self._lock:
                if structure != self._structure:
                    self._routes = {}
                    self._structure = structure

    def route(self, flow) -> _Route:
        """The interned id row, latency and hops of *flow*'s route or tree."""
        multicast = isinstance(flow, MulticastFlow)
        key = (flow.src, flow.dsts if multicast else flow.dst)
        entry = self._routes.get(key)
        if entry is None:
            modeler = self._modeler
            if multicast:
                dsts = list(flow.dsts)
                tree = modeler.routing.multicast_tree(flow.src, dsts)
                resources = modeler.resources_for_tree(flow.src, dsts)
                latency, hops = tree.max_latency, tree.hops
            else:
                path = modeler.routing.route(flow.src, flow.dst)
                resources = modeler.resources_for_route(flow.src, flow.dst)
                latency, hops = path.latency, path.hops
            with self._lock:
                entry = self._routes.get(key)
                if entry is None:
                    entry = _Route(
                        self.keyspace.intern_row(resources),
                        StatMeasure.constant(latency),
                        tuple(hops),
                    )
                    self._routes[key] = entry
        return entry


class _LevelCache:
    """One availability level's capacities as id-indexed arrays.

    ``values[i]``/``present[i]`` hold the level's price of
    ``keyspace.keys[i]`` and whether it has one; slots are filled on first
    gather (``known``) so a batch prices each resource once per level.
    """

    __slots__ = ("values", "present", "known")

    def __init__(self, capacity: int):
        self.values = np.zeros(capacity, dtype=np.float64)
        self.present = np.zeros(capacity, dtype=bool)
        self.known = np.zeros(capacity, dtype=bool)

    def _grow(self, need: int) -> None:
        size = max(need, 2 * len(self.values), 16)
        for name in self.__slots__:
            old = getattr(self, name)
            new = np.zeros(size, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def gather(self, ids: np.ndarray, keys: list, price) -> tuple:
        """``(values[ids], present[ids])`` for sorted global *ids*."""
        if ids.size and int(ids[-1]) >= len(self.values):
            self._grow(int(ids[-1]) + 1)
        known = self.known
        for ident in ids[~known[ids]].tolist():
            try:
                self.values[ident] = price(keys[ident])
                self.present[ident] = True
            except KeyError:
                pass
            known[ident] = True
        return self.values[ids], self.present[ids]


class FlowSource:
    """The plan and price steps for one batch of flow queries.

    Subclasses implement :meth:`plan` and :meth:`price`; every resource
    id a plan names is interned in ``keyspace``.  One source serves one
    evaluation time, so it is never kept across calls.
    """

    def __init__(self, keyspace: KeySpace):
        self.keyspace = keyspace
        self._levels: dict[str, _LevelCache] = {}

    def validate(self, flows: list) -> None:
        """Check a whole scenario's endpoints before anything is planned."""

    def plan(self, flow) -> PlannedFlow:
        """The plan row of one (validated, non-loopback) flow."""
        raise NotImplementedError

    def price(self, level: str, key: Hashable) -> float:
        """Capacity of *key* at *level*; KeyError when it is unconstrained."""
        raise NotImplementedError

    def level_values(self, level: str, ids: np.ndarray) -> tuple:
        """Capacity values + presence for sorted *ids* at one level."""
        cache = self._levels.get(level)
        if cache is None:
            cache = self._levels[level] = _LevelCache(len(self.keyspace))
        return cache.gather(ids, self.keyspace.keys, partial(self.price, level))


class BatchCaches(FlowSource):
    """A single cell's source: one ``flow_info``/``flow_info_batch`` call.

    Routes come from the epoch's :class:`SnapshotArrays`; capacities from
    the modeler's lazy ``CapacityView`` per level, which pin "now" at
    construction.  Endpoint checks and route accuracies are memoised for
    the batch, so each link direction's availability is read once.
    """

    def __init__(self, modeler: "Modeler", timeframe: Timeframe):
        self.arrays = modeler.snapshot_arrays()
        super().__init__(self.arrays.keyspace)
        self.modeler = modeler
        self.timeframe = timeframe
        self.views = {
            level: modeler.capacity_view(timeframe, quantile=level)
            for level in SOLVE_LEVELS
        }
        self._valid: set[str] = set()
        self._dir_acc: dict[Hashable, float] = {}
        self._route_acc: dict[tuple, float] = {}

    def price(self, level: str, key: Hashable) -> float:
        return self.views[level][key]

    def validate(self, flows: list) -> None:
        topology = self.modeler.view.topology
        valid = self._valid
        for flow in flows:
            for endpoint in endpoints_of(flow):
                if endpoint in valid:
                    continue
                if not topology.has_node(endpoint):
                    raise QueryError(f"unknown flow endpoint {endpoint!r}")
                if not topology.node(endpoint).is_compute:
                    raise QueryError(
                        f"flow endpoints must be compute nodes; {endpoint!r} is not"
                    )
                valid.add(endpoint)

    def plan(self, flow) -> PlannedFlow:
        route = self.arrays.route(flow)
        key = (flow.src, flow.dst)
        accuracy = self._route_acc.get(key)
        if accuracy is None:
            accuracy = 1.0
            dirs = self._dir_acc
            for hop in route.hops:
                hop_acc = dirs.get(hop.key)
                if hop_acc is None:
                    measure = self.modeler.available_bandwidth(hop, self.timeframe)
                    hop_acc = dirs[hop.key] = measure.accuracy
                accuracy = min(accuracy, hop_acc)
            self._route_acc[key] = accuracy
        return PlannedFlow(route.row, route.latency, len(route.hops), accuracy)


def evaluate_flow_query(
    source: FlowSource,
    fixed: list[Flow],
    variable: list[Flow],
    independent: list[Flow],
    timeframe: Timeframe,
) -> FlowInfoResult:
    """Answer one flow-query scenario: plan → price → solve → answer."""
    classes = dict(zip(CLASSES, (list(fixed), list(variable), list(independent))))

    # Plan.
    source.validate([flow for flows in classes.values() for flow in flows])
    labels: dict[str, list[str]] = {}
    plans: dict[str, list[PlannedFlow]] = {}
    for klass, flows in classes.items():
        labels[klass] = [flow.label(index, klass) for index, flow in enumerate(flows)]
        plans[klass] = []
        for flow in flows:
            _reject_loopback(flow)
            plans[klass].append(source.plan(flow))
    all_labels = [label for group in labels.values() for label in group]
    if len(set(all_labels)) != len(all_labels):
        raise QueryError("flow labels must be unique within a query")
    stages = {
        klass: stage_arrays(
            klass,
            [flow.requested for flow in flows],
            [flow.cap for flow in flows],
            [plan.row for plan in plans[klass]],
            source.keyspace,
        )
        for klass, flows in classes.items()
        if flows
    }

    # Price and solve, once per availability level, over the union of the
    # resources the flows cross (uncrossed ones never move an allocation).
    ref = [stage.res_ids for stage in stages.values()]
    uniq = np.unique(np.concatenate(ref)) if ref else np.empty(0, dtype=np.int64)
    size = int(uniq[-1]) + 1 if uniq.size else 0
    solved: dict[str, dict[str, tuple]] = {}
    for level in SOLVE_LEVELS:
        values, present = source.level_values(level, uniq)
        # Entry clamp, with Python's ``max(0.0, cap)`` NaN semantics.
        clamped = np.maximum(0.0, values)
        clamped[np.isnan(values)] = 0.0
        remaining = np.zeros(size, dtype=np.float64)
        present_ids = np.zeros(size, dtype=bool)
        if uniq.size:
            remaining[uniq] = np.where(present, clamped, 0.0)
            present_ids[uniq] = present
        solved[level] = solve_stages(stages, remaining, present_ids)

    # Answer.  One accuracy for the whole answer: the worst among the
    # directions any queried flow traverses.
    accuracy = 1.0
    for group in plans.values():
        for plan in group:
            accuracy = min(accuracy, plan.accuracy)
    answers = {klass: [] for klass in CLASSES}
    for klass, stage in stages.items():
        flows = classes[klass]
        median_rates, bottleneck, _ = solved["median"][klass]
        satisfied = (
            fixed_satisfied(median_rates, [flow.requested for flow in flows]).tolist()
            if klass == "fixed"
            else None
        )
        answers[klass] = _answers(
            flows,
            labels[klass],
            plans[klass],
            [solved[level][klass][0] for level in _LEVELS],
            solved["mean"][klass][0].tolist(),
            [None if r < 0 else stage.res_keys[r] for r in bottleneck.tolist()],
            satisfied,
            accuracy,
        )
    return FlowInfoResult(timeframe=timeframe, **answers)


def _answers(
    flows, labels, plans, level_rates, mean_rates, bottlenecks, satisfied, accuracy
) -> list[FlowAnswer]:
    """Every :class:`FlowAnswer` of one flow class."""
    stack = np.stack(level_rates)
    if np.isnan(stack).any():  # pragma: no cover - NaN rates are exotic
        # Python sorted's NaN ordering differs from np.sort's; sort each
        # flow's rates the way a per-flow sorted() would.
        quartile_rows = [
            sorted(float(column[i]) for column in level_rates)
            for i in range(len(flows))
        ]
    else:
        # Rates at rising availability are monotone in common cases;
        # sorting guards the multi-bottleneck exception so the StatMeasure
        # invariant holds.  Columnwise np.sort == per-flow sorted() for
        # NaN-free floats, and .tolist() yields Python floats.
        quartile_rows = np.sort(stack, axis=0).T.tolist()
    measure = StatMeasure.presorted
    n_levels = len(_LEVELS)
    return [
        FlowAnswer(
            flow=flow,
            label=labels[i],
            bandwidth=measure(quartile_rows[i], mean_rates[i], n_levels, accuracy),
            latency=plans[i].latency,
            hop_count=plans[i].hop_count,
            satisfied=None if satisfied is None else satisfied[i],
            bottleneck=bottlenecks[i],
        )
        for i, flow in enumerate(flows)
    ]
