"""Answer checks applied to every 200 the generator receives.

Each check returns an error string, or None when the answer holds:

* one answer per requested flow (in request order) or host;
* every number finite;
* every quartile summary ordered ``min <= q1 <= median <= q3 <= max``;
* the flows leaving (or entering) one host sum to at most its access
  link's static capacity at the ``min`` level, and no flow's ``max``
  exceeds it -- checked against the topology the benchmark builds from
  the same seeded spec;
* every graph answer names every requested host.

Why only ``min`` is summed: Remos solves one max-min allocation per
availability quantile (every link at its q1, at its median, ...), each of
them feasible, and reports each flow's five rates *sorted*.  A flow's
``q3`` is therefore the fourth order statistic of its own rates, a
marginal; when allocations are not monotone across the scenarios (common
with several bottlenecks) the ``q3`` values of flows sharing a link come
from different scenarios and may sum above the link.  The sum of per-flow
minimums is bounded by any one scenario's sum, so it is the joint bound
the answer does certify.  :func:`oversubscribed` counts answers whose
interior columns exceed a link, so the effect stays visible.
"""

from __future__ import annotations

import json
import math

from worlds import LEVELS

#: Relative slack on the capacity sums (float rounding in the allocator).
CAPACITY_SLACK = 1e-9


def check(query, body: bytes, capacity: dict[str, float]) -> str | None:
    try:
        answer = json.loads(body)
    except ValueError as error:
        return f"unparseable body: {error}"
    bad = _first_nonfinite(answer)
    if bad is not None:
        return f"non-finite number at {bad}"
    if query.kind == "flow_info":
        return _check_flows(query, answer, capacity)
    if query.kind == "graph":
        names = {node["name"] for node in answer.get("nodes", ())}
        missing = [h for h in query.hosts if h not in names]
        return f"graph lacks hosts {missing}" if missing else None
    if query.kind == "node":
        if answer.get("name") != query.hosts[0]:
            return f"node answer for {answer.get('name')!r}, asked {query.hosts[0]!r}"
        for key in ("cpu_load", "cpu_available"):
            error = _ordered(answer.get(key), key)
            if error:
                return error
        return None
    return f"unknown query kind {query.kind!r}"


def _check_flows(query, answer: dict, capacity: dict[str, float]) -> str | None:
    flows = answer.get("variable", [])
    if len(flows) != len(query.flows):
        return f"{len(flows)} flow answers for {len(query.flows)} flows"
    for (src, dst), flow in zip(query.flows, flows):
        if (flow.get("src"), flow.get("dst")) != (src, dst):
            return f"answer for {flow.get('src')}->{flow.get('dst')}, asked {src}->{dst}"
        error = _ordered(flow.get("bandwidth"), f"{src}->{dst}")
        if error:
            return error
        top = flow["bandwidth"]["max"]
        if top > min(capacity[src], capacity[dst]) * (1 + CAPACITY_SLACK):
            return f"{src}->{dst} max {top:.6g} exceeds its access link"
    for (side, host, level), total in _link_sums(query, flows, ("min",)).items():
        if total > capacity[host] * (1 + CAPACITY_SLACK):
            return f"{level} flows {side} {host} sum {total:.6g} > capacity {capacity[host]:.6g}"
    return None


def _link_sums(query, flows, levels) -> dict[tuple[str, str, str], float]:
    sums: dict[tuple[str, str, str], float] = {}
    for (src, dst), flow in zip(query.flows, flows):
        for level in levels:
            value = flow["bandwidth"][level]
            for key in (("out of", src, level), ("into", dst, level)):
                sums[key] = sums.get(key, 0.0) + value
    return sums


def oversubscribed(query, body: bytes, capacity: dict[str, float]) -> bool:
    """Whether a flow answer's q1/median/q3 columns over-fill an access link."""
    if query.kind != "flow_info":
        return False
    flows = json.loads(body)["variable"]
    return any(
        total > capacity[host] * (1 + CAPACITY_SLACK)
        for (_, host, _), total in _link_sums(query, flows, ("q1", "median", "q3")).items()
    )


def _ordered(measure, where: str) -> str | None:
    if not isinstance(measure, dict) or any(k not in measure for k in LEVELS):
        return f"{where}: missing quartile summary"
    values = [measure[k] for k in LEVELS]
    if any(a > b for a, b in zip(values, values[1:])):
        return f"{where}: quartiles out of order {values}"
    return None


def _first_nonfinite(value, path: str = "$") -> str | None:
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        for key, item in value.items():
            found = _first_nonfinite(item, f"{path}.{key}")
            if found:
                return found
    elif isinstance(value, list):
        for index, item in enumerate(value):
            found = _first_nonfinite(item, f"{path}[{index}]")
            if found:
                return found
    return None
