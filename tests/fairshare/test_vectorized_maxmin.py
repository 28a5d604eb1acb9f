"""The max-min kernel and the flow pipeline vs the frozen scalar loop.

The numpy waterfilling kernel (:mod:`repro.fairshare.vectorized`) is a
*reordering* of the scalar loop's float operations, not a reformulation:
``np.bincount`` accumulates weight sums in entry order, theta updates are
applied full-vector with masked zero weights (adding ``+0.0`` never
perturbs a positive partial sum), and multi-saturation bottleneck
attribution reproduces the scalar pass's in-order freeze.  So the
contract against the frozen loop (``tests/core/_oracle_flow.py``) is
exact: equal float *bits* for every rate and residual, the same dict
ordering, the same bottleneck attributions, the same iteration count,
and the same raised errors — across randomized adversarial inputs
(duplicate crossings, zero/absent capacities, zero caps, infinities).

The staged chain and the whole query pipeline are held to the same
contract: ``allocate_three_stage`` against the frozen ``StagedProblem``,
and ``flow_info_batch`` against the frozen scalar evaluator — multicast,
small queries and all three flow classes included.
"""

import math
import random
import struct

import pytest

from repro.collector import MetricsStore
from repro.collector.base import NetworkView
from repro.core import Flow, FlowQuery, MulticastFlow, Remos, Timeframe
from repro.fairshare import Demand, FlowRequest, MaxMinProblem, allocate_three_stage
from repro.fairshare import vectorized
from repro.net import TopologyBuilder
from repro.util import mbps

from tests.core import _oracle_flow as oracle
from tests.core.conftest import measured_view


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def assert_same_floats(a: dict, b: dict, label: str) -> None:
    assert list(a) == list(b), f"{label}: key order diverged"
    for key in a:
        x, y = a[key], b[key]
        same = (math.isnan(x) and math.isnan(y)) or bits(x) == bits(y)
        assert same, f"{label}[{key}]: {x!r} vs {y!r}"


def random_problem(rng: random.Random):
    n_res = rng.randint(1, 12)
    resources = [f"r{i}" for i in range(n_res)]
    demands = []
    for i in range(rng.randint(1, 40)):
        k = rng.randint(1, min(5, n_res))
        crossed = tuple(rng.choice(resources) for _ in range(k))  # repeats allowed
        weight = rng.choice([1.0, 1.0, rng.uniform(0.1, 10.0)])
        cap = rng.choice([math.inf, math.inf, rng.uniform(0.0, 50.0), 0.0])
        demands.append(
            Demand(flow_id=f"f{i}", resources=crossed, weight=weight, cap=cap)
        )
    capacities = {}
    for resource in resources:
        if rng.random() < 0.8:  # some resources absent from capacities
            capacities[resource] = rng.choice(
                [rng.uniform(0.0, 100.0), 0.0, rng.uniform(0.0, 1.0)]
            )
    return demands, capacities


def solve_both(demands, capacities):
    """(scalar oracle result|error, kernel result|error) for one problem."""
    outcomes = []
    for problem in (oracle.MaxMinProblem, MaxMinProblem):
        try:
            outcomes.append((problem(demands).solve(dict(capacities)), None))
        except Exception as exc:  # noqa: BLE001 - error parity is the assertion
            outcomes.append((None, (type(exc).__name__, str(exc))))
    return outcomes


def check_identical(demands, capacities) -> None:
    (scalar, scalar_err), (vector, vector_err) = solve_both(demands, capacities)
    assert scalar_err == vector_err
    if scalar is None:
        return
    assert_same_floats(dict(scalar.rates), dict(vector.rates), "rates")
    assert scalar.bottlenecks == vector.bottlenecks
    assert_same_floats(
        dict(scalar.residual_capacity), dict(vector.residual_capacity), "residual"
    )
    assert scalar.iterations == vector.iterations


def test_differential_fuzz_bit_identical():
    rng = random.Random(20260808)
    for _ in range(500):
        check_identical(*random_problem(rng))


def test_single_demand_shapes():
    for cap in (math.inf, 5.0, 0.0):
        check_identical(
            [Demand(flow_id="f0", resources=("r0",), cap=cap)], {"r0": 10.0}
        )


def test_unconstrained_is_infinite_both_paths():
    demands = [Demand(flow_id="f0", resources=("missing",))]
    (scalar, _), (vector, _) = solve_both(demands, {"r0": 1.0})
    assert scalar.rates["f0"] == math.inf
    assert vector.rates["f0"] == math.inf


def test_shared_bottleneck_attribution():
    # Two resources saturate at the same theta: attribution must pick the
    # same winner on both paths (the scalar loop freezes in crossing order).
    demands = [
        Demand(flow_id="a", resources=("r0", "r1")),
        Demand(flow_id="b", resources=("r1", "r0")),
    ]
    check_identical(demands, {"r0": 10.0, "r1": 10.0})


def test_duplicate_crossings_count_twice():
    check_identical(
        [Demand(flow_id="a", resources=("r0", "r0"))],
        {"r0": 10.0},
    )


def test_every_solve_runs_the_kernel():
    before = vectorized.counters["vectorized_solves"]
    MaxMinProblem([Demand(flow_id="f0", resources=("r0",))]).solve({"r0": 1.0})
    assert vectorized.counters["vectorized_solves"] == before + 1


def test_staged_chain_fuzz_bit_identical():
    """``allocate_three_stage`` vs the frozen ``StagedProblem``."""
    rng = random.Random(7)
    for _ in range(300):
        demands, capacities = random_problem(rng)
        classes = {"fixed": [], "variable": [], "independent": []}
        for demand in demands:
            klass = rng.choice(list(classes))
            requested = rng.choice([0.0, 1.0, 2.5, rng.uniform(0.0, 40.0)])
            classes[klass].append(
                FlowRequest(demand.flow_id, demand.resources, requested, demand.cap)
            )
        new = allocate_three_stage(capacities, **classes)
        old = oracle.StagedProblem(**classes).solve(capacities)
        assert_same_floats(new.rates, old.rates, "rates")
        assert new.bottlenecks == old.bottlenecks
        assert new.satisfied == old.satisfied
        assert_same_floats(new.residual_capacity, old.residual_capacity, "residual")
        assert new.iterations == old.iterations


def two_level_tree():
    builder = TopologyBuilder("diff").router("core")
    hosts = []
    for leaf in range(4):
        router = f"leaf{leaf}"
        builder.router(router).link(router, "core", "1Gbps", "0.5ms")
        for slot in range(4):
            host = f"h{leaf * 4 + slot}"
            hosts.append(host)
            builder.host(host).link(host, router, "100Mbps", "0.1ms")
    return builder.build(), hosts


def assert_batch_matches_oracle(remos: Remos, queries, timeframe) -> None:
    """flow_info_batch == the frozen scalar evaluator on the same views."""
    answers = remos.flow_info_batch(queries, timeframe)
    modeler = remos._modeler()
    views = {
        level: modeler.capacity_view(timeframe, quantile=level)
        for level in ("minimum", "q1", "median", "q3", "maximum", "mean")
    }
    for query, answer in zip(queries, answers):
        expected = oracle.evaluate_flow_query(
            modeler,
            list(query.fixed),
            list(query.variable),
            list(query.independent),
            timeframe,
            views,
        )
        assert answer.answers  # non-degenerate comparison
        oracle.assert_results_identical(answer, expected)


def test_flow_info_batch_answers_identical_end_to_end():
    """The whole query path: pipeline vs frozen scalar evaluator."""
    topology, hosts = two_level_tree()
    pool = hosts[::3]
    queries = [
        FlowQuery(
            variable=[
                Flow(src, dst, requested=2.0)
                for src in pool
                for dst in pool
                if src != dst
            ]
        ),
        FlowQuery(
            fixed=[Flow(pool[0], pool[1], requested=40.0)],
            independent=[Flow(pool[2], pool[3], cap=30.0)],
        ),
    ]
    remos = Remos(NetworkView(topology=topology, metrics=MetricsStore()))
    assert_batch_matches_oracle(remos, queries, Timeframe.current())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_mixed_and_multicast_queries_identical(seed):
    """Inputs the scalar path used to answer: < 12 flows, multicast, and
    fixed/variable/independent mixes, over randomized measured load."""
    rng = random.Random(seed)
    topology, hosts = two_level_tree()
    loads = {
        (d.link.name, d.src): rng.uniform(0.0, mbps(90))
        for d in topology.iter_directions()
    }
    remos = Remos(measured_view(topology, loads, samples=12))

    def pair():
        return rng.sample(hosts, 2)

    queries = [
        FlowQuery(variable=[Flow(*pair())]),
        FlowQuery(
            fixed=[Flow(*pair(), requested=mbps(rng.uniform(1, 60))) for _ in range(3)],
            variable=[Flow(*pair(), requested=rng.choice([0.0, 1.0, 3.0])) for _ in range(3)],
            independent=[Flow(*pair(), cap=mbps(rng.uniform(5, 80))) for _ in range(2)],
        ),
        FlowQuery(
            variable=[MulticastFlow(hosts[0], rng.sample(hosts[1:], 3))],
            independent=[Flow(*pair())],
        ),
        FlowQuery(
            fixed=[MulticastFlow(hosts[5], rng.sample(hosts[6:], 2), requested=mbps(30))],
            variable=[Flow(*pair(), requested=2.0), Flow(*pair(), requested=1.0)],
        ),
    ]
    for timeframe in (Timeframe.current(), Timeframe.history(10.0)):
        assert_batch_matches_oracle(remos, queries, timeframe)
