"""The federation acceptance suite: federated vs single-cell oracle.

Discipline (docs/FEDERATION.md): intra-shard answers are **bit-identical**
to a single-cell Remos over the same collectors; cross-shard answers are
**conservative** — no flow is ever promised more bandwidth than the oracle
would grant it queried alone.
"""

import random

import pytest

from repro.core import Flow, FlowQuery, MulticastFlow, Timeframe
from repro.federation.api import _QueryPin
from repro.util.errors import QueryError

from tests.core import _oracle_flow as oracle
from tests.federation.conftest import make_world

LEVELS = ("minimum", "q1", "median", "q3", "maximum", "mean")
# Conservative means fed <= oracle; allow only float round-off headroom.
TOL = 1.0 + 1e-9


def answers_identical(fed, oracle):
    """Bit-identical FlowAnswer comparison (StatMeasure is frozen: == works)."""
    assert fed.label == oracle.label
    assert fed.bandwidth == oracle.bandwidth
    assert fed.latency == oracle.latency
    assert fed.hop_count == oracle.hop_count
    assert fed.satisfied == oracle.satisfied
    assert fed.bottleneck == oracle.bottleneck


def answers_equal_values(fed, oracle):
    """Value equality for cross-shard exactness claims.

    The composed plane prices the WAN through ``("fed", a, b, dir)``
    resource keys, so bottleneck *identity* legitimately differs from the
    oracle's physical link key — everything the application consumes
    (rates, latency, hops, satisfaction) must still match exactly.
    """
    assert fed.label == oracle.label
    assert fed.bandwidth == oracle.bandwidth
    assert fed.latency == oracle.latency
    assert fed.hop_count == oracle.hop_count
    assert fed.satisfied == oracle.satisfied


def assert_conservative(fed_answer, oracle_alone_answer):
    for level in LEVELS:
        fed = getattr(fed_answer.bandwidth, level)
        alone = getattr(oracle_alone_answer.bandwidth, level)
        assert fed <= alone * TOL, (
            f"federated {level}={fed} exceeds oracle-alone {alone} "
            f"for {fed_answer.label}"
        )


class TestIntraShardBitIdentical:
    """Queries inside one shard go through the cell's own snapshot."""

    PAIRS = [
        ("s0-leaf0-h0", "s0-leaf1-h1"),
        ("s1-leaf0-h1", "s1-leaf1-h0"),
        ("s2-leaf0-h0", "s2-leaf0-h1"),
    ]

    @pytest.mark.parametrize("src,dst", PAIRS)
    def test_variable_flow(self, loaded_world, src, dst):
        _world, remos, oracle = loaded_world
        fed = remos.flow_info(variable_flows=[Flow(src, dst)])
        ref = oracle.flow_info(variable_flows=[Flow(src, dst)])
        answers_identical(fed.variable[0], ref.variable[0])

    def test_mixed_class_scenario(self, loaded_world):
        _world, remos, oracle = loaded_world
        kwargs = dict(
            fixed_flows=[Flow("s0-leaf0-h0", "s0-leaf1-h0", requested=50e6)],
            variable_flows=[
                Flow("s0-leaf0-h1", "s0-leaf1-h1", requested=2.0),
                Flow("s0-leaf1-h0", "s0-leaf0-h0", requested=1.0),
            ],
            independent_flows=[Flow("s0-leaf0-h0", "s0-leaf0-h1")],
        )
        fed = remos.flow_info(**kwargs)
        ref = oracle.flow_info(**kwargs)
        for fed_answer, ref_answer in zip(fed.answers, ref.answers):
            answers_identical(fed_answer, ref_answer)

    def test_intra_multicast(self, loaded_world):
        _world, remos, oracle = loaded_world
        tree = MulticastFlow("s1-leaf0-h0", ("s1-leaf0-h1", "s1-leaf1-h1"))
        fed = remos.flow_info(variable_flows=[tree])
        ref = oracle.flow_info(variable_flows=[tree])
        answers_identical(fed.variable[0], ref.variable[0])


class TestCrossShardConservative:
    """Composed answers never overestimate what the oracle would grant."""

    def test_exact_on_idle_single_member_mesh(self, small_world):
        # One flow, one WAN link per shard pair: the composed answer is
        # not just conservative but *equal* — same series, same segments.
        _world, remos, oracle = small_world
        fed = remos.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s2-leaf1-h1")])
        ref = oracle.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s2-leaf1-h1")])
        answers_equal_values(fed.variable[0], ref.variable[0])

    def test_single_flows_under_load(self, loaded_world):
        _world, remos, oracle = loaded_world
        pairs = [
            ("s0-leaf0-h0", "s1-leaf0-h0"),
            ("s1-leaf1-h1", "s2-leaf0-h1"),
            ("s2-leaf0-h0", "s0-leaf1-h0"),
        ]
        for src, dst in pairs:
            fed = remos.flow_info(variable_flows=[Flow(src, dst)])
            alone = oracle.flow_info(variable_flows=[Flow(src, dst)])
            assert_conservative(fed.variable[0], alone.variable[0])

    def test_mixed_scenario_per_flow_alone_gate(self, loaded_world):
        # Max-min is not per-flow monotone, so the sound gate is: every
        # flow's federated share <= what the oracle grants that flow ALONE.
        _world, remos, oracle = loaded_world
        flows = [
            Flow("s0-leaf0-h0", "s2-leaf1-h1"),  # cross, transit-free mesh
            Flow("s1-leaf0-h0", "s1-leaf1-h0"),  # intra, inside cross scenario
            Flow("s2-leaf0-h1", "s0-leaf0-h1"),  # cross, reverse direction
        ]
        fed = remos.flow_info(variable_flows=flows)
        for index, flow in enumerate(flows):
            alone = oracle.flow_info(variable_flows=[flow])
            assert_conservative(fed.variable[index], alone.variable[0])

    def test_randomized_pairs(self, loaded_world):
        _world, remos, oracle = loaded_world
        hosts = sorted(_world.registry.hosts())
        rng = random.Random(42)
        for _ in range(8):
            src, dst = rng.sample(hosts, 2)
            fed = remos.flow_info(variable_flows=[Flow(src, dst)])
            alone = oracle.flow_info(variable_flows=[Flow(src, dst)])
            if _world.registry.shard_of(src) == _world.registry.shard_of(dst):
                answers_identical(fed.variable[0], alone.variable[0])
            else:
                assert_conservative(fed.variable[0], alone.variable[0])

    def test_cross_multicast_unsupported(self, small_world):
        _world, remos, _oracle = small_world
        tree = MulticastFlow("s0-leaf0-h0", ("s0-leaf0-h1", "s1-leaf0-h0"))
        with pytest.raises(QueryError, match="multicast"):
            remos.flow_info(variable_flows=[tree])

    def test_unknown_endpoint(self, small_world):
        _world, remos, _oracle = small_world
        with pytest.raises(QueryError):
            remos.flow_info(variable_flows=[Flow("s0-leaf0-h0", "nope")])

    def test_switch_endpoint_rejected(self, small_world):
        # Only compute nodes are registry-indexed: a gateway endpoint is
        # unknown to the query plane, exactly like a bogus name.
        _world, remos, _oracle = small_world
        with pytest.raises(QueryError, match="unknown flow endpoint"):
            remos.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s1-gw")])


CROSS_SCENARIOS = [
    FlowQuery(variable=[Flow("s0-leaf0-h0", "s1-leaf0-h0")]),
    FlowQuery(
        fixed=[
            Flow("s0-leaf0-h0", "s2-leaf1-h1", requested=120e6),
            Flow("s1-leaf0-h1", "s1-leaf1-h0", requested=30e6),
        ],
        variable=[
            Flow("s2-leaf0-h1", "s0-leaf0-h1", requested=3.0),
            Flow("s0-leaf1-h0", "s1-leaf1-h1", requested=1.0),
        ],
        independent=[
            Flow("s1-leaf0-h0", "s2-leaf0-h0", cap=50e6),
            Flow("s2-leaf1-h0", "s0-leaf1-h1"),
        ],
    ),
    FlowQuery(
        variable=[Flow("s0-leaf0-h0", "s1-leaf1-h1"), Flow("s0-leaf0-h1", "s1-leaf1-h0")],
        independent=[MulticastFlow("s2-leaf0-h0", ("s2-leaf0-h1", "s2-leaf1-h1"))],
    ),
]


class TestCrossShardFrozen:
    """Cross-shard answers == the frozen pre-unification ``_evaluate_cross``."""

    @pytest.mark.parametrize(
        "timeframe", [Timeframe.current(), Timeframe.history(10.0)], ids=str
    )
    @pytest.mark.parametrize("world", ["small_world", "loaded_world"])
    def test_batch_bit_identical(self, request, world, timeframe):
        _world, remos, _oracle = request.getfixturevalue(world)
        batched = remos.flow_info_batch(CROSS_SCENARIOS, timeframe)
        pin = _QueryPin(remos, timeframe)
        for scenario, answer in zip(CROSS_SCENARIOS, batched):
            expected = oracle.evaluate_cross(remos, pin, scenario, timeframe)
            oracle.assert_results_identical(answer, expected)

    def test_transit_ring_bit_identical(self):
        world, remos, _oracle = make_world(shards=4, wan="ring", warmup=4.0)
        try:
            timeframe = Timeframe.current()
            scenario = FlowQuery(
                variable=[
                    Flow("s0-leaf0-h0", "s2-leaf0-h0"),
                    Flow("s1-leaf1-h1", "s3-leaf0-h1", requested=2.0),
                ]
            )
            answer = remos._evaluate_cross(_QueryPin(remos, timeframe), scenario, timeframe)
            expected = oracle.evaluate_cross(
                remos, _QueryPin(remos, timeframe), scenario, timeframe
            )
            oracle.assert_results_identical(answer, expected)
        finally:
            world.stop()


class TestLoopback:
    """A flow to itself has no network answer: refused, never ``inf``."""

    def test_intra_shard_loopback_rejected(self, small_world):
        _world, remos, _oracle = small_world
        with pytest.raises(QueryError, match="loopback"):
            remos.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s0-leaf0-h0")])

    def test_loopback_inside_cross_scenario_rejected(self, small_world):
        _world, remos, _oracle = small_world
        with pytest.raises(QueryError, match="loopback"):
            remos.flow_info(
                variable_flows=[
                    Flow("s0-leaf0-h0", "s1-leaf0-h0"),
                    Flow("s2-leaf0-h1", "s2-leaf0-h1"),
                ]
            )

    def test_multicast_to_its_source_rejected(self, small_world):
        _world, remos, _oracle = small_world
        tree = MulticastFlow("s1-leaf0-h0", ("s1-leaf0-h1", "s1-leaf0-h0"))
        with pytest.raises(QueryError, match="loopback"):
            remos.flow_info(variable_flows=[tree])


class TestBundledWan:
    """Parallel WAN links collapse to one summary edge: strictly conservative."""

    @pytest.fixture(scope="class")
    def world(self):
        return make_world(
            shards=2,
            wan_members=2,
            seed=11,
            warmup=4.0,
        )

    def test_bundle_never_overestimates(self, world):
        _world, remos, oracle = world
        for src, dst in [
            ("s0-leaf0-h0", "s1-leaf1-h1"),
            ("s1-leaf0-h1", "s0-leaf1-h0"),
        ]:
            fed = remos.flow_info(variable_flows=[Flow(src, dst)])
            alone = oracle.flow_info(variable_flows=[Flow(src, dst)])
            assert_conservative(fed.variable[0], alone.variable[0])

    def test_summary_edge_bundles_both_members(self, world):
        w, remos, _oracle = world
        (edge,) = remos.snapshot().edges
        assert set(edge.members) == set(w.plan.wan_links)
        assert len(edge.members) == 2


class TestBatchAndTransit:
    def test_batch_matches_individual_calls(self, loaded_world):
        _world, remos, _oracle = loaded_world
        queries = [
            FlowQuery(variable=(Flow("s0-leaf0-h0", "s0-leaf1-h1"),)),  # intra s0
            FlowQuery(variable=(Flow("s0-leaf0-h0", "s2-leaf1-h1"),)),  # cross
            FlowQuery(
                fixed=(Flow("s1-leaf0-h0", "s1-leaf1-h0", requested=10e6),)
            ),  # intra s1
            FlowQuery(variable=(Flow("s2-leaf0-h0", "s1-leaf0-h1"),)),  # cross
        ]
        batched = remos.flow_info_batch(queries)
        assert len(batched) == len(queries)
        for query, result in zip(queries, batched):
            single = remos.flow_info(
                fixed_flows=list(query.fixed),
                variable_flows=list(query.variable),
                independent_flows=list(query.independent),
            )
            for batch_answer, single_answer in zip(result.answers, single.answers):
                answers_identical(batch_answer, single_answer)

    def test_ring_transit(self):
        # 4 shards on a ring: s0 -> s2 must transit a neighbour shard's
        # gateway; the answer stays conservative vs the oracle.
        world, remos, oracle = make_world(shards=4, wan="ring", warmup=4.0)
        try:
            path = remos.snapshot().summary_path("s0", "s2")
            assert len(path) == 2  # no direct s0|s2 bundle on a ring
            fed = remos.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s2-leaf0-h0")])
            alone = oracle.flow_info(
                variable_flows=[Flow("s0-leaf0-h0", "s2-leaf0-h0")]
            )
            assert_conservative(fed.variable[0], alone.variable[0])
            # Idle ring with uniform capacities: composed equals oracle
            # (latency up to float summation order across the segments).
            assert fed.variable[0].bandwidth == alone.variable[0].bandwidth
            assert fed.variable[0].hop_count == alone.variable[0].hop_count
            assert fed.variable[0].latency.median == pytest.approx(
                alone.variable[0].latency.median
            )
        finally:
            world.stop()


class TestAdmission:
    def test_intra_admission_identical(self, small_world):
        _world, remos, oracle = small_world
        flows = [Flow("s0-leaf0-h0", "s0-leaf1-h0", requested=400e6)]
        fed = remos.check_admission(flows)
        ref = oracle.check_admission(flows)
        assert fed.admitted == ref.admitted
        assert fed.oversubscribed == ref.oversubscribed

    def test_cross_admission_is_conservative(self, small_world):
        # Federation-admitted must imply oracle-admitted, never the reverse.
        _world, remos, oracle = small_world
        for rate in (100e6, 300e6, 450e6, 600e6):
            flows = [Flow("s0-leaf0-h0", "s1-leaf0-h0", requested=rate)]
            fed = remos.check_admission(flows)
            if fed.admitted:
                assert oracle.check_admission(flows).admitted

    def test_cross_admission_refuses_unpriceable_resources(
        self, small_world, monkeypatch
    ):
        # An unpriced key would read as infinite capacity and make the
        # federated answer *less* strict than the oracle; refuse instead.
        from repro.federation.api import FederatedRemos

        _world, remos, _oracle = small_world
        original = FederatedRemos._plan_flow

        def tainted(self, pin, flow):
            plan = original(self, pin, flow)
            plan.resources = (*plan.resources, ("alien", "resource"))
            return plan

        monkeypatch.setattr(FederatedRemos, "_plan_flow", tainted)
        flows = [Flow("s0-leaf0-h0", "s1-leaf0-h0", requested=1e6)]
        with pytest.raises(QueryError, match="no shard can price"):
            remos.check_admission(flows)
        with pytest.raises(QueryError, match="no shard can price"):
            remos.flow_info(fixed_flows=flows)

    def test_cross_admission_rejects_oversubscription(self, small_world):
        # WAN is 500Mbps: two 400Mbps flows over the same bundle can't fit.
        _world, remos, _oracle = small_world
        flows = [
            Flow("s0-leaf0-h0", "s1-leaf0-h0", requested=400e6),
            Flow("s0-leaf0-h1", "s1-leaf0-h1", requested=400e6),
        ]
        report = remos.check_admission(flows)
        assert not report.admitted
        assert report.oversubscribed


class TestGatewayAnchoring:
    """Composed answers anchor at the summary edges' border routers."""

    def test_decoy_first_gateway_is_ignored(self):
        # The Cell API allows several gateways; the one a WAN edge attaches
        # to is authoritative, whatever order the cell declares them in.
        world, remos, oracle = make_world(shards=2, warmup=2.0)
        try:
            cell = world.cells["s0"]
            cell.gateways = ("s0-spine1", *cell.gateways)  # decoy first
            world.refresh_all()
            flow = Flow("s0-leaf0-h0", "s1-leaf1-h1")
            fed = remos.flow_info(variable_flows=[flow])
            ref = oracle.flow_info(variable_flows=[flow])
            answers_equal_values(fed.variable[0], ref.variable[0])
            graph = remos.get_graph(["s0-leaf0-h0", "s1-leaf1-h1"])
            (edge,) = [e for e in graph.edges if e.name.startswith("fed:")]
            assert {edge.a, edge.b} == {"s0-gw", "s1-gw"}
            assert graph.path_available("s0-leaf0-h0", "s1-leaf1-h1") is not None
            report = remos.check_admission([Flow(flow.src, flow.dst, requested=1e6)])
            assert report.admitted
        finally:
            world.stop()


class TestFederatedGraph:
    def test_single_shard_graph_is_delegated(self, small_world):
        _world, remos, oracle = small_world
        nodes = ["s1-leaf0-h0", "s1-leaf1-h1"]
        fed = remos.get_graph(nodes)
        ref = oracle.get_graph(nodes)
        assert fed.collapse == ref.collapse
        assert {n.name for n in fed.nodes} == {n.name for n in ref.nodes}

    def test_cross_shard_graph_composition(self, small_world):
        world, remos, _oracle = small_world
        nodes = ["s0-leaf0-h0", "s2-leaf1-h1"]
        graph = remos.get_graph(nodes)
        assert graph.collapse == "federated"
        for name in nodes + ["s0-gw", "s2-gw"]:
            assert graph.has_node(name)
        fed_edges = [e for e in graph.edges if e.name.startswith("fed:")]
        assert len(fed_edges) == 1
        (edge,) = fed_edges
        assert edge.physical_links == ("wan:s0|s2",)
        assert {edge.a, edge.b} == {"s0-gw", "s2-gw"}
        assert edge.available_from("s0-gw").median > 0
        assert graph.path_available("s0-leaf0-h0", "s2-leaf1-h1") is not None

    def test_graph_over_three_shards(self, small_world):
        _world, remos, _oracle = small_world
        nodes = ["s0-leaf0-h0", "s1-leaf0-h0", "s2-leaf0-h0"]
        graph = remos.get_graph(nodes)
        assert graph.collapse == "federated"
        fed_edges = {e.name for e in graph.edges if e.name.startswith("fed:")}
        # Mesh: each involved pair contributes its direct bundle.
        assert fed_edges == {"fed:s0|s1", "fed:s0|s2", "fed:s1|s2"}
