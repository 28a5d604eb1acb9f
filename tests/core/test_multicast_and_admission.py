"""Multicast flow queries and admission checks through the Remos API."""

import pytest

from repro.core import Flow, MulticastFlow, Remos, Timeframe
from repro.util import mbps
from repro.util.errors import QueryError

from tests.core.conftest import line_topology, measured_view


@pytest.fixture
def remos():
    return Remos(measured_view(line_topology(), {}))


class TestMulticastQueries:
    def test_multicast_flow_answered(self, remos):
        result = remos.flow_info(
            variable_flows=[MulticastFlow("h1", ["h2", "h3"], name="mc")]
        )
        answer = result.answer("mc")
        assert answer.bandwidth.median == pytest.approx(mbps(100))
        # Deepest receiver (h3) is 4 hops away: latency 2.2ms.
        assert answer.latency.median == pytest.approx(2.2e-3)

    def test_multicast_charges_tree_once(self, remos):
        # A multicast h1 -> {h3, h4} and a unicast h2 -> h3 share the
        # backbone: multicast counts once there, so both get 50.
        result = remos.flow_info(
            variable_flows=[
                MulticastFlow("h1", ["h3", "h4"], name="mc"),
                Flow("h2", "h4", name="uni"),
            ]
        )
        assert result.answer("mc").bandwidth.median == pytest.approx(mbps(50))
        assert result.answer("uni").bandwidth.median == pytest.approx(mbps(50))

    def test_multicast_vs_repeated_unicast(self, remos):
        # Repeated unicast from h1 to 2 receivers halves the uplink share;
        # multicast does not.
        unicast = remos.flow_info(
            variable_flows=[
                Flow("h1", "h3", name="u1"),
                Flow("h1", "h4", name="u2"),
            ]
        )
        multicast = remos.flow_info(
            variable_flows=[MulticastFlow("h1", ["h3", "h4"], name="mc")]
        )
        assert unicast.answer("u1").bandwidth.median == pytest.approx(mbps(50))
        assert multicast.answer("mc").bandwidth.median == pytest.approx(mbps(100))

    def test_multicast_validation(self):
        with pytest.raises(QueryError, match="at least one receiver"):
            MulticastFlow("h1", [])
        with pytest.raises(QueryError, match="negative"):
            MulticastFlow("h1", ["h2"], requested=-1)
        with pytest.raises(QueryError, match="cap must be positive"):
            MulticastFlow("h1", ["h2"], cap=float("nan"))

    def test_multicast_unknown_receiver(self, remos):
        with pytest.raises(QueryError, match="unknown flow endpoint"):
            remos.flow_info(variable_flows=[MulticastFlow("h1", ["ghost"])])

    def test_multicast_fixed_class(self, remos):
        result = remos.flow_info(
            fixed_flows=[MulticastFlow("h1", ["h2", "h3"], requested=mbps(20), name="f")]
        )
        assert result.answer("f").satisfied is True


class TestAdmissionQuery:
    def test_admits_on_idle_network(self, remos):
        report = remos.check_admission(
            [Flow("h1", "h3", requested=mbps(60), name="r1")]
        )
        assert report.admitted

    def test_rejects_oversubscribed_set(self, remos):
        report = remos.check_admission(
            [
                Flow("h1", "h3", requested=mbps(60), name="r1"),
                Flow("h2", "h4", requested=mbps(60), name="r2"),
            ]
        )
        assert not report.admitted
        # The shared backbone is the offender.
        assert any("t12" in str(k) or "t23" in str(k) for k in report.oversubscribed)

    def test_measured_load_reduces_admissible_rate(self):
        loaded = Remos(
            measured_view(line_topology(), {("t23", "r2"): mbps(60)})
        )
        report = loaded.check_admission(
            [Flow("h1", "h3", requested=mbps(60), name="r")],
            timeframe=Timeframe.history(30.0),
        )
        assert not report.admitted

    def test_static_timeframe_ignores_load(self):
        loaded = Remos(
            measured_view(line_topology(), {("t23", "r2"): mbps(60)})
        )
        report = loaded.check_admission(
            [Flow("h1", "h3", requested=mbps(60), name="r")],
            timeframe=Timeframe.static(),
        )
        assert report.admitted

    def test_multicast_admission(self, remos):
        report = remos.check_admission(
            [MulticastFlow("h1", ["h3", "h4"], requested=mbps(80), name="mc")]
        )
        assert report.admitted  # tree counts the backbone once

    def test_empty_query_rejected(self, remos):
        with pytest.raises(QueryError, match="at least one flow"):
            remos.check_admission([])
