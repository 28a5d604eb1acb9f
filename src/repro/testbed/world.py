"""The World: everything needed to run an experiment, wired together."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collector import SNMPCollector
from repro.collector.cell import bring_up
from repro.core import Remos
from repro.fx import FxRuntime
from repro.net import Topology
from repro.netsim import FluidNetwork
from repro.sim import Engine
from repro.snmp import SNMPAgent
from repro.util.errors import ConfigurationError


@dataclass
class World:
    """A simulated network plus its monitoring stack.

    Build one with :func:`repro.testbed.build_cmu_testbed` (or wire your
    own), then::

        remos = world.start_monitoring()   # fast-forwards until ready
        runtime = world.runtime()
    """

    env: Engine
    topology: Topology
    net: FluidNetwork
    agents: dict[str, SNMPAgent] = field(default_factory=dict)
    collector: SNMPCollector | None = None
    _remos: Remos | None = None

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        poll_interval: float = 2.0,
        agent_nodes: list[str] | None = None,
        monitor_hosts: bool = False,
    ) -> "World":
        """Build a world: fluid net + agents on routers + SNMP collector.

        ``monitor_hosts=True`` also runs agents on every compute node, so
        the collector picks up CPU-load counters (for node_info queries
        and compute-aware selection).
        """
        env = Engine()
        net = FluidNetwork(env, topology)
        if agent_nodes is not None:
            names = list(agent_nodes)
        else:
            names = [n.name for n in topology.network_nodes]
            if monitor_hosts:
                names += [n.name for n in topology.compute_nodes]
        agents = {name: SNMPAgent(name, net) for name in names}
        collector = SNMPCollector(net, agents, poll_interval=poll_interval)
        return cls(
            env=env, topology=topology, net=net, agents=agents, collector=collector
        )

    def start_monitoring(self, warmup: float = 0.0) -> Remos:
        """Start the collector, run until ready (+ warmup), return Remos."""
        if self.collector is None:
            raise ConfigurationError("world has no collector")
        bring_up(self.env, (self.collector,), warmup)
        return self.make_remos()

    def make_remos(self) -> Remos:
        """The Remos instance bound to this world's collector."""
        if self._remos is None:
            if self.collector is None:
                raise ConfigurationError("world has no collector")
            self._remos = Remos(self.collector)
        return self._remos

    def runtime(self) -> FxRuntime:
        """A fresh Fx runtime over this world's network."""
        return FxRuntime(self.net)

    def settle(self, seconds: float) -> None:
        """Advance simulated time (let traffic and polling run)."""
        self.env.run(until=self.env.now + seconds)
