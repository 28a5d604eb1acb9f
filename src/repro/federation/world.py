"""A simulated federation: regions, backbone, cells and aggregation tree.

:class:`FederationWorld` is the federation counterpart of
:class:`repro.testbed.world.World`: one simulation engine and one fluid
network carrying every shard, with *per-region scoped collectors* so each
cell discovers only its own nodes, plus a backbone collector scoped to
the gateways (it alone observes the WAN links).  The world also builds
the single-cell **oracle** — a :class:`CollectorMaster` over the *same*
collector instances — which the differential test suite compares
federated answers against: the oracle adopts each child's metric series
by reference, so intra-shard data is bit-identical on both query planes
by construction.
"""

from __future__ import annotations

from repro.collector import Cell, CollectorMaster, ShardRegistry, SNMPCollector
from repro.collector.cell import bring_up
from repro.core import Remos
from repro.federation.aggregator import Aggregator
from repro.federation.api import FederatedRemos
from repro.federation.topology import FederationPlan, build_federation
from repro.netsim import FluidNetwork
from repro.sim import Engine
from repro.snmp import SNMPAgent
from repro.util.errors import ConfigurationError


class FederationWorld:
    """Everything needed to run a federation experiment, wired together.

    Build one from a :class:`FederationPlan` (or let :meth:`build` make
    the plan too), then::

        world = FederationWorld.build(shards=4, leaves=2, spines=2, hosts_per_leaf=4)
        remos = world.start_monitoring()      # FederatedRemos, all cells ready
        oracle = world.oracle_remos()         # single-cell view of the same wires
    """

    def __init__(
        self,
        plan: FederationPlan,
        poll_interval: float = 2.0,
        region_hop_latency: float = 0.1e-3,
        wan_hop_latency: float = 1e-3,
        enable_cache: bool = True,
    ):
        self.plan = plan
        self.env = Engine()
        self.net = FluidNetwork(self.env, plan.topology)
        # One agent per switch/gateway, shared by every collector that
        # polls it (region collectors poll their own routers; the backbone
        # polls the gateways).
        self.agents = {
            node.name: SNMPAgent(node.name, self.net)
            for node in plan.topology.network_nodes
        }
        self.cells: dict[str, Cell] = {}
        for shard in plan.shards:
            routers = plan.region_routers(shard)
            collector = SNMPCollector(
                self.net,
                {name: self.agents[name] for name in routers},
                poll_interval=poll_interval,
                per_hop_latency=region_hop_latency,
                scope=plan.regions[shard],
            )
            self.cells[shard] = Cell(
                shard,
                collector,
                gateways=(plan.gateways[shard],),
                enable_cache=enable_cache,
            )
        gateway_names = sorted(plan.gateways.values())
        self.backbone = Cell(
            "backbone",
            SNMPCollector(
                self.net,
                {name: self.agents[name] for name in gateway_names},
                poll_interval=poll_interval,
                # The WAN per-hop constant: long-haul links get long-haul
                # latency annotations without per-link configuration.
                per_hop_latency=wan_hop_latency,
                scope=frozenset(gateway_names),
            ),
            gateways=tuple(gateway_names),
            enable_cache=enable_cache,
        )
        self.registry = ShardRegistry(self.cells.values())
        self.aggregator = Aggregator(
            list(self.cells.values()), backbone=self.backbone, name="federation"
        )
        self._remos: FederatedRemos | None = None
        self._oracle: Remos | None = None

    @classmethod
    def build(cls, poll_interval: float = 2.0, **plan_kwargs) -> "FederationWorld":
        """Build the plan and the world in one call."""
        return cls(build_federation(**plan_kwargs), poll_interval=poll_interval)

    # -- lifecycle ---------------------------------------------------------------

    def all_cells(self) -> tuple[Cell, ...]:
        """Every cell including the backbone."""
        return (*self.cells.values(), self.backbone)

    def start_monitoring(self, warmup: float = 0.0) -> FederatedRemos:
        """Start every collector, run until all are ready, publish, merge."""
        bring_up(self.env, self.all_cells(), warmup)
        remos = self.make_remos()
        remos.refresh_all()
        return remos

    def make_remos(self) -> FederatedRemos:
        """The federated facade over this world's cells."""
        if self._remos is None:
            self._remos = FederatedRemos(self.registry, self.aggregator)
        return self._remos

    def oracle_remos(self) -> Remos:
        """A single-cell Remos over the *same* collectors (the oracle).

        The master merges the region collectors plus the backbone — every
        wire the federation knows, in one flat view, with each child's
        metric series adopted by reference.  The master is not started:
        the children already run; call ``refresh_oracle()`` after time
        advances to fold their latest sweeps.
        """
        if self._oracle is None:
            for cell in self.all_cells():
                if not cell.ready:
                    raise ConfigurationError(
                        "start_monitoring() must complete before building the oracle"
                    )
            master = CollectorMaster(
                self.env,
                [cell.collector for cell in self.all_cells()],
            )
            master.refresh()
            self._oracle = Remos(master, auto_publish=False)
            self._oracle.publish()
        return self._oracle

    def refresh_all(self) -> None:
        """Publish every plane: cells, backbone, aggregate, oracle."""
        remos = self.make_remos()
        remos.refresh_all()
        if self._oracle is not None:
            self._oracle._source.refresh()  # fold child sweeps into the master
            self._oracle.publish()

    def settle(self, seconds: float) -> None:
        """Advance simulated time (let traffic and polling run)."""
        self.env.run(until=self.env.now + seconds)

    def stop(self) -> None:
        """Stop every collector."""
        for cell in self.all_cells():
            cell.stop()
