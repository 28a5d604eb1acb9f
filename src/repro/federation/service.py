"""FederationService: the query service over a federation of cells.

The reader side — coalescing, SLOs, slow-query log, health — and the
writer loop are :class:`~repro.service.core.RemosService`'s, pointed at a
:class:`~repro.federation.api.FederatedRemos` facade.  Each sweep advances
the shared simulation engine, publishes every region cell, publishes the
backbone and re-merges the aggregation tree, in that order, so readers
always observe cell epochs at least as new as the summary built from
them.  (One thread, many shards: the engine is not thread-safe, and a
sweep is cheap — per-cell refresh is an O(1) stamp compare when nothing
moved.)
"""

from __future__ import annotations

from repro.federation.world import FederationWorld
from repro.service.core import RemosService


class FederationService(RemosService):
    """A snapshot-isolated query service over a :class:`FederationWorld`.

    Usage mirrors :class:`~repro.service.core.RemosService`::

        world = FederationWorld.build(shards=4, leaves=2, spines=2, hosts_per_leaf=8)
        with FederationService(world) as service:
            service.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s3-leaf1-h2")])

    Parameters
    ----------
    world:
        The federation to serve (cells, backbone, aggregation tree).
    sweep_interval:
        Wall-clock seconds between sweeper iterations.
    sim_step:
        Simulated seconds advanced per sweeper iteration.
    **front_end:
        Everything :class:`~repro.service.core.QueryFrontEnd` accepts.
    """

    sweeper_name = "remos-fed-sweeper"

    def __init__(
        self,
        world: FederationWorld,
        sweep_interval: float = 0.02,
        sim_step: float = 1.0,
        **front_end,
    ):
        super().__init__(
            world.make_remos(),
            world.env,
            sweep_interval,
            sim_step,
            cells=world.all_cells(),
            merge=world.aggregator.refresh,
            **front_end,
        )
        self.world = world
