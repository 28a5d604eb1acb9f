"""Cells and the shard registry: the sharding unit of a federated Remos.

A :class:`Cell` is one collector plus its own snapshot publisher — the
collector/publisher/modeler triple that used to exist only as the implicit
singleton inside ``RemosService``.  Making it a first-class object turns
:class:`~repro.collector.master.CollectorMaster` into *one possible cell
root* rather than the root of the world: a single-cell deployment wraps
its master in ``Cell("root", master)``, while a federation runs one cell
per region (each with a scoped collector) plus a backbone cell scoped to
the inter-region gateways, and composes them through
:mod:`repro.federation`.

The :class:`ShardRegistry` answers the question every federated query
starts with — *which cell owns this host?* — from the cells' current
views, reindexing lazily when a cell's topology structure changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.collector.base import Collector, NetworkView
from repro.collector.master import CollectorMaster
from repro.util.errors import CollectorError, ConfigurationError, QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.core imports us)
    from repro.core.api import Remos
    from repro.core.snapshot import Snapshot


class Cell:
    """One shard of the collection plane: a collector and its epochs.

    Parameters
    ----------
    name:
        Shard identifier; appears on spans, gauges and slow-query records.
    collector:
        The cell's collector — a scoped :class:`SNMPCollector` for a
        region, a :class:`CollectorMaster` for a single-cell deployment,
        or any other :class:`Collector`.
    gateways:
        Names of this cell's border routers (the nodes its WAN links
        attach to).  Empty for single-cell deployments.
    """

    def __init__(
        self,
        name: str,
        collector: Collector,
        gateways: Iterable[str] = (),
        enable_cache: bool = True,
    ):
        # Imported lazily: repro.core.api itself imports repro.collector.
        from repro.core.api import Remos

        if not name:
            raise ConfigurationError("cell name must be non-empty")
        self.name = name
        self.collector = collector
        self.gateways = tuple(gateways)
        self.remos: Remos = Remos(
            collector, enable_cache=enable_cache, auto_publish=False
        )

    # -- lifecycle (delegates to the collector) --------------------------------

    def start(self):
        """Start the collector; returns its 'first sweep done' event."""
        return self.collector.start()

    def stop(self) -> None:
        """Stop the collector (idempotent)."""
        self.collector.stop()

    @property
    def ready(self) -> bool:
        """True once the collector has a view."""
        return self.collector.ready

    # -- publication -----------------------------------------------------------

    def refresh(self) -> "Snapshot":
        """Fold child sweeps (masters only) and publish if the view moved."""
        if isinstance(self.collector, CollectorMaster):
            self.collector.refresh(allow_partial=True)
        return self.remos.publish()

    def snapshot(self) -> "Snapshot":
        """The cell's current published epoch (raises before the first)."""
        return self.remos.snapshot()

    @property
    def publisher(self):
        """The cell's snapshot publisher."""
        return self.remos.publisher

    @property
    def epoch(self) -> int:
        """The cell's publication counter (0 before the first snapshot)."""
        return self.remos.publisher.epoch

    def staleness_seconds(self) -> float | None:
        """Measurement age of the current snapshot (None before ready)."""
        try:
            return self.remos.staleness_seconds()
        except CollectorError:
            return None

    # -- membership ------------------------------------------------------------

    def view(self) -> NetworkView:
        """The collector's live view (raises until ready)."""
        return self.collector.view()

    def hosts(self) -> tuple[str, ...]:
        """Compute-node names this cell owns (empty until ready)."""
        if not self.collector.ready:
            return ()
        topology = self.collector.view().topology
        return tuple(n.name for n in topology.nodes if n.is_compute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cell {self.name!r} epoch={self.epoch}>"


def bring_up(env, cells: Iterable[Cell | Collector], warmup: float = 0.0) -> None:
    """Start every unready cell (or bare collector) and run *env* until
    all are ready, then *warmup* more simulated seconds."""
    for ready in [cell.start() for cell in cells if not cell.ready]:
        env.run(until=ready)
    if warmup > 0:
        env.run(until=env.now + warmup)


def refresh_cells(cells: Iterable[Cell], merge=None):
    """One refresh pass: publish every ready cell in order, then *merge*.

    Order is the contract: a merge step (a federation's aggregator) runs
    last, so a summary is never newer than the cells it describes.
    Returns the merge step's result (None without one).
    """
    for cell in cells:
        if cell.ready:
            cell.refresh()
    return None if merge is None else merge()


class ShardRegistry:
    """Host → owning cell lookup across a fleet of cells.

    The index is rebuilt lazily whenever a cell's view appears or its
    ``structure_generation`` advances; metrics-only sweeps never touch it.
    Cell scopes must be disjoint — a host claimed by two cells is a
    configuration error, caught at index time.
    """

    def __init__(self, cells: Iterable[Cell] = ()):
        self._cells: dict[str, Cell] = {}
        self._index: dict[str, str] = {}
        self._stamps: dict[str, tuple[int, int]] = {}
        for cell in cells:
            self.add(cell)

    def add(self, cell: Cell) -> None:
        """Register a cell (names unique)."""
        if cell.name in self._cells:
            raise ConfigurationError(f"duplicate cell name {cell.name!r}")
        self._cells[cell.name] = cell

    @property
    def cells(self) -> tuple[Cell, ...]:
        """All registered cells, in registration order."""
        return tuple(self._cells.values())

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, name: str) -> Cell:
        """Cell by shard name."""
        try:
            return self._cells[name]
        except KeyError:
            raise ConfigurationError(f"no cell named {name!r}") from None

    # -- host index ------------------------------------------------------------

    def _refresh_index(self) -> None:
        for cell in self._cells.values():
            if not cell.collector.ready:
                continue
            view = cell.collector.view()
            stamp = (id(view.topology), view.structure_generation)
            if self._stamps.get(cell.name) == stamp:
                continue
            # Drop this cell's stale claims, then re-claim.
            self._index = {
                host: shard
                for host, shard in self._index.items()
                if shard != cell.name
            }
            for host in cell.hosts():
                owner = self._index.get(host)
                if owner is not None and owner != cell.name:
                    raise ConfigurationError(
                        f"host {host!r} is claimed by cells {owner!r} and "
                        f"{cell.name!r}; cell scopes must be disjoint"
                    )
                self._index[host] = cell.name
            self._stamps[cell.name] = stamp

    def shard_of(self, host: str) -> str | None:
        """Name of the cell owning *host*, or None if no cell claims it."""
        shard = self._index.get(host)
        if shard is None:
            self._refresh_index()
            shard = self._index.get(host)
        return shard

    def cell_of(self, host: str) -> Cell:
        """The cell owning *host* (raises QueryError for unknown hosts)."""
        shard = self.shard_of(host)
        if shard is None:
            raise QueryError(f"no shard owns node {host!r}")
        return self._cells[shard]

    def partition(self, names: Iterable[str]) -> dict[str, list[str]]:
        """Group *names* by owning shard, preserving order within groups.

        Raises :class:`~repro.util.errors.QueryError` if any name is
        unclaimed.
        """
        groups: dict[str, list[str]] = {}
        for name in names:
            shard = self.shard_of(name)
            if shard is None:
                raise QueryError(f"no shard owns node {name!r}")
            groups.setdefault(shard, []).append(name)
        return groups

    def hosts(self) -> tuple[str, ...]:
        """Every host any ready cell owns."""
        self._refresh_index()
        return tuple(self._index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardRegistry cells={sorted(self._cells)}>"
