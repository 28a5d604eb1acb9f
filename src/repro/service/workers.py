"""Multi-process front door: pre-forked asyncio workers, one shared socket.

``repro serve --workers N`` scales the query side past the GIL without
giving up the single-writer sweep discipline from ``docs/CONCURRENCY.md``:

* The **parent** process keeps the only sweeper.  It runs the simulation
  engine, refreshes the collector and publishes epochs exactly as the
  single-process service does — then *broadcasts* each newly published
  epoch to every worker as a pickled frozen :class:`NetworkView` over a
  per-worker pipe (throttled to :data:`BROADCAST_INTERVAL`; intermediate
  epochs are skipped, never queued).
* Each **worker** is a forked process running the asyncio front end
  (:class:`~repro.service.aio.AsyncHTTPServer`) on the shared listening
  socket — the kernel load-balances ``accept()`` across workers.  Its
  :class:`WorkerReplica` is a full :class:`~repro.service.core.QueryFrontEnd`
  (coalescing, SLOs, slow log, health) whose snapshot source is a
  :class:`ViewInbox`: a collector that serves whatever view the parent
  last installed.  A worker never mutates shared state; installing a
  received epoch republishes it locally, so snapshot isolation, epoch
  stamps and the staleness SLO all behave per-process.

The fork happens **before** the parent starts any thread
(:meth:`RemosService.prepare` publishes the first snapshot without
spawning the sweeper), so no lock or executor is ever inherited
mid-flight.  Workers shut down on an explicit ``None`` sentinel — or on
pipe EOF if the parent dies.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import threading
import time

from repro import obs
from repro.collector import Collector
from repro.service.aio import AsyncHTTPServer
from repro.service.core import QueryFrontEnd, RemosService
from repro.util.errors import ConfigurationError

_log = obs.get_logger("repro.service.workers")

#: Seconds between epoch-broadcast checks in the parent.  Workers serve
#: the previous epoch meanwhile — staleness is bounded by this plus the
#: sweep interval, far under the default ``max_epoch_age``.
BROADCAST_INTERVAL = 0.25

#: How long the parent waits for each worker's ready handshake.
READY_TIMEOUT = 30.0


class ViewInbox(Collector):
    """A collector that serves views somebody else installs.

    The worker's epoch listener calls :meth:`install` with each frozen
    view received from the parent; the replica's publisher then clones
    and republishes it locally.  ``start``/``stop`` are no-ops — the
    inbox has no data source of its own.
    """

    def start(self):  # pragma: no cover - never driven by an engine
        return None

    def stop(self) -> None:
        pass

    def install(self, view) -> None:
        self._view = view


class WorkerReplica(QueryFrontEnd):
    """The query front end inside one worker process.

    ``start()`` blocks until the parent's first epoch arrives on the
    pipe, publishes it, and then keeps a listener thread draining the
    pipe — always jumping to the *latest* available view, so a worker
    that fell behind never replays stale epochs.
    """

    def __init__(self, conn, **front_end):
        inbox = ViewInbox()
        super().__init__(inbox, **front_end)
        self._inbox = inbox
        self._conn = conn
        self._listener: threading.Thread | None = None
        #: Set by the stop sentinel (or pipe EOF): the worker's cue to exit.
        self.closed = threading.Event()

    def start(self) -> "WorkerReplica":
        if self._started:
            return self
        view = self._conn.recv()  # block until the parent seeds an epoch
        if view is None:
            raise ConfigurationError("parent closed the epoch pipe before seeding")
        self._install(view)
        self._activate()
        self._listener = threading.Thread(
            target=self._listen, name="remos-epoch-inbox", daemon=True
        )
        self._listener.start()
        return self

    def _install(self, view) -> None:
        """Publish one received epoch locally (counts as this replica's sweep)."""
        started = time.perf_counter()
        self._inbox.install(view)
        self.remos.publish()
        self.sweeps += 1
        self.publishes = self.remos.publisher.publishes
        self.last_sweep_seconds = time.perf_counter() - started
        self.last_sweep_at = time.time()

    def _listen(self) -> None:
        conn = self._conn
        while not self.closed.is_set():
            try:
                if not conn.poll(0.25):
                    continue
                view = conn.recv()
                # Drain to the freshest pending view; every skipped epoch
                # was already superseded before we could serve it.
                while view is not None and conn.poll():
                    view = conn.recv()
            except (EOFError, OSError):
                break
            if view is None:
                break
            try:
                self._install(view)
            except Exception as exc:  # keep serving the last good epoch
                self.sweep_errors += 1
                _log.error(
                    "epoch_install_failed", error=f"{type(exc).__name__}: {exc}"
                )
        self.closed.set()

    def stop(self) -> None:
        self.closed.set()
        if self._listener is not None:
            self._listener.join(timeout=2.0)
            self._listener = None
        self._deactivate()


def _worker_main(sock: socket.socket, conn, front_end: dict) -> None:
    """One worker process: replica + asyncio server on the shared socket."""
    replica = WorkerReplica(conn, **front_end)
    replica.start()
    conn.send(("ready", os.getpid()))

    async def main() -> None:
        server = AsyncHTTPServer(replica, sock=sock)
        await server.start()
        try:
            while not replica.closed.is_set():
                await asyncio.sleep(0.25)
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        replica.stop()


class MultiProcessServer:
    """N pre-forked asyncio workers serving one :class:`RemosService`.

    The parent owns the sweeper (single writer); workers own the sockets.
    ``start()`` publishes the first snapshot *before* forking, seeds every
    worker with it, waits for their ready handshakes, then starts the
    parent's sweeper and the epoch broadcaster.

    Parameters
    ----------
    service:
        The (unstarted) :class:`RemosService` whose sweeper feeds the
        workers.  Its front-end settings are replicated into each worker
        unless *front_end* overrides them.
    host, port:
        The shared listening address (port 0 picks a free one — read
        :attr:`address` after :meth:`start`).
    workers:
        Number of worker processes (at least 1).
    warmup:
        Simulated seconds to run before the first snapshot.
    broadcast_interval:
        Seconds between epoch-broadcast checks.
    front_end:
        Optional :class:`QueryFrontEnd` kwarg overrides for the replicas.
    """

    def __init__(
        self,
        service: RemosService,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        warmup: float = 0.0,
        broadcast_interval: float = BROADCAST_INTERVAL,
        front_end: dict | None = None,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self._service = service
        self._host = host
        self._port = port
        self._workers = workers
        self._warmup = warmup
        self._interval = broadcast_interval
        self._front_end_overrides = dict(front_end or {})
        self._sock: socket.socket | None = None
        self._procs: list = []
        self._pipes: list = []
        self._epoch = 0
        self._stop_event = threading.Event()
        self._broadcaster: threading.Thread | None = None
        self._started = False

    @property
    def address(self) -> tuple[str, int]:
        assert self._sock is not None, "call start() first"
        return self._sock.getsockname()[:2]

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self._procs]

    def start(self) -> "MultiProcessServer":
        if self._started:
            return self
        # First snapshot while the parent is still single-threaded: the
        # fork below must never duplicate a live sweeper or executor.
        self._service.prepare(self._warmup)
        snapshot = self._service.remos.publisher.current()
        assert snapshot is not None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        sock.set_inheritable(True)
        self._sock = sock
        front_end = {**self._service.front_end_config(), **self._front_end_overrides}
        ctx = multiprocessing.get_context("fork")
        for index in range(self._workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(sock, child_conn, front_end),
                name=f"remos-worker-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._pipes.append(parent_conn)
        # Seed every worker with the prepared epoch, then require the
        # handshake: a worker that cannot publish must fail loudly here,
        # not as connection resets later.
        self._epoch = snapshot.epoch
        for conn in self._pipes:
            conn.send(snapshot.view)
        for proc, conn in zip(self._procs, self._pipes):
            if not conn.poll(READY_TIMEOUT):
                self.stop()
                raise ConfigurationError(f"{proc.name} did not become ready")
            conn.recv()  # ("ready", pid)
        # Threads are safe now that every fork is done.
        self._service.start()
        self._broadcaster = threading.Thread(
            target=self._broadcast_loop, name="remos-epoch-broadcast", daemon=True
        )
        self._broadcaster.start()
        self._started = True
        _log.info(
            "workers_started",
            workers=self._workers,
            host=self.address[0],
            port=self.address[1],
            pids=self.pids,
        )
        return self

    def _broadcast_loop(self) -> None:
        publisher = self._service.remos.publisher
        while not self._stop_event.wait(self._interval):
            snapshot = publisher.current()
            if snapshot is None or snapshot.epoch == self._epoch:
                continue
            self._epoch = snapshot.epoch
            for conn in self._pipes:
                try:
                    conn.send(snapshot.view)
                except (BrokenPipeError, OSError):  # worker died; reap in stop()
                    pass

    def stop(self) -> None:
        """Sentinel the workers, reap them, close the socket (idempotent)."""
        self._stop_event.set()
        if self._broadcaster is not None:
            self._broadcaster.join(timeout=2.0)
            self._broadcaster = None
        for conn in self._pipes:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=3.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._pipes:
            conn.close()
        self._procs.clear()
        self._pipes.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._service.stop()
        self._started = False
        self._stop_event = threading.Event()

    def __enter__(self) -> "MultiProcessServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
