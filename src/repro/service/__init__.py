"""The concurrent Remos query service.

The paper positions Remos as a *service* multiple network-aware
applications query at once: "the implementation is based on a distributed
set of Collectors" answering queries while measurement continues.  This
package is that deployment shape for the reproduction:

* a **single writer** — the sweep scheduler thread — advances the
  simulation, lets the collector(s) sweep, and publishes each completed
  sweep as an immutable :class:`~repro.core.snapshot.Snapshot`;
* any number of **reader threads** issue ``flow_info`` / ``get_graph`` /
  ``node_info`` / ``check_admission`` queries through
  :class:`RemosService`; each query pins the current snapshot once and
  never observes a partial sweep;
* concurrent ``flow_info`` requests with the same timeframe are
  **coalesced**: one leader drains the waiting group and answers it with a
  single :meth:`~repro.core.api.Remos.flow_info_batch` call, so the
  expensive per-epoch work (six per-quantile availability snapshots) is
  paid once per batch instead of once per request — that is where the
  concurrent-throughput win comes from under the GIL.

``repro serve`` (see :mod:`repro.cli`) exposes the service over HTTP with
``/metrics`` for Prometheus scraping.  There is one front door: an
asyncio event loop (:mod:`repro.service.aio`) that answers every request
through the application layer (:mod:`repro.service.app`) on the
service's query thread pool (``--threads``).  There is one writer loop:
:class:`RemosService`'s sweeper, which a federation
(:class:`~repro.federation.FederationService`) runs over more cells.
``--workers N`` pre-forks N asyncio workers on a shared socket
(:mod:`repro.service.workers`); the parent keeps the only sweeper and
broadcasts each published epoch to the workers.  The full threading
model is documented in ``docs/CONCURRENCY.md``.
"""

from repro.service.aio import AioServer, AsyncHTTPServer, serve_aio
from repro.service.core import QueryFrontEnd, RemosService
from repro.service.workers import MultiProcessServer, WorkerReplica

__all__ = [
    "AioServer",
    "AsyncHTTPServer",
    "MultiProcessServer",
    "QueryFrontEnd",
    "RemosService",
    "WorkerReplica",
    "serve_aio",
]
