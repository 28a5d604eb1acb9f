"""Open-loop HTTP load generator, safe against coordinated omission.

Requests go out on a seeded Poisson schedule over at most two persistent
connections, each owned by one thread.  Every request is timed from its
*intended* send time, so a request that falls due while both connections
are busy waits in the generator and that wait is part of its latency.

Two generator-side figures qualify a phase:

* **lag** -- how late an idle connection sent a request after its due
  time (timer and interpreter overshoot).  A phase whose lag p99 exceeds
  :data:`LAG_BOUND_S` measured the generator, not the server, and is
  reported invalid instead of as a number.
* **backlog** -- requests due but not yet completed, sampled at each due
  time.  A backlog that grows from the first third of a phase to the last
  means the offered rate exceeds what the server sustains.
"""

from __future__ import annotations

import http.client
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

#: Generator lag (p99 over idle sends) above which a phase is invalid.
LAG_BOUND_S = 0.020
#: Per-request socket timeout; a timeout counts as a failed request.
REQUEST_TIMEOUT_S = 10.0
CONNECTIONS = 2


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival offsets (s) of a Poisson process at *rate* over *duration*,
    given its mean count.

    Given their number, the arrival times of a Poisson process are
    independent and uniform over the interval.  Fixing the number at
    ``round(rate * duration)`` keeps the schedule Poisson while every
    phase at one rate offers the same work; only the timing varies with
    the seed.
    """
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


@dataclass
class Record:
    """One request as sent and answered."""

    query: object
    due: float
    trace_id: str
    sent: float = math.nan
    done: float = math.nan
    idle: bool = False  # the connection waited for the due time
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    """The outcome of one fixed-schedule phase."""

    rate: float
    duration: float
    records: list[Record]
    started: float
    ended: float
    lag_p99_s: float
    lag_max_s: float
    backlog_max: int
    backlog_first: float
    backlog_last: float
    failed: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.lag_p99_s <= LAG_BOUND_S

    @property
    def growing_backlog(self) -> bool:
        # Two in flight is normal service, and a sweep stall briefly
        # queues a few more; a backlog that ends the phase more than two
        # connections' worth above where it began is not draining.
        return (
            self.backlog_last > self.backlog_first + 2 * CONNECTIONS
            and self.backlog_last > 3 * CONNECTIONS
        )

    @staticmethod
    def pool(phases: list["Phase"]) -> "Phase":
        """The phases' requests as one sample (for pooled quantiles)."""
        records = [r for p in phases for r in p.records]
        first, last = phases[0], phases[-1]
        return summarize(records, first.rate, sum(p.duration for p in phases),
                         first.started, last.ended)

    def latencies(self) -> list[float]:
        return [r.latency for r in self.records]

    def quantile(self, q: float, kind: str | None = None) -> float:
        """Latency quantile in seconds, over requests of *kind* or all.

        Failed requests count as infinitely late.
        """
        values = sorted(
            math.inf if r.error is not None else r.latency
            for r in self.records
            if kind is None or r.query.kind == kind
        )
        if not values:
            return math.inf
        return values[min(len(values) - 1, int(math.ceil(q * len(values))) - 1)]


def _traceparent(trace_id: str) -> str:
    return f"00-{trace_id}-{trace_id[:16]}-01"


def run_phase(
    address: tuple[str, int],
    queries: list,
    offsets: list[float],
    rng: random.Random,
    rate: float,
    duration: float,
    sleep=time.sleep,
) -> Phase:
    """Send *queries* at start + *offsets* over two connections; time each.

    *sleep* is injectable so the self-tests can force generator lag.
    """
    start = time.perf_counter() + 0.05
    records = [
        Record(query, start + offset, f"{rng.getrandbits(128):032x}")
        for query, offset in zip(queries, offsets)
    ]
    cursor = iter(range(len(records)))
    lock = threading.Lock()

    def worker() -> None:
        connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                record = records[index]
                wait = record.due - time.perf_counter()
                if wait > 0:
                    record.idle = True
                    sleep(wait)
                record.sent = time.perf_counter()
                query = record.query
                headers = {"traceparent": _traceparent(record.trace_id)}
                if query.body is not None:
                    headers["Content-Type"] = "application/json"
                try:
                    connection.request(query.method, query.path, query.body, headers)
                    response = connection.getresponse()
                    record.body = response.read()
                    if response.status != 200:
                        record.error = f"HTTP {response.status}"
                except (OSError, http.client.HTTPException) as error:
                    record.error = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = http.client.HTTPConnection(
                        *address, timeout=REQUEST_TIMEOUT_S
                    )
                record.done = time.perf_counter()
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    return summarize(records, rate, duration, start, ended)


def summarize(records: list[Record], rate: float, duration: float, started: float, ended: float) -> Phase:
    lags = sorted(r.sent - r.due for r in records if r.idle)
    backlog = _backlog(records)
    third = max(1, len(backlog) // 3)
    phase = Phase(
        rate=rate,
        duration=duration,
        records=records,
        started=started,
        ended=ended,
        lag_p99_s=lags[min(len(lags) - 1, int(0.99 * len(lags)))] if lags else 0.0,
        lag_max_s=lags[-1] if lags else 0.0,
        backlog_max=max(backlog, default=0),
        backlog_first=statistics.fmean(backlog[:third]) if backlog else 0.0,
        backlog_last=statistics.fmean(backlog[-third:]) if backlog else 0.0,
    )
    phase.failed = sum(r.error is not None for r in records)
    return phase


def _backlog(records: list[Record]) -> list[int]:
    """Per due time: requests due by then and not yet completed."""
    dues = [r.due for r in records]
    completions = sorted(r.done for r in records)
    backlog = []
    done = 0
    for index, due in enumerate(dues):
        while done < len(completions) and completions[done] <= due:
            done += 1
        backlog.append(index + 1 - done)
    return backlog
