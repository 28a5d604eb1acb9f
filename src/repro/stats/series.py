"""Bounded time series of measurements.

Collectors append (time, value) samples; the Modeler summarises windows of
them into :class:`~repro.stats.quartiles.StatMeasure`.  Storage is a ring
buffer so long-running collectors stay bounded.
"""

from __future__ import annotations

import numpy as np

from repro.stats.quartiles import StatMeasure
from repro.util.errors import ConfigurationError
from repro.util.ringbuf import RingBuffer


def _vector(data: "list[float]") -> np.ndarray:
    return np.array(data, dtype=float)


class TimeSeries:
    """Append-only (time, value) samples with window queries."""

    def __init__(self, capacity: int = 4096, name: str = ""):
        self.name = name
        self._buffer: RingBuffer[tuple[float, float]] = RingBuffer(capacity)
        self._last_time = -float("inf")
        self._version = 0
        self._frozen = False

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def version(self) -> int:
        """Samples ever appended (monotone; survives ring-buffer eviction).

        The Modeler stamps per-resource cache entries with this counter, so
        a cached estimate is valid exactly while the series it summarised
        has not grown.  Shared series objects (the collector master adopts
        child series by reference) carry one counter visible to every
        holder.
        """
        return self._version

    @property
    def empty(self) -> bool:
        """True if no samples recorded yet."""
        return len(self._buffer) == 0

    @property
    def frozen(self) -> bool:
        """True for immutable clones published inside a snapshot."""
        return self._frozen

    def frozen_clone(self) -> "TimeSeries":
        """An immutable copy with identical samples and version stamp.

        Published snapshots hold these: readers see exactly the data the
        writer assembled, and the live collector can keep appending to the
        source series without the snapshot ever observing it.  The version
        counter is preserved so cached estimates stamped against the source
        validate identically against the clone.
        """
        clone = TimeSeries.__new__(TimeSeries)
        clone.name = self.name
        clone._buffer = self._buffer.copy()
        clone._last_time = self._last_time
        clone._version = self._version
        clone._frozen = True
        return clone

    def add(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._frozen:
            raise ConfigurationError(
                f"series {self.name!r} is frozen (published in a snapshot); "
                "append to the live collector series instead"
            )
        if time < self._last_time:
            raise ConfigurationError(
                f"series {self.name!r}: sample time {time} precedes {self._last_time}"
            )
        self._last_time = time
        self._version += 1
        self._buffer.append((time, float(value)))

    def latest(self) -> tuple[float, float]:
        """Most recent (time, value)."""
        if self.empty:
            raise ConfigurationError(f"series {self.name!r} is empty")
        return self._buffer.newest()

    def latest_value(self) -> float:
        """Most recent value."""
        return self.latest()[1]

    def window(self, since: float, until: float = float("inf")):
        """Values with ``since <= t <= until``, oldest first (may be empty)."""
        return _vector([v for t, v in self._buffer if since <= t <= until])

    def times(self, since: float = -float("inf"), until: float = float("inf")):
        """Sample times within the window, oldest first."""
        return _vector([t for t, _ in self._buffer if since <= t <= until])

    def values(self):
        """Every retained value, oldest first."""
        return _vector([v for _, v in self._buffer])

    def has_sample_in(self, since: float, before: float) -> bool:
        """True if any retained sample falls in the half-open ``[since, before)``.

        The Modeler's incremental cache asks this to decide whether moving a
        summary window forward in time changed its contents (samples ageing
        out of the old window live in exactly this interval).  Samples are
        stored oldest-first, so the scan stops at the first time >= *before*
        — O(aged-out prefix), not O(len).
        """
        for t, _ in self._buffer:
            if t >= before:
                return False
            if t >= since:
                return True
        return False

    def span(self) -> float:
        """Time covered by retained samples."""
        if len(self._buffer) < 2:
            return 0.0
        return self._buffer.newest()[0] - self._buffer.oldest()[0]

    def summarise(
        self, since: float, until: float = float("inf"), accuracy: float | None = None
    ) -> StatMeasure:
        """Quartile summary of the window (raises if the window is empty)."""
        values = self.window(since, until)
        if values.size == 0:
            raise ConfigurationError(
                f"series {self.name!r}: no samples in window [{since}, {until}]"
            )
        return StatMeasure.from_samples(values, accuracy=accuracy)

    def mean_over(self, since: float, until: float = float("inf")) -> float:
        """Arithmetic mean of the window (raises if empty)."""
        values = self.window(since, until)
        if values.size == 0:
            raise ConfigurationError(
                f"series {self.name!r}: no samples in window [{since}, {until}]"
            )
        return float(values.mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeSeries {self.name!r} n={len(self)}>"
