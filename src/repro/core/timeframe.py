"""Query timeframes.

"Queries may be made in the context of invariant physical capacities,
measurements of dynamic properties averaged over a specified time window,
or expectations of future availability of resources" (§4).  Four kinds:

* ``STATIC``  — physical capacities only, ignore traffic entirely;
* ``CURRENT`` — the most recent measurement of each quantity;
* ``HISTORY`` — quartiles over a trailing window of measurements;
* ``FUTURE``  — a predictor's expectation over a forward horizon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.stats.predictors import known_predictors
from repro.util.errors import QueryError


class TimeframeKind(enum.Enum):
    """Which temporal view of the network a query wants."""

    STATIC = "static"
    CURRENT = "current"
    HISTORY = "history"
    FUTURE = "future"


@dataclass(frozen=True)
class Timeframe:
    """A validated (kind, window, horizon, predictor) bundle.

    Use the class methods; the constructor checks cross-field rules.
    """

    kind: TimeframeKind
    window: float = 0.0
    horizon: float = 0.0
    predictor: str = "ewma"

    def __post_init__(self) -> None:
        for value in (self.window, self.horizon):
            if not (math.isfinite(value) and value >= 0):
                raise QueryError(
                    f"timeframe window/horizon must be finite and non-negative, "
                    f"got {value!r}"
                )
        if self.kind is TimeframeKind.HISTORY and self.window <= 0:
            raise QueryError("HISTORY timeframe requires a positive window")
        if self.kind is TimeframeKind.FUTURE and self.horizon <= 0:
            raise QueryError("FUTURE timeframe requires a positive horizon")
        if self.kind is TimeframeKind.FUTURE and self.predictor not in known_predictors():
            # Parse-time validation: an unknown predictor is the *query's*
            # mistake and must surface as a QueryError (HTTP 400) here,
            # not as a ConfigurationError (500) mid-allocation.
            raise QueryError(
                f"unknown predictor {self.predictor!r}; "
                f"expected one of {sorted(known_predictors())}"
            )

    @classmethod
    def static(cls) -> "Timeframe":
        """Invariant physical capacities (ignores all traffic)."""
        return cls(TimeframeKind.STATIC)

    @classmethod
    def current(cls) -> "Timeframe":
        """Most recent measurements (the paper's ``timeframe = current``)."""
        return cls(TimeframeKind.CURRENT)

    @classmethod
    def history(cls, window: float) -> "Timeframe":
        """Quartiles over the trailing *window* seconds of measurements."""
        return cls(TimeframeKind.HISTORY, window=window)

    @classmethod
    def future(
        cls, horizon: float, predictor: str = "ewma", window: float = 60.0
    ) -> "Timeframe":
        """Prediction over the next *horizon* seconds.

        *window* bounds the history the predictor may consult.
        """
        return cls(
            TimeframeKind.FUTURE, window=window, horizon=horizon, predictor=predictor
        )

    def __str__(self) -> str:
        if self.kind is TimeframeKind.HISTORY:
            return f"history({self.window}s)"
        if self.kind is TimeframeKind.FUTURE:
            return f"future({self.horizon}s, {self.predictor})"
        return self.kind.value
