"""Estimation-accuracy heuristics.

Remos attaches "a measure of estimation accuracy" to every dynamic value
(§4.4) — e.g. an average over few samples deserves less trust than one over
many.  The heuristic here combines sample count and relative variability;
both the exact shape and its parameters are implementation choices (the
paper prescribes the *existence* of the measure, not a formula).
"""

from __future__ import annotations

import numpy as np


def sample_accuracy(values) -> float:
    """Accuracy in [0, 1] from sample count and coefficient of variation.

    * grows with the number of samples (saturating around ~30 samples,
      the usual small-sample threshold);
    * shrinks with relative dispersion (IQR/median), since a highly
      variable series pins down the "true" level less well.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 0.0
    count_term = 1.0 - np.exp(-n / 10.0)
    if n == 1:
        return float(0.5 * count_term)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    scale = max(abs(median), 1e-12)
    dispersion = (q3 - q1) / scale
    dispersion_term = 1.0 / (1.0 + dispersion)
    return min(1.0, max(0.0, float(count_term * dispersion_term)))
