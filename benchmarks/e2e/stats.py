"""Small statistics helpers shared by the harness, its tests and --compare."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

import numpy as np

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def supported_tail(n: int) -> Optional[float]:
    """Highest percentile of ``TAIL_LADDER`` with >= MIN_BEYOND of ``n`` samples beyond it."""
    for pct in TAIL_LADDER:
        # in integers: 100 - 99.9 is not 0.1 in floating point
        if n * (1000 - round(pct * 10)) >= MIN_BEYOND * 1000:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def good_decile(values: Sequence[float], better: str) -> float:
    """The value a tenth of the way in from the good end of the slice values.

    On a shared host a neighbour's burst only ever slows a slice, and the
    bursts last 10-30 s: the median slice moves with them, the slices the
    host left alone do not.  A change to the program moves every slice.
    """
    return percentile(values, 90.0 if better == "higher" else 10.0)


def spread(values: Sequence[float]) -> float:
    """(max - min) / median of a handful of values."""
    mid = median(values)
    return float((max(values) - min(values)) / mid) if mid else 0.0


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return float((q3 - q1) / mid) if mid else 0.0
