"""Percentiles, quartiles and spreads — the only statistics the spine uses.

Everything is nearest-rank over the samples actually taken: no
interpolation, so a reported latency is always one that happened.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A percentile is refused unless at least this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (``0 < q <= 100``) of *samples*.

    Refuses (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie strictly beyond the returned rank — a p95 of twenty
    samples is one outlier's latency, not a percentile.  The median is
    exempt: it has half the sample on each side by construction and is
    reported with its sample count instead.
    """
    if not samples:
        raise TooFewSamples("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if q != 50 and len(ordered) - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has only "
            f"{len(ordered) - rank} beyond it (need {MIN_BEYOND})")
    return ordered[rank - 1]


def try_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or ``None`` where it would refuse."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return None


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median (a sample that occurred, never an average)."""
    return percentile(samples, 50)


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """First quartile, median and third quartile of run-level values.

    Uses ``statistics.quantiles(n=4)`` — the same rule the driver applies
    to ten runs — so the spread printed here is the spread it will see.
    """
    if len(samples) < 2:
        only = float(samples[0])
        return {"q1": only, "median": only, "q3": only}
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def spread_share(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if median is 0)."""
    q = quartiles(samples)
    if q["median"] == 0:
        return 0.0
    return (q["q3"] - q["q1"]) / abs(q["median"])


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of *ys* over *xs* (0 for a degenerate x range)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y)
               for x, y in zip(xs, ys)) / denominator
