"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100 * count))


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (too few to hold steady)."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def stratified_median(samples: Sequence[Tuple[str, float]]) -> float:
    """Mean over strata of each stratum's median value.

    Steps of different strata (machines, grid cells) cost several times
    apart.  A plain median of the mix falls between such clusters and
    jumps with the mix; a median per stratum does not, and still ignores
    the odd stall inside one."""
    by_stratum: Dict[str, List[float]] = {}
    for stratum, value in samples:
        by_stratum.setdefault(stratum, []).append(value)
    return statistics.fmean(
        statistics.median(values) for values in by_stratum.values()
    )


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when flat)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric over several runs."""
    ordered: List[float] = sorted(values)
    if len(ordered) < 2:
        only = ordered[0] if ordered else math.nan
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(ordered, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(ordered)}
