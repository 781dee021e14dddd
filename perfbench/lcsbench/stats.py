"""Order statistics used by every workload.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it. Each latency metric names the percentile it
aims for (p99, p90); :func:`tail` falls back to the highest admissible
percentile when a run has too few samples for it, and says which one it
used.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """The *p*-th percentile (0..100) by linear interpolation."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def admissible_percentile(n: int, want: float) -> float:
    """The highest percentile <= *want* with >= ``MIN_BEYOND`` of *n*
    samples beyond it (50 at least: below that the median is reported)."""
    if n <= 0:
        raise ValueError("no samples")
    best = 100.0 * (1.0 - MIN_BEYOND / n)
    return max(50.0, min(want, best))


def tail(samples, want: float) -> tuple[float, float]:
    """``(value, percentile_used)`` for the tail percentile *want*."""
    p = admissible_percentile(len(samples), want)
    return percentile(samples, p), p


def median(samples) -> float:
    return statistics.median(samples)


def p50_and_tail_ms(samples_s, want: float) -> tuple[float, float]:
    """``(median, tail percentile *want*)`` of seconds samples, in ms
    (``(0, 0)`` for no samples)."""
    if not samples_s:
        return 0.0, 0.0
    ms = [s * 1e3 for s in samples_s]
    return median(ms), tail(ms, want)[0]
