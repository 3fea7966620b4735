"""Latency statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics


def percentile(values, p):
    """Percentile p, interpolated linearly between the two nearest samples.

    The rank position is (n - 1) * p / 100 on 0-based ranks, as in
    statistics.quantiles(method="inclusive"), so p50 is the median.  The value
    moves continuously with the samples next to it: one slow request shifts
    it by part of its own change, never by the gap to the next slot's latency.
    """
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    h = (len(xs) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def beyond(values, p):
    """Number of samples ranked above the position of percentile p."""
    return len(values) - 1 - math.floor((len(values) - 1) * p / 100.0)


def tail(values, p):
    """Latency at the workload's tail percentile, with the sample count beyond it.

    Each workload fixes p as the highest of 50/75/90/95/99 that has at least
    ten samples beyond it at its usual sample count, or p50 when none has.
    A fixed p keeps runs of two commits comparable when one completes more
    requests.
    """
    return percentile(values, p), beyond(values, p)


def paired_overhead(pairs):
    """Median of traced minus untraced latency over (traced, untraced) pairs.

    Both members of a pair ran the same request back to back, so machine
    drift and the request mix cancel out of each difference.
    """
    return statistics.median(traced - untraced for traced, untraced in pairs)
