"""Order statistics for benchmark timings."""

from __future__ import annotations

import statistics

MIN_TAIL_SAMPLES = 40
SAMPLES_BEYOND_TAIL = 10


def latency_summary(samples) -> dict:
    """Sample count, median and, from 40 samples on, a tail percentile.

    The tail is the highest nearest-rank percentile that still has ten
    samples beyond it (p75 at 40 samples, p90 at 100).  Below 40 samples
    such a percentile would sit among the bulk rather than in the tail, so
    none is reported.  Its rank lies above the middle, so it never reads
    below the median.
    """
    values = sorted(float(v) for v in samples)
    summary = {"count": len(values)}
    if not values:
        return summary
    summary["p50"] = statistics.median(values)
    if len(values) >= MIN_TAIL_SAMPLES:
        rank = len(values) - SAMPLES_BEYOND_TAIL  # 1-based nearest rank
        summary["tail_percentile"] = 100.0 * rank / len(values)
        summary["tail"] = values[rank - 1]
    return summary
