"""Order statistics used by the benchmark's summaries."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest first. A fixed ladder keeps the
# reported percentile the same across runs whose sample counts differ a
# little (a pass more or less), which a percentile computed as
# 100 * (1 - 10 / n) would not.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_ABOVE = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n q / 100)
    return ordered[int(rank) - 1]


def tail(samples) -> tuple[float, float, int]:
    """The highest ladder percentile with at least TAIL_MIN_ABOVE samples
    strictly above it.

    Returns (q, value, samples_above). When even the median has fewer than
    TAIL_MIN_ABOVE samples above it (fewer than about 20 samples), the
    median is returned and the short count shows it.
    """
    for q in TAIL_LADDER:
        value = percentile(samples, q)
        above = sum(1 for s in samples if s > value)
        if above >= TAIL_MIN_ABOVE:
            return q, value, above
    value = percentile(samples, TAIL_LADDER[-1])
    return TAIL_LADDER[-1], value, sum(1 for s in samples if s > value)


def median(values) -> float:
    return float(statistics.median(values))
