"""Order statistics for the benchmark's reported timings."""

import math

MIN_BEYOND = 10


def percentile(values, p):
    """The nearest-rank [p]th percentile of [values].

    Refuses (ValueError) when fewer than ten samples lie beyond it, on its
    tail side (above it for p > 50, below it for p < 50), so a reported
    figure never rests on one or two unlucky samples: p99 needs at least
    1000 samples, p50 20, p25 and p75 40."""
    n = len(values)
    if not 0 < p < 100:
        raise ValueError("percentile %r outside (0, 100)" % p)
    beyond = n * min(p, 100 - p) / 100
    if beyond < MIN_BEYOND:
        raise ValueError("p%g of %d samples has %.1f beyond it; at least %d needed"
                         % (p, n, beyond, MIN_BEYOND))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * n) - 1)]

