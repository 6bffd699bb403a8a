"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # ops that must lie above the reported tail percentile


def tail_percentile(count):
    """Highest percentile, in steps of 0.1, with >= TAIL_BEYOND of ``count`` ops above it.

    Returns None when there are too few ops for any percentile to qualify.
    """
    if count <= TAIL_BEYOND:
        return None
    pct = math.floor(1000.0 * (count - TAIL_BEYOND) / count) / 10.0
    return min(pct, 99.9)


def nearest_rank(count, pct):
    """1-based rank of the nearest-rank percentile ``pct`` among ``count`` sorted values."""
    tenths = round(pct * 10)  # exact integer arithmetic, no float rounding at the boundary
    return max(1, -(-tenths * count // 1000))


def latency_summary(seconds):
    """p50 and tail of op latencies, in ms, with the tail's percentile and counts."""
    values = sorted(seconds)
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(f"{len(values)} ops are too few for a tail percentile")
    rank = nearest_rank(len(values), pct)
    return {
        "p50_ms": 1e3 * statistics.median(values),
        "tail_ms": 1e3 * values[rank - 1],
        "tail_percentile": pct,
        "ops": len(values),
        "beyond_tail": len(values) - rank,
    }


def failure_rate_upper(failed, attempted):
    """One-sided 95% Clopper-Pearson upper bound on the per-op failure probability.

    Unlike failed/attempted it is never 0: with no failures it is the largest
    failure rate that ``attempted`` clean ops still leave plausible.
    """
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted and attempted >= 1")
    if failed == attempted:
        return 1.0
    from scipy.stats import beta

    return float(beta.ppf(0.95, failed + 1, attempted - failed))
