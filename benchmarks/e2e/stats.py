"""Order statistics for the benchmark: medians, guarded percentiles,
quartile spreads, and the A/B comparison rule.

Nothing here knows about the system under test; the self-tests in
``tests/test_e2e_stats.py`` pin the arithmetic.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics §1); fewer and the "tail" is one or two
#: outliers, not a distribution.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def _rank(count: int, fraction: float) -> int:
    """1-based nearest rank of ``fraction`` among ``count`` samples."""
    return max(1, math.ceil(fraction * count - 1e-9))


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` sorted samples rank above ``fraction``."""
    return count - _rank(count, fraction)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, refused when the tail is too thin.

    ``fraction`` is in [0, 1).  Raises :class:`TooFewSamples` unless at
    least :data:`MIN_SAMPLES_BEYOND` samples lie beyond the returned
    one — p90 needs 100 samples, p95 200, p99 1000.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1)")
    count = len(values)
    if samples_beyond(count, fraction) < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {count} samples leaves fewer than "
            f"{MIN_SAMPLES_BEYOND} beyond it"
        )
    return sorted(values)[_rank(count, fraction) - 1]


def percentile_or_zero(values: Sequence[float], fraction: float) -> float:
    """:func:`percentile`, or 0.0 when the sample cannot support it.

    For per-layer metrics, which the output contract requires on every
    workload and run length; 0.0 there reads as "not measurable here".
    """
    try:
        return percentile(values, fraction)
    except TooFewSamples:
        return 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def histogram_quantile(snapshot: Optional[Dict], fraction: float) -> float:
    """Quantile of a ``repro.obs`` histogram snapshot (or delta).

    Linear interpolation inside the bucket that holds the rank; samples
    in the overflow bucket report the last boundary.
    """
    if not snapshot or not snapshot.get("count"):
        return 0.0
    rank = fraction * snapshot["count"]
    seen = 0
    lower = 0.0
    for upper, bucket in zip(snapshot["boundaries"], snapshot["buckets"]):
        if bucket and seen + bucket >= rank:
            return lower + (upper - lower) * (rank - seen) / bucket
        seen += bucket
        lower = upper
    return lower


def histogram_delta(after: Optional[Dict], before: Optional[Dict]) -> Dict:
    """Growth of one histogram between two snapshots."""
    if not after:
        return {}
    if not before:
        return after
    return {
        "boundaries": after["boundaries"],
        "buckets": [
            a - b for a, b in zip(after["buckets"], before["buckets"])
        ],
        "overflow": after["overflow"] - before["overflow"],
        "count": after["count"] - before["count"],
        "total": after["total"] - before["total"],
    }


def compare(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Dict[str, object]:
    """One row of ``run.py --compare``: medians, quartiles, ratio, verdict.

    ``ratio`` is change/base of the medians.  A metric is *worse* when
    the change's median moved in the bad direction by more than
    ``bound`` (a share of the base median); when the base's own quartile
    spread is wider than the bound the row is *unresolved* unless every
    run of the change beats every run of the base (choosing-metrics §6).
    Per-layer metrics carry no bound and are only *reported*.
    """
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    ratio = cmed / bmed if bmed else 0.0
    row: Dict[str, object] = {
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "runs": len(base)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3,
                   "runs": len(change)},
        "ratio": ratio,
        "ratio_base": bmed,
    }
    if bound is None:
        row["verdict"] = "reported"
        return row
    sign = 1.0 if better == "lower" else -1.0
    worsened_by = sign * (cmed - bmed) / bmed if bmed else 0.0
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if worsened_by > bound:
        verdict = "worse"
    elif spread(base) > bound and not all_better:
        verdict = "unresolved"
    elif all_better and abs(worsened_by) > spread(base):
        verdict = "better"
    else:
        verdict = "within-bound"
    row["verdict"] = verdict
    row["bound"] = bound
    return row
