"""Pure arithmetic of the benchmark: percentiles, lateness, backlog, span self time.

Nothing here touches the program under test, a socket or the clock, so the
self-tests in ``perfbench/tests`` pin every rule exactly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples.

    The small tolerance keeps e.g. 99.9% of 10000 at rank 9990 despite
    binary floating point.
    """
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``0 < pct <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def highest_supported_percentile(n: int, minimum_beyond: int = TAIL_SAMPLES) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with ``minimum_beyond`` samples past it.

    ``None`` when even the median leaves too few samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= minimum_beyond:
            return pct
    return None


def tail(values: Sequence[float], wanted: float = 99.0) -> Tuple[float, float, int]:
    """``(pct, value, n)``: the ``wanted`` percentile if the sample supports it.

    Otherwise the highest percentile that has :data:`TAIL_SAMPLES` samples
    beyond it.  Raises :class:`ValueError` when no percentile is supported.
    """
    n = len(values)
    supported = highest_supported_percentile(n)
    if supported is None:
        raise ValueError(f"{n} samples support no tail percentile")
    pct = min(wanted, supported)
    return pct, percentile(values, pct), n


def lateness(due: Sequence[float], actual: Sequence[float]) -> List[float]:
    """Per-request send lateness ``actual - due`` (never negative)."""
    if len(due) != len(actual):
        raise ValueError("due and actual times differ in length")
    return [max(0.0, sent - scheduled) for scheduled, sent in zip(due, actual)]


def backlog_at_sends(due: Sequence[float], received: Sequence[float]) -> List[int]:
    """Requests due but not yet answered, sampled at each request's due time.

    ``due`` must be sorted; ``received`` is aligned with it.
    """
    done = sorted(received)
    backlog = []
    answered = 0
    for index, now in enumerate(due):
        while answered < len(done) and done[answered] <= now:
            answered += 1
        backlog.append(index + 1 - answered)
    return backlog


def backlog_growth(backlog: Sequence[int]) -> float:
    """Mean backlog of the last quarter minus that of the first quarter."""
    if len(backlog) < 4:
        return 0.0
    quarter = len(backlog) // 4
    first = sum(backlog[:quarter]) / quarter
    last = sum(backlog[-quarter:]) / quarter
    return last - first


def backlog_grows(backlog: Sequence[int], rate: float, limit_ms: float) -> bool:
    """True when the queue grew by more than one latency limit's worth of arrivals.

    A stable queue fluctuates around a level; an overloaded one gains
    ``(rate - capacity)`` requests per second for the whole step.
    """
    allowance = max(5.0, rate * limit_ms / 1000.0)
    return backlog_growth(backlog) > allowance


def interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_time(span: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and their overlaps are
    counted once, so self time is never negative.
    """
    start, end = span
    clipped = [(max(start, c0), min(end, c1)) for c0, c1 in children]
    return (end - start) - interval_union(clipped)


def histogram_delta(before: Dict, after: Dict) -> Dict:
    """Bucket-wise difference of two scraped histogram snapshots (one phase)."""
    buckets = dict(after.get("buckets", {}))
    for key, count in before.get("buckets", {}).items():
        buckets[key] = buckets.get(key, 0) - count
    return {
        "count": after.get("count", 0) - before.get("count", 0),
        "sum": after.get("sum", 0.0) - before.get("sum", 0.0),
        "zero": after.get("zero", 0) - before.get("zero", 0),
        "growth": after.get("growth"),
        "buckets": {key: count for key, count in buckets.items() if count > 0},
    }


def histogram_add(first: Dict, second: Dict) -> Dict:
    """Bucket-wise sum of two histogram deltas (``{}`` is the empty histogram)."""
    buckets = dict(first.get("buckets", {}))
    for key, count in second.get("buckets", {}).items():
        buckets[key] = buckets.get(key, 0) + count
    return {
        "count": first.get("count", 0) + second.get("count", 0),
        "sum": first.get("sum", 0.0) + second.get("sum", 0.0),
        "zero": first.get("zero", 0) + second.get("zero", 0),
        "growth": first.get("growth") or second.get("growth"),
        "buckets": buckets,
    }


def histogram_quantile(histogram: Dict, q: float) -> float:
    """Quantile ``q`` of a scraped log-bucket histogram (e.g. a phase delta).

    Bucket ``i`` holds values in ``[growth**i, growth**(i+1))``; within the
    bucket holding the nearest rank the value is interpolated on a log
    scale, so the estimate moves with the data instead of snapping to a
    bucket boundary.  Values in the zero bucket read as 0.  Returns 0 for
    an empty histogram.
    """
    count = histogram.get("count", 0)
    if count <= 0:
        return 0.0
    rank = max(1, math.ceil(q * count - 1e-9))
    seen = histogram.get("zero", 0)
    if rank <= seen:
        return 0.0
    growth = histogram["growth"]
    for index, in_bucket in sorted((int(k), v) for k, v in histogram["buckets"].items()):
        if rank <= seen + in_bucket:
            share = (rank - seen - 0.5) / in_bucket
            return growth ** (index + share)
        seen += in_bucket
    raise ValueError("histogram buckets hold fewer samples than its count")

