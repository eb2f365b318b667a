"""Deterministic streaming histograms and a thread-safe metrics registry.

The design constraints come from the serving stack:

* **no stored samples** — a shard serving millions of requests must
  answer p50/p95/p99 from O(buckets) state, not O(requests) samples;
* **deterministic buckets** — bucket boundaries are powers of a fixed
  decimal growth factor computed by *repeated IEEE multiplication/
  division* (both exactly-rounded operations), never ``math.pow`` or
  ``log`` (whose last-ulp behaviour varies across libm builds).  Two
  interpreters — any platform, any ``PYTHONHASHSEED`` — observing the
  same values produce byte-identical snapshots;
* **associative merge** — merging per-shard histograms is bucket-wise
  integer addition, so ``(a + b) + c == a + (b + c)`` exactly (the
  hypothesis property in ``tests/test_obs_metrics.py``) and a fleet-wide
  percentile is computable from shard snapshots;
* **thread safety at the registry** — the registry serializes every
  mutation and snapshot under one lock; histograms themselves stay
  lock-free so they are cheap to use single-threaded (loadgen,
  benchmarks).

Quantiles are **nearest-rank over buckets**: the reported quantile is the
upper boundary of the bucket containing the nearest-rank sample, clamped
to the observed ``[min, max]``.  With the default growth of ``1.1`` the
relative overestimate is below 10% — plenty for latency telemetry, and
the same math on the client (loadgen) and the server (dispatcher) by
construction.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["DEFAULT_GROWTH", "StreamingHistogram", "MetricsRegistry"]

#: Default bucket growth factor: each bucket's upper boundary is 1.1x its
#: lower one (~24 buckets per decade, <10% relative quantile error).
DEFAULT_GROWTH = 1.1

#: Bucket indices are clamped to ``[-_MAX_INDEX, _MAX_INDEX]``; at growth
#: 1.1 that spans ~10**-26..10**26 — far beyond any latency or size.
_MAX_INDEX = 640


class _Boundaries:
    """Deterministic bucket boundaries for one growth factor.

    ``bound(i)`` is ``growth ** i`` computed by repeated multiplication
    (``i > 0``) or division (``i < 0``) from ``1.0``.  IEEE 754 specifies
    both operations exactly, so the table is identical on every platform
    — unlike ``pow``/``exp``/``log``, which are only *faithfully* rounded
    and may differ between libm builds.  The whole table is built at
    construction and never changes, so concurrent readers are safe.
    """

    _shared: Dict[float, "_Boundaries"] = {}
    _shared_lock = threading.Lock()

    def __init__(self, growth: float) -> None:
        # _pos[i] == growth ** i and _neg[i] == growth ** -i, for
        # 0 <= i <= _MAX_INDEX + 1 (quantiles read the upper bound of the
        # top bucket).
        self._pos: List[float] = [1.0]
        self._neg: List[float] = [1.0]
        for _ in range(_MAX_INDEX + 1):
            self._pos.append(self._pos[-1] * growth)
            self._neg.append(self._neg[-1] / growth)
        #: ``bound(-_MAX_INDEX + 1) .. bound(_MAX_INDEX)``, ascending: the
        #: lower boundaries of every bucket above the bottom one.
        self._edges: List[float] = self._neg[_MAX_INDEX - 1:0:-1] + self._pos[: _MAX_INDEX + 1]

    @classmethod
    def shared(cls, growth: float) -> "_Boundaries":
        """The process-wide boundary table for ``growth`` (create once)."""
        table = cls._shared.get(growth)
        if table is None:
            with cls._shared_lock:
                table = cls._shared.setdefault(growth, cls(growth))
        return table

    def bound(self, index: int) -> float:
        """``growth ** index`` from the table (``|index| <= _MAX_INDEX + 1``)."""
        return self._pos[index] if index >= 0 else self._neg[-index]

    def index_of(self, value: float) -> int:
        """The bucket index whose ``[bound(i), bound(i+1))`` holds ``value``.

        One binary search over the deterministic table, clamped to
        ``[-_MAX_INDEX, _MAX_INDEX]``: values below ``bound(-_MAX_INDEX + 1)``
        land in the bottom bucket and values from ``bound(_MAX_INDEX)`` up
        (``inf`` and NaN included) in the top one.
        """
        return bisect_right(self._edges, value) - _MAX_INDEX


class StreamingHistogram:
    """Fixed-log-bucket streaming histogram with deterministic quantiles.

    Values ``<= 0`` land in a dedicated *zero bucket* (reported as
    ``0.0`` by quantiles) so instrumenting code never has to special-case
    a measured duration of exactly zero.  Not thread-safe on its own —
    wrap mutations in :class:`MetricsRegistry` for concurrent use.
    """

    __slots__ = ("growth", "count", "total", "min", "max", "zero_count", "buckets", "_bounds")

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = growth
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero_count = 0
        #: bucket index -> observation count (sparse).
        self.buckets: Dict[int, int] = {}
        self._bounds = _Boundaries.shared(growth)

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = self._bounds.index_of(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into this histogram (same growth required)."""
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growths {self.growth} != {other.growth}"
            )
        self.count += other.count
        self.total += other.total
        self.zero_count += other.zero_count
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the buckets (``0 <= q <= 1``).

        Returns the upper boundary of the bucket holding the nearest-rank
        sample, clamped to the observed ``[min, max]``; ``0.0`` on an
        empty histogram.  Deterministic given the observation multiset.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return max(0.0, self.min or 0.0)
        remaining = rank - self.zero_count
        for index in sorted(self.buckets):
            remaining -= self.buckets[index]
            if remaining <= 0:
                upper = self._bounds.bound(index + 1)
                if self.max is not None:
                    upper = min(upper, self.max)
                if self.min is not None:
                    upper = max(upper, self.min)
                return upper
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples (loadgen convenience)."""
        for value in values:
            self.observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: counts, sum, min/max, p50/p95/p99 and buckets.

        Bucket keys are stringified indices (JSON objects key on
        strings); two histograms fed the same values snapshot to equal
        dicts on any platform/interpreter — the determinism test pins it.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "zero": self.zero_count,
            "growth": self.growth,
            "buckets": {str(index): self.buckets[index] for index in sorted(self.buckets)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StreamingHistogram(count={self.count}, p50={self.quantile(0.5):.4g}, "
            f"p99={self.quantile(0.99):.4g})"
        )


class MetricsRegistry:
    """Thread-safe, process-local registry of counters, gauges, histograms.

    All mutation and the :meth:`snapshot` run under one internal lock, so
    a snapshot taken while another thread records is a consistent
    point-in-time view — never a half-applied update (the atomicity
    property ``tests/test_obs_metrics.py`` drives).

    Metrics are created on first use; :meth:`declare` pre-creates them at
    zero so a scrape taken before any traffic still lists the full metric
    catalog (what the CI metrics-scrape step asserts against the docs).

    A gauge that mirrors live state (a queue length, an open-connection
    count) is *bound* with :meth:`bind_gauge` instead of being set: the
    registry calls its reader on every :meth:`snapshot`, so the value can
    never go stale and its owner pays nothing on the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}
        self._readers: Dict[str, Callable[[], float]] = {}

    # -- mutation -----------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def add(self, amounts: Mapping[str, int]) -> None:
        """Add every ``name -> amount`` pair under one lock hold.

        A snapshot sees all of the increments or none of them, so counters
        that must stay consistent with each other (``responded`` and the
        outcome counters it sums) are credited together through here.
        """
        with self._lock:
            counters = self._counters
            for name, amount in amounts.items():
                counters[name] = counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges[name] = value

    def bind_gauge(self, name: str, read: Callable[[], float]) -> None:
        """Read gauge ``name`` from ``read()`` at every snapshot.

        Replaces any earlier binding of ``name``.  Readers run *outside*
        the registry lock, so a reader may take its owner's lock even when
        that owner records metrics while holding it.
        """
        with self._lock:
            self._gauges.setdefault(name, 0)
            self._readers[name] = read

    def observe(self, name: str, value: float, growth: float = DEFAULT_GROWTH) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = StreamingHistogram(growth)
            histogram.observe(value)

    def declare(
        self,
        counters: Iterable[str] = (),
        gauges: Iterable[str] = (),
        histograms: Iterable[str] = (),
    ) -> None:
        """Pre-create metrics at zero so snapshots list them before traffic."""
        with self._lock:
            for name in counters:
                self._counters.setdefault(name, 0)
            for name in gauges:
                self._gauges.setdefault(name, 0)
            for name in histograms:
                if name not in self._histograms:
                    self._histograms[name] = StreamingHistogram()

    # -- reads --------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        """Current value of gauge ``name`` (0 when never set)."""
        with self._lock:
            read = self._readers.get(name)
            if read is None:
                return self._gauges.get(name, 0)
        return read()

    def histogram_quantile(self, name: str, q: float) -> float:
        """Quantile ``q`` of histogram ``name`` (0.0 when absent/empty)."""
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.quantile(q) if histogram is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Atomic point-in-time view of every metric, JSON-able.

        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` with
        every section sorted by name, so equal registries snapshot to
        equal dicts.  Bound gauges are read just before the lock is taken;
        counters, set gauges and histograms form one consistent view.
        """
        with self._lock:
            readers = list(self._readers.items())
        readings = {name: read() for name, read in readers}
        with self._lock:
            gauges = {**self._gauges, **readings}
            return {
                "counters": {name: self._counters[name] for name in sorted(self._counters)},
                "gauges": {name: gauges[name] for name in sorted(gauges)},
                "histograms": {
                    name: self._histograms[name].snapshot()
                    for name in sorted(self._histograms)
                },
            }

    def names(self) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
        """The registered ``(counter, gauge, histogram)`` name tuples."""
        with self._lock:
            return (
                tuple(sorted(self._counters)),
                tuple(sorted(self._gauges)),
                tuple(sorted(self._histograms)),
            )
