"""Tests for the streaming-histogram / metrics-registry layer.

Pins the three properties the serving stack leans on:

* **determinism** — two interpreters with different ``PYTHONHASHSEED``
  values fed the same observations emit byte-identical snapshot JSON
  (bucket boundaries come from repeated IEEE multiplication, never
  ``pow``/``log``, and every snapshot section is sorted);
* **merge associativity** — merging shard histograms is bucket-wise
  integer addition, so grouping cannot change any count, bound, or
  quantile (the float ``sum`` field alone is IEEE-addition ordered and
  only required to be close);
* **snapshot atomicity** — a registry snapshot taken while worker
  threads mutate concurrently is a consistent point-in-time view, so
  ordered increments (received before responded) can never appear
  reversed in a scrape.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_GROWTH, MetricsRegistry, StreamingHistogram
from repro.obs.metrics import _MAX_INDEX, _Boundaries

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Observations spanning the interesting cases: zero bucket, sub-1.0
#: values (negative bucket indices), exact boundaries, and large values.
_PROBE_VALUES = [
    0.0,
    -1.5,
    1e-9,
    0.07,
    0.5,
    1.0,
    1.1,
    1.1000000000000001,
    3.14159,
    42.0,
    999.5,
    1e6,
]

_SNAPSHOT_SCRIPT = """
import json, sys
from repro.obs import StreamingHistogram
h = StreamingHistogram()
for v in json.loads(sys.argv[1]):
    h.observe(v)
sys.stdout.write(json.dumps(h.snapshot(), sort_keys=True))
"""


def _snapshot_via_subprocess(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    result = subprocess.run(
        [sys.executable, "-c", _SNAPSHOT_SCRIPT, json.dumps(_PROBE_VALUES)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


class TestHistogramDeterminism:
    def test_snapshots_byte_identical_across_hash_seeds(self):
        snapshots = [_snapshot_via_subprocess(seed) for seed in ("0", "1", "424242")]
        assert snapshots[0] == snapshots[1] == snapshots[2]
        # And the in-process histogram agrees with the subprocesses.
        local = StreamingHistogram()
        local.observe_many(_PROBE_VALUES)
        assert json.dumps(local.snapshot(), sort_keys=True) == snapshots[0]

    def test_bucket_boundaries_from_repeated_multiplication(self):
        histogram = StreamingHistogram()
        bound = 1.0
        for index in range(1, 50):
            bound *= DEFAULT_GROWTH
            assert histogram._bounds.bound(index) == bound

    def test_quantiles_clamped_to_observed_range(self):
        histogram = StreamingHistogram()
        histogram.observe_many([3.0, 5.0, 7.0])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert 3.0 <= histogram.quantile(q) <= 7.0

    def test_zero_and_negative_values_land_in_zero_bucket(self):
        histogram = StreamingHistogram()
        histogram.observe_many([0.0, -2.0, 4.0])
        assert histogram.zero_count == 2
        assert histogram.quantile(0.5) == 0.0

    def test_empty_histogram_quantile_is_zero(self):
        assert StreamingHistogram().quantile(0.99) == 0.0

    def test_growth_must_exceed_one(self):
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)

    def test_merge_rejects_mismatched_growth(self):
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.1).merge(StreamingHistogram(growth=1.2))


# -- bucket identity ---------------------------------------------------------
class _ReferenceBuckets:
    """The original guess-and-walk bucketing, kept here as the oracle.

    A ``math.log`` guess, corrected by walking a lazily grown table of
    repeated multiplications/divisions — the bucket map every committed
    histogram snapshot was produced with.
    """

    def __init__(self, growth):
        self.growth = growth
        self.pos = [1.0]
        self.neg = [1.0]
        self.log_growth = math.log(growth)

    def bound(self, index):
        if index >= 0:
            while len(self.pos) <= index:
                self.pos.append(self.pos[-1] * self.growth)
            return self.pos[index]
        while len(self.neg) <= -index:
            self.neg.append(self.neg[-1] / self.growth)
        return self.neg[-index]

    def index_of(self, value):
        guess = int(math.floor(math.log(value) / self.log_growth))
        guess = max(-_MAX_INDEX, min(_MAX_INDEX, guess))
        while guess > -_MAX_INDEX and self.bound(guess) > value:
            guess -= 1
        while guess < _MAX_INDEX and self.bound(guess + 1) <= value:
            guess += 1
        return guess


_REFERENCE = _ReferenceBuckets(DEFAULT_GROWTH)


class TestBucketIdentity:
    """``index_of`` (one bisect) maps every value to the reference's bucket."""

    def test_boundaries_and_their_neighbours(self):
        table = _Boundaries.shared(DEFAULT_GROWTH)
        probes = [5e-324, 1e-300, 1e300]
        for index in range(-700, 701):
            bound = _REFERENCE.bound(index)
            probes += [bound, math.nextafter(bound, 0.0)]
        for value in probes:
            assert table.index_of(value) == _REFERENCE.index_of(value), value

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_any_positive_float(self, value):
        table = _Boundaries.shared(DEFAULT_GROWTH)
        assert table.index_of(value) == _REFERENCE.index_of(value)

    def test_table_is_complete_at_construction(self):
        table = _Boundaries(DEFAULT_GROWTH)
        sizes = (len(table._pos), len(table._neg))
        assert sizes == (_MAX_INDEX + 2, _MAX_INDEX + 2)
        for index in range(-_MAX_INDEX - 1, _MAX_INDEX + 2):
            assert table.bound(index) == _REFERENCE.bound(index)
        histogram = StreamingHistogram()
        histogram._bounds = table
        histogram.observe_many([5e-324, 1e-30, 0.5, 1.0, 7.0, 1e30, 1e300])
        histogram.snapshot()
        # Nothing is appended on use, so concurrent readers never race.
        assert (len(table._pos), len(table._neg)) == sizes


# -- merge associativity -----------------------------------------------------
_values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=40,
)


def _filled(values) -> StreamingHistogram:
    histogram = StreamingHistogram()
    histogram.observe_many(values)
    return histogram


def _comparable(snapshot):
    """Snapshot minus the float ``sum`` (IEEE addition is order-sensitive)."""
    return {key: value for key, value in snapshot.items() if key != "sum"}


class TestMergeAssociativity:
    @settings(max_examples=60, deadline=None)
    @given(_values, _values, _values)
    def test_merge_is_associative(self, a, b, c):
        left = _filled(a).merge(_filled(b)).merge(_filled(c))
        right = _filled(a).merge(_filled(b).merge(_filled(c)))
        assert _comparable(left.snapshot()) == _comparable(right.snapshot())
        assert math.isclose(
            left.snapshot()["sum"], right.snapshot()["sum"], rel_tol=1e-9, abs_tol=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(_values, _values)
    def test_merge_equals_observing_concatenation(self, a, b):
        merged = _filled(a).merge(_filled(b))
        direct = _filled(list(a) + list(b))
        assert _comparable(merged.snapshot()) == _comparable(direct.snapshot())


# -- registry ----------------------------------------------------------------
class TestRegistry:
    def test_declare_lists_catalog_before_traffic(self):
        registry = MetricsRegistry()
        registry.declare(counters=["a.hits"], gauges=["a.depth"], histograms=["a.ms"])
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a.hits": 0}
        assert snapshot["gauges"] == {"a.depth": 0}
        assert snapshot["histograms"]["a.ms"]["count"] == 0

    def test_snapshot_sections_sorted(self):
        registry = MetricsRegistry()
        for name in ("z.last", "a.first", "m.mid"):
            registry.inc(name)
        assert list(registry.snapshot()["counters"]) == ["a.first", "m.mid", "z.last"]

    def test_snapshot_atomic_under_concurrent_mutation(self):
        """Ordered increments never appear reversed in any scrape.

        Each worker increments ``received`` strictly before ``responded``;
        because every mutation and snapshot runs under the registry lock,
        no snapshot may ever show ``responded > received``.  Each worker
        also credits ``responded``, ``ok`` and ``failed`` in one
        :meth:`MetricsRegistry.add`, so no snapshot may ever show
        ``responded != ok + failed`` either.
        """
        registry = MetricsRegistry()
        stop = threading.Event()
        violations = []

        def worker():
            flip = 0
            while not stop.is_set():
                registry.inc("service.received")
                registry.observe("service.request_ms", 1.25)
                registry.inc("service.responded")
                flip ^= 1
                registry.add(
                    {
                        "batch.ok": 2 + flip,
                        "batch.failed": 1 - flip,
                        "batch.responded": 3,
                    }
                )

        def scraper():
            while not stop.is_set():
                snapshot = registry.snapshot()
                counters = snapshot["counters"]
                received = counters.get("service.received", 0)
                responded = counters.get("service.responded", 0)
                if responded > received:
                    violations.append((received, responded))
                outcomes = counters.get("batch.ok", 0) + counters.get("batch.failed", 0)
                if counters.get("batch.responded", 0) != outcomes:
                    violations.append(dict(counters))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads += [threading.Thread(target=scraper) for _ in range(2)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: tear what can tear
        try:
            for thread in threads:
                thread.start()
            stop_timer = threading.Timer(0.5, stop.set)
            stop_timer.start()
            stop_timer.join()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            stop.set()
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        final = registry.snapshot()
        assert final["counters"]["service.received"] == final["counters"]["service.responded"]
        assert final["histograms"]["service.request_ms"]["count"] == final["counters"][
            "service.received"
        ]
        received = final["counters"]["service.received"]
        assert final["counters"]["batch.responded"] == 3 * received

    def test_bound_gauge_is_read_at_every_snapshot_outside_the_lock(self):
        registry = MetricsRegistry()
        registry.declare(gauges=["queue.depth", "plain"])
        registry.set_gauge("plain", 7)
        depth = [3]

        def read_depth():
            # A reader may record into the registry itself: it runs
            # outside the (non-reentrant) registry lock.
            registry.inc("reads")
            return depth[0]

        registry.bind_gauge("queue.depth", read_depth)
        assert registry.snapshot()["gauges"] == {"plain": 7, "queue.depth": 3}
        depth[0] = 5
        assert registry.gauge("queue.depth") == 5
        assert registry.snapshot()["gauges"]["queue.depth"] == 5
        assert registry.counter("reads") == 3
        registry.bind_gauge("queue.depth", lambda: 11)  # rebinding replaces
        assert registry.snapshot()["gauges"]["queue.depth"] == 11
        assert registry.names()[1] == ("plain", "queue.depth")
