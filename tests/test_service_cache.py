"""Tests for the LRU result cache (:mod:`repro.service.cache`)."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.obs import MetricsRegistry
from repro.service.cache import LRUResultCache


class FakeClock:
    """An injectable clock advanced by hand, so TTL tests never sleep."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestBasics:
    def test_round_trip(self):
        cache = LRUResultCache(max_entries=4)
        cache.put("k", {"makespan": 1.0})
        assert cache.get("k") == {"makespan": 1.0}
        assert "k" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = LRUResultCache(max_entries=4)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_clear(self):
        cache = LRUResultCache(max_entries=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ServiceError):
            LRUResultCache(max_entries=0)
        with pytest.raises(ServiceError):
            LRUResultCache(max_entries=4, ttl=0)


class TestEvictionOrder:
    def test_least_recently_used_goes_first(self):
        cache = LRUResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.put("d", "D")  # evicts "a", the oldest untouched entry
        assert cache.get("a") is None
        assert cache.keys() == ("b", "c", "d")
        assert cache.evictions == 1

    def test_a_get_hit_counts_as_use(self):
        cache = LRUResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        assert cache.get("a") == "A"  # refresh "a"; "b" becomes LRU
        cache.put("d", "D")
        assert cache.get("b") is None
        assert cache.get("a") == "A"

    def test_a_put_refresh_counts_as_use(self):
        cache = LRUResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: no eviction
        assert cache.evictions == 0
        cache.put("c", 3)  # now "b" is the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_capacity_is_never_exceeded(self):
        cache = LRUResultCache(max_entries=5)
        for index in range(50):
            cache.put(f"k{index}", index)
        assert len(cache) == 5
        assert cache.evictions == 45


class TestTTL:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = LRUResultCache(max_entries=4, ttl=10.0, clock=clock)
        cache.put("k", "v")
        clock.now = 9.9
        assert cache.get("k") == "v"
        clock.now = 10.1
        assert cache.get("k") is None
        assert cache.expirations == 1
        assert "k" not in cache

    def test_put_refresh_resets_the_age(self):
        clock = FakeClock()
        cache = LRUResultCache(max_entries=4, ttl=10.0, clock=clock)
        cache.put("k", "v1")
        clock.now = 8.0
        cache.put("k", "v2")
        clock.now = 17.0  # 9s after the refresh, 17s after first insert
        assert cache.get("k") == "v2"

    def test_contains_is_ttl_aware_without_touching_stats(self):
        clock = FakeClock()
        cache = LRUResultCache(max_entries=4, ttl=10.0, clock=clock)
        cache.put("k", "v")
        assert "k" in cache
        clock.now = 11.0
        assert "k" not in cache  # expired entries read as absent...
        assert cache.hits == 0  # ...and membership never counts
        assert cache.misses == 0

    def test_no_ttl_means_no_expiry(self):
        clock = FakeClock()
        cache = LRUResultCache(max_entries=4, clock=clock)
        cache.put("k", "v")
        clock.now = 1e9
        assert cache.get("k") == "v"


class TestMetrics:
    def test_counters_track_every_outcome(self):
        clock = FakeClock()
        cache = LRUResultCache(max_entries=2, ttl=5.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # hit
        cache.get("z")  # miss
        cache.put("c", 3)  # evicts "b" ("a" was refreshed by the hit)
        clock.now = 6.0
        cache.get("a")  # expired -> miss + expiration
        snapshot = cache.registry.snapshot()
        assert snapshot["counters"] == {
            "cache.hits": 1,
            "cache.misses": 2,
            "cache.evictions": 1,
            "cache.expirations": 1,
            "cache.warm_hits": 0,
        }
        assert snapshot["gauges"] == {"cache.size": 1, "cache.journal_entries": 0}
        assert cache.hits == 1 and cache.misses == 2
        assert cache.evictions == 1 and cache.expirations == 1

    def test_size_gauge_reads_live_state_of_a_shared_registry(self):
        registry = MetricsRegistry()
        cache = LRUResultCache(max_entries=4, registry=registry)
        assert registry.gauge("cache.size") == 0
        cache.put("a", 1)
        cache.put("b", 2)
        assert registry.snapshot()["gauges"]["cache.size"] == 2
        cache.clear()
        assert registry.gauge("cache.size") == 0
