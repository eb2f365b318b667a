"""Tests for the LRU result cache (:mod:`repro.service.cache`)."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import LRUResultCache


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


class TestMembership:
    def test_contains_touches_no_counter_and_no_lru_order(self):
        cache = LRUResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "z" not in cache
        assert cache.hits == 0 and cache.misses == 0  # membership never counts
        cache.put("c", 3)  # "a" stayed least recently used
        assert cache.keys() == ("b", "c")


class TestMetrics:
    def test_counters_track_every_outcome(self):
        cache = LRUResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # hit
        cache.get("z")  # miss
        cache.put("c", 3)  # evicts "b" ("a" was refreshed by the hit)
        cache.get("b")  # evicted -> miss
        snapshot = cache.registry.snapshot()
        assert snapshot["counters"] == {
            "cache.hits": 1,
            "cache.misses": 2,
            "cache.evictions": 1,
            "cache.warm_hits": 0,
        }
        assert snapshot["gauges"] == {"cache.size": 2, "cache.journal_entries": 0}
        assert cache.hits == 1 and cache.misses == 2
        assert cache.evictions == 1

    def test_size_gauge_reads_live_state_of_the_registry(self):
        cache = LRUResultCache(max_entries=4)
        registry = cache.registry
        assert registry.gauge("cache.size") == 0
        cache.put("a", 1)
        cache.put("b", 2)
        assert registry.snapshot()["gauges"]["cache.size"] == 2
        cache.clear()
        assert registry.gauge("cache.size") == 0
