"""Bounded in-memory LRU result cache for the scheduling service.

Maps canonical request keys (see :mod:`repro.service.schema`) to finished
response payloads.  Two bounds keep a long-running service healthy:

* **size** — at most ``max_entries`` results are retained; inserting into a
  full cache evicts the least-recently-used entry (a :meth:`get` hit counts
  as use);
* **age** — with a ``ttl``, entries older than ``ttl`` seconds are treated
  as absent and dropped on access, so a service that recycles keys slowly
  does not pin stale results forever.

The cache deliberately stores *responses*, not simulations: because every
response is a pure function of its canonical request (the service
determinism contract, ``docs/SERVICE.md``), a hit and a recompute are
byte-identical — caching changes latency and the hit/miss counters, never
the response stream on stdout.

An optional :class:`~repro.service.persistence.ShardPersistence` makes the
cache **durable across restarts**: every :meth:`put` writes through to an
append-only journal (compacted into an atomic snapshot when it grows past
a threshold), and :meth:`warm_load` replays journal+snapshot into the
cache before a restarted server accepts connections.  Hits on replayed
entries are counted separately (``warm_hits``) so the fault harness's
audit can assert that a SIGKILLed shard really came back warm.

The clock is injectable (``clock=`` takes any zero-argument callable
returning seconds) so TTL behaviour is testable without sleeping.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

from ..exceptions import ServiceError
from ..obs import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persistence import ShardPersistence

__all__ = ["LRUResultCache"]

#: Registry counter names the cache owns (the ``cache.*`` section of the
#: metric catalog in :mod:`repro.service.observability`).
_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.expirations",
    "cache.warm_hits",
)


class LRUResultCache:
    """Size- and age-bounded mapping from request keys to cached results.

    Counters (hits/misses/evictions/expirations/warm hits) live in a
    :class:`~repro.obs.MetricsRegistry` — pass the shard's registry, or
    let the cache create a private one that the service then builds its
    telemetry on.  The ``cache.size`` and ``cache.journal_entries``
    gauges are bound to the cache and read at scrape time (the journal
    gauge reads 0 without a persistence layer).  The attributes
    ``cache.hits`` … are read-only views over the registry.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        persistence: "Optional[ShardPersistence]" = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries <= 0:
            raise ServiceError(f"max_entries must be positive, got {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ServiceError(f"ttl must be positive (or None), got {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self.persistence = persistence
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.declare(counters=_COUNTERS)
        self.registry.bind_gauge("cache.size", self.__len__)
        self.registry.bind_gauge("cache.journal_entries", self._journal_entries)
        #: key -> (stored_at, value); insertion/refresh order = LRU order.
        self._entries: "OrderedDict[str, Tuple[float, Any]]" = OrderedDict()
        #: Keys inserted by :meth:`warm_load` and not yet recomputed —
        #: a :meth:`get` hit on one of these counts as a warm hit.
        self._warm_keys: set = set()

    @property
    def hits(self) -> int:
        """Number of :meth:`get` hits (view over ``cache.hits``)."""
        return self.registry.counter("cache.hits")

    @property
    def misses(self) -> int:
        """Number of :meth:`get` misses, expiries included."""
        return self.registry.counter("cache.misses")

    @property
    def evictions(self) -> int:
        """Number of LRU evictions forced by a full cache."""
        return self.registry.counter("cache.evictions")

    @property
    def expirations(self) -> int:
        """Number of entries dropped on access because their TTL passed."""
        return self.registry.counter("cache.expirations")

    @property
    def warm_hits(self) -> int:
        """Hits on entries replayed by :meth:`warm_load`."""
        return self.registry.counter("cache.warm_hits")

    def _journal_entries(self) -> int:
        """Records in the persistence journal (0 without durability)."""
        return self.persistence.journal_entries if self.persistence is not None else 0

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key``, or ``None`` on miss/expiry."""
        entry = self._entries.get(key)
        if entry is None:
            self.registry.inc("cache.misses")
            return None
        stored_at, value = entry
        if self.ttl is not None and self._clock() - stored_at > self.ttl:
            del self._entries[key]
            self._warm_keys.discard(key)
            self.registry.inc("cache.expirations")
            self.registry.inc("cache.misses")
            return None
        self._entries.move_to_end(key)
        self.registry.inc("cache.hits")
        if key in self._warm_keys:
            self.registry.inc("cache.warm_hits")
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) one result, evicting the LRU entry if full.

        With a persistence layer attached, the entry is also written
        through to the shard journal before it becomes visible, and the
        journal is compacted into a snapshot once it outgrows its bound —
        so a crash after any :meth:`put` can replay the entry on restart.
        """
        if self.persistence is not None:
            self.persistence.record(key, value)
        self._insert(key, value, warm=False)
        if self.persistence is not None and self.persistence.should_compact():
            self.persistence.compact(self.items())

    def _insert(self, key: str, value: Any, *, warm: bool) -> None:
        """Shared insert path for :meth:`put` and :meth:`warm_load`."""
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._warm_keys.discard(evicted)
            self.registry.inc("cache.evictions")
        if warm:
            self._warm_keys.add(key)
        else:
            self._warm_keys.discard(key)
        self._entries[key] = (self._clock(), value)

    def warm_load(self) -> int:
        """Replay the persistence layer's snapshot+journal into the cache.

        Returns how many entries are resident afterwards.  Entries are
        inserted in write order (later journal entries overwrite earlier
        ones — replay is idempotent because keys are content hashes), do
        not touch the hit/miss counters, and are flagged so later hits on
        them increment ``warm_hits``.  Without a persistence layer this is
        a no-op returning 0.
        """
        if self.persistence is None:
            return 0
        loaded = 0
        for key, value in self.persistence.load():
            self._insert(key, value, warm=True)
            loaded += 1
        return len(self._warm_keys) if loaded else 0

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        """Resident ``(key, value)`` pairs in LRU order (coldest first)."""
        return tuple((key, value) for key, (_, value) in self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """TTL-aware membership: an expired entry is already absent.

        Unlike :meth:`get`, never mutates the cache or the hit/miss
        counters, so ``key in cache`` agrees with what a subsequent
        :meth:`get` would find without perturbing the statistics.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        if self.ttl is not None and self._clock() - entry[0] > self.ttl:
            return False
        return True

    def keys(self) -> Tuple[str, ...]:
        """Resident keys in LRU order (least recently used first).

        Residency, not liveness: entries past their TTL stay listed until
        an access collects them.
        """
        return tuple(self._entries)

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = len(self._entries)
        self._entries.clear()
        self._warm_keys.clear()
        return removed

    def close(self) -> None:
        """Release the persistence layer's file handles (idempotent)."""
        if self.persistence is not None:
            self.persistence.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LRUResultCache(size={len(self)}/{self.max_entries}, "
            f"ttl={self.ttl}, hits={self.hits}, misses={self.misses})"
        )
