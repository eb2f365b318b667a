"""Bounded in-memory LRU result cache for the scheduling service.

Maps canonical request keys (see :mod:`repro.service.schema`) to finished
response payloads.  One bound keeps a long-running service healthy: at
most ``max_entries`` results are retained, and inserting into a full
cache evicts the least-recently-used entry (a :meth:`get` hit counts as
use).

The cache deliberately stores *responses*, not simulations: because every
response is a pure function of its canonical request (the service
determinism contract, ``docs/SERVICE.md``), a hit and a recompute are
byte-identical — caching changes latency and the hit/miss counters, never
the response stream on stdout.  For the same reason an entry never goes
stale, so entries carry no age and nothing expires.

An optional :class:`~repro.service.persistence.ShardPersistence` makes the
cache **durable across restarts**: every :meth:`put` writes through to an
append-only journal (compacted into an atomic snapshot when it grows past
a threshold), and :meth:`warm_load` replays journal+snapshot into the
cache before a restarted server accepts connections.  Hits on replayed
entries are counted separately (``warm_hits``) so the fault harness's
audit can assert that a SIGKILLed shard really came back warm.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, Tuple, TYPE_CHECKING

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
    "cache.warm_hits",
)


class LRUResultCache:
    """Size-bounded mapping from request keys to cached results.

    Values are response metrics payloads, never ``None`` (a stored
    ``None`` would read as a miss).  Counters (hits/misses/evictions/warm
    hits) live in the cache's own :class:`~repro.obs.MetricsRegistry`,
    which the service adopts as the shard's one telemetry store.  The
    ``cache.size`` and ``cache.journal_entries`` gauges are bound to the
    cache and read at scrape time (the journal gauge reads 0 without a
    persistence layer).  The attributes
    ``cache.hits`` … are read-only views over the registry.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        persistence: "Optional[ShardPersistence]" = None,
    ) -> None:
        if max_entries <= 0:
            raise ServiceError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.persistence = persistence
        self.registry = MetricsRegistry()
        self.registry.declare(counters=_COUNTERS)
        self.registry.bind_gauge("cache.size", self.__len__)
        self.registry.bind_gauge("cache.journal_entries", self._journal_entries)
        #: key -> value; insertion/refresh order = LRU order.
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        #: Keys inserted by :meth:`warm_load` and not yet recomputed —
        #: a :meth:`get` hit on one of these counts as a warm hit.
        self._warm_keys: set = set()

    @property
    def hits(self) -> int:
        """Number of :meth:`get` hits (view over ``cache.hits``)."""
        return self.registry.counter("cache.hits")

    @property
    def misses(self) -> int:
        """Number of :meth:`get` misses."""
        return self.registry.counter("cache.misses")

    @property
    def evictions(self) -> int:
        """Number of LRU evictions forced by a full cache."""
        return self.registry.counter("cache.evictions")

    @property
    def warm_hits(self) -> int:
        """Hits on entries replayed by :meth:`warm_load`."""
        return self.registry.counter("cache.warm_hits")

    def _journal_entries(self) -> int:
        """Records in the persistence journal (0 without durability)."""
        return self.persistence.journal_entries if self.persistence is not None else 0

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key``, or ``None`` on a miss."""
        value = self._entries.get(key)
        if value is None:
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
        self._entries[key] = value

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
        return tuple(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership that, unlike :meth:`get`, touches no LRU order or counter."""
        return key in self._entries

    def keys(self) -> Tuple[str, ...]:
        """Resident keys in LRU order (least recently used first)."""
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
            f"hits={self.hits}, misses={self.misses})"
        )
