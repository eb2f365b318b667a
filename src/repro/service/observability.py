"""Service-side observability: the metric catalog and its registry binding.

This module binds the dependency-free :mod:`repro.obs` core to the
scheduling service.  It owns the **metric name catalog**
(:data:`METRIC_CATALOG`) — every counter, gauge and histogram a shard
exports via the ``{"type": "metrics"}`` request — and
:func:`declare_service_metrics`, which pre-declares that catalog on a
registry so a scrape taken before any traffic already lists every name.
``docs/OBSERVABILITY.md`` documents exactly these names and CI asserts
the two stay in sync.

The registry is the only store of service telemetry.  One registry per
shard: the :class:`~repro.service.cache.LRUResultCache` counts into it,
the :class:`~repro.service.dispatcher.ScheduleService` counts into the
cache's registry (or a fresh one without a cache), and the
:class:`~repro.service.async_server.AsyncScheduleServer` records into the
service's.  Metric sections and who writes them:

* **counters** are incremented where the event happens: ``cache.*`` by
  the cache, ``service.*`` by the dispatcher (a pump credits its
  outcomes — ``ok``, ``failed``, ``coalesced``, ``responded`` — in one
  atomic :meth:`~repro.obs.MetricsRegistry.add`, so a scrape never sees
  a batch's ``responded`` without the ``ok``/``failed`` it sums),
  ``server.*`` by the connection pipeline;
* **gauges** mirror live state and are *bound* to their owners
  (:meth:`~repro.obs.MetricsRegistry.bind_gauge`), read at scrape time:
  the cache's size and journal length, the server's open connections
  and inflight lines.  ``server.restarts`` is
  set once, when the server is built;
* **histograms** are observed on the hot path (per-request stage spans,
  batch shape, per-connection server-loop spans).

Per-request traces are not stored here: a request opts in with
``"trace": true`` and the dispatcher attaches its span breakdown to that
request's response.
"""

from __future__ import annotations

import resource
from typing import Dict, Tuple

from ..obs import MetricsRegistry

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "METRIC_CATALOG",
    "declare_service_metrics",
]

#: Version of the metrics payload shape.  Bump when a field is renamed or
#: removed; the round-trip tests pin the current shape so a payload change
#: without a bump fails loudly instead of breaking ``repro top`` / fault
#: harness parsers silently.  Version 2 removed the ``{"type": "stats"}``
#: payload and the queue-full shed counter, and added the ``cache.size``
#: and ``cache.journal_entries`` gauges.  Version 3 removed the
#: ``service.pending`` gauge and the ``service.profile_dumps`` counter.
#: Version 4 removed the ``service.slow_requests`` counter.
TELEMETRY_SCHEMA_VERSION = 4

#: Every metric a shard exports, by section.  ``docs/OBSERVABILITY.md``
#: lists exactly these names and the CI metrics-scrape step asserts the
#: scraped payload matches them.
METRIC_CATALOG: Dict[str, Tuple[str, ...]] = {
    "counters": (
        # cache (LRUResultCache)
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "cache.expirations",
        "cache.warm_hits",
        # dispatcher (ScheduleService)
        "service.shed_cost",
        "service.batches",
        "service.received",
        "service.responded",
        "service.ok",
        "service.invalid",
        "service.rejected",
        "service.failed",
        "service.simulations",
        "service.coalesced",
        # async server (AsyncScheduleServer)
        "server.connections_total",
        "server.requests_received",
        "server.responses_sent",
        "server.disconnects",
    ),
    "gauges": (
        "cache.size",
        "cache.journal_entries",
        "server.connections_active",
        "server.inflight",
        "server.restarts",
        "process.max_rss_mib",
    ),
    "histograms": (
        # per-request span durations (ms), non-overlapping by construction
        "service.queue_wait_ms",
        "service.cache_lookup_ms",
        "service.batch_assembly_ms",
        "service.simulate_ms",
        "service.serialize_ms",
        "service.request_ms",
        # batch shape
        "service.batch_size",
        # per-connection server loop spans (ms)
        "server.read_ms",
        "server.dispatch_ms",
        "server.write_ms",
    ),
}


def max_rss_mib() -> float:
    """This process's peak resident set size in MiB.

    Linux reports ``ru_maxrss`` in KiB.  Bound as the ``process.max_rss_mib``
    gauge, so the system call runs only when a scrape reads it.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declare_service_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-declare :data:`METRIC_CATALOG` on ``registry``; returns it.

    Also binds the ``process.max_rss_mib`` gauge.  Declaring is
    idempotent, so the cache and the dispatcher sharing one registry may
    both call this.
    """
    registry.declare(
        counters=METRIC_CATALOG["counters"],
        gauges=METRIC_CATALOG["gauges"],
        histograms=METRIC_CATALOG["histograms"],
    )
    registry.bind_gauge("process.max_rss_mib", max_rss_mib)
    return registry
