"""Service-side observability: metric catalog, event log, trace wiring.

This module binds the dependency-free :mod:`repro.obs` core to the
scheduling service.  It owns three things:

* the **metric name catalog** (:data:`METRIC_CATALOG`) — every counter,
  gauge and histogram a shard exports via the ``{"type": "metrics"}``
  request.  Names are pre-declared on the registry at construction so a
  scrape taken before any traffic already lists the complete catalog;
  ``docs/OBSERVABILITY.md`` documents exactly these names and CI asserts
  the two stay in sync;
* the **bounded JSONL event log** (:class:`EventLog`) — structured
  events (slow requests, profile dumps) appended one JSON object per
  line, size-bounded by single-file rotation so a long-running shard can
  never fill the disk;
* the :class:`Observability` context — one per shard process, threaded
  through :class:`~repro.service.dispatcher.ScheduleService` and
  :class:`~repro.service.async_server.AsyncScheduleServer`.  It carries
  the registry, the ``--trace`` switch (per-request span collection),
  the slow-request threshold, and the sampled cProfile hook.

The registry is the only store of service telemetry.  One registry per
shard: the :class:`~repro.service.cache.LRUResultCache` counts into it,
the :class:`~repro.service.dispatcher.ScheduleService` builds its default
context on the cache's registry, and the
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
  the cache's size and journal length, the dispatcher's backlog, the
  server's open connections and inflight lines.  ``server.restarts`` is
  set once, when the server is built;
* **histograms** are observed on the hot path (per-request stage spans,
  batch shape, per-connection server-loop spans).
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

from ..obs import MetricsRegistry

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "METRIC_CATALOG",
    "EventLog",
    "Observability",
]

T = TypeVar("T")

#: Version of the metrics payload shape.  Bump when a field is renamed or
#: removed; the round-trip tests pin the current shape so a payload change
#: without a bump fails loudly instead of breaking ``repro top`` / fault
#: harness parsers silently.  Version 2 removed the ``{"type": "stats"}``
#: payload and the queue-full shed counter, and added the ``cache.size``
#: and ``cache.journal_entries`` gauges.
TELEMETRY_SCHEMA_VERSION = 2

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
        "service.slow_requests",
        "service.batches",
        "service.profile_dumps",
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
        "service.pending",
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


class EventLog:
    """Bounded, thread-safe JSONL event log (one JSON object per line).

    Boundedness is single-file rotation: once ``max_entries`` lines have
    been appended the current file is renamed to ``<path>.1`` (replacing
    any previous rotation) and a fresh file is started, so on-disk usage
    is capped at roughly two files regardless of run length.
    """

    def __init__(self, path: str, *, max_entries: int = 10000) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = path
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries = 0
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def append(self, event: Mapping[str, Any]) -> None:
        """Append ``event`` (plus a wall-clock ``ts``) as one JSONL line."""
        record = {"ts": time.time(), **event}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._entries >= self.max_entries:
                try:
                    os.replace(self.path, self.path + ".1")
                except OSError:
                    pass
                self._entries = 0
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            self._entries += 1


class Observability:
    """Per-shard observability context threaded through the service.

    Owns the :class:`~repro.obs.MetricsRegistry` (with the full
    :data:`METRIC_CATALOG` pre-declared), the per-request tracing switch,
    the slow-request event log, and the sampled cProfile hook.  A default
    instance (everything off except the registry) is created by
    :class:`~repro.service.dispatcher.ScheduleService` when none is
    supplied, so instrumentation call sites never branch on ``None``.
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        slow_ms: Optional[float] = None,
        event_log: Optional[EventLog] = None,
        profile_every: int = 0,
        profile_dir: Optional[str] = None,
        shard_index: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if profile_every < 0:
            raise ValueError(f"profile_every must be >= 0, got {profile_every}")
        if profile_every and not profile_dir:
            raise ValueError("profile_every requires a profile_dir")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_enabled = trace
        self.slow_ms = slow_ms
        self.event_log = event_log
        self.profile_every = profile_every
        self.profile_dir = profile_dir
        self.shard_index = shard_index
        self.registry.declare(
            counters=METRIC_CATALOG["counters"],
            gauges=METRIC_CATALOG["gauges"],
            histograms=METRIC_CATALOG["histograms"],
        )
        self.registry.bind_gauge("process.max_rss_mib", max_rss_mib)

    # -- event log ----------------------------------------------------------
    def record_event(self, kind: str, **fields: Any) -> None:
        """Append a structured event when an event log is configured."""
        if self.event_log is not None:
            self.event_log.append({"kind": kind, **fields})

    def note_slow_request(
        self, request_id: Optional[str], duration_ms: float, trace: Optional[Dict[str, Any]]
    ) -> None:
        """Count and log a request slower than the ``slow_ms`` threshold.

        Call sites guard on :attr:`slow_ms` themselves (one float compare
        on the hot path); this method does the bookkeeping.
        """
        self.registry.inc("service.slow_requests")
        event: Dict[str, Any] = {
            "id": request_id,
            "duration_ms": duration_ms,
            "threshold_ms": self.slow_ms,
        }
        if trace is not None:
            event["trace"] = trace
        self.record_event("slow_request", **event)

    # -- sampled profiling --------------------------------------------------
    def profiled_call(self, batch_index: int, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn(*args)``, profiling every ``profile_every``-th batch.

        Sampled batches run under :class:`cProfile.Profile` and the stats
        are dumped to ``profile_dir`` as
        ``shard{NN}-batch{NNNNNN}.prof``; all other batches call ``fn``
        directly with zero overhead.
        """
        if not self.profile_every or batch_index % self.profile_every != 0:
            return fn(*args)
        import cProfile  # only shards started with --profile-every load it

        profiler = cProfile.Profile()
        try:
            return profiler.runcall(fn, *args)
        finally:
            os.makedirs(self.profile_dir, exist_ok=True)
            dump = os.path.join(
                self.profile_dir,
                f"shard{self.shard_index:02d}-batch{batch_index:06d}.prof",
            )
            profiler.dump_stats(dump)
            self.registry.inc("service.profile_dumps")
            self.record_event("profile_dump", path=dump, batch=batch_index)

    # -- payload ------------------------------------------------------------
    def metrics_payload(
        self, *, shard: Mapping[str, Any], uptime_s: float
    ) -> Dict[str, Any]:
        """Assemble the ``{"type": "metrics"}`` response payload.

        One atomic registry snapshot plus the shard's identity and uptime.
        Every name in :data:`METRIC_CATALOG` is present in every payload
        because the registry pre-declares them.
        """
        snapshot = self.registry.snapshot()
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "uptime_s": uptime_s,
            "shard": dict(shard),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }
