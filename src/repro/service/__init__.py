"""Scheduling-as-a-service layer.

The paper's heuristics are pure decision procedures; this package turns the
one-shot simulation pipeline (platform + scheduler + task bag → metrics)
into a high-throughput request/response **service**, the first step of the
ROADMAP's "serve heavy traffic" north star.  Five pieces compose:

* :mod:`~repro.service.schema` — the versioned JSON request schema and the
  **canonicalizer** that maps semantically-equal requests onto one
  content-hash key (the same discipline as the campaign cache);
* :mod:`~repro.service.cache` — a bounded **LRU result cache** with
  optional TTL and hit/miss statistics;
* :mod:`~repro.service.executor` — the pure compute kernel: one canonical
  configuration in, one metrics payload out, deterministically seeded;
* :mod:`~repro.service.dispatcher` — the batching **dispatcher** with
  admission control (bounded queue + cost budget, typed load-shedding),
  duplicate coalescing, and one inline compute path per shard whose
  response stream is byte-identical for any batch size or backend;
* :mod:`~repro.service.server` — the JSONL stdin/stdout request loop
  behind ``repro serve``;
* :mod:`~repro.service.async_server` — the **persistent asyncio
  JSONL-over-TCP server** (``repro serve --listen``): concurrent
  connections with bounded per-connection backpressure, a stats/health
  request type, and graceful drain on SIGTERM;
* :mod:`~repro.service.sharding` — **shard-by-canonical-key** routing
  (stable content-hash shard assignment) plus the client-side
  :class:`~repro.service.sharding.ShardedClient` that routes requests
  over N shard servers and merges response streams in submission order,
  with per-request timeouts, bounded retry, transparent reconnect and a
  per-shard circuit breaker that degrades to local execution;
* :mod:`~repro.service.supervisor` — the **self-healing shard
  supervisor**: auto-restart of crashed shards on their original ports
  with capped exponential backoff plus jitter, crash-loop give-up and
  restart observability;
* :mod:`~repro.service.faults` — **deterministic fault schedules**
  (seeded crash/stall/drop events at request-count boundaries, correlated
  bursts à la iterated-Poisson) that ``tools/chaos.py`` drives against
  real server processes;
* :mod:`~repro.service.persistence` — **crash-safe cache durability**:
  per-shard append-only journal (length+CRC framed, torn tails truncated
  on replay) compacted into atomic snapshots, so a restarted shard
  warm-loads the dead shard's cached results before accepting
  connections.

See ``docs/SERVICE.md`` for the request schema and the determinism/caching
contract.
"""

from __future__ import annotations

from .async_server import AsyncScheduleServer, ServerStats, parse_address, run_server
from .cache import LRUResultCache
from .dispatcher import ScheduleService, ServiceStats
from .executor import execute_request, request_rng
from .schema import (
    RELEASE_PROCESSES,
    SCHEMA_VERSION,
    STATS_REQUEST_TYPE,
    ScheduleRequest,
    build_tasks,
    canonicalize_request,
    is_stats_request,
    stats_request,
)
from .faults import FAULT_KINDS, FaultEvent, FaultSchedule
from .persistence import ShardPersistence, decode_journal, encode_record
from .server import response_line, serve_lines, serve_stream
from .sharding import (
    ClientCounters,
    ShardedClient,
    shard_addresses,
    shard_for_line,
    shard_for_payload,
    shard_index,
    shard_timeout_response,
    shard_unavailable_response,
)
from .supervisor import RestartPolicy, ShardState, ShardSupervisor

__all__ = [
    "AsyncScheduleServer",
    "ClientCounters",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "RestartPolicy",
    "ShardState",
    "ShardSupervisor",
    "LRUResultCache",
    "RELEASE_PROCESSES",
    "SCHEMA_VERSION",
    "STATS_REQUEST_TYPE",
    "ScheduleRequest",
    "ScheduleService",
    "ServerStats",
    "ServiceStats",
    "ShardPersistence",
    "ShardedClient",
    "build_tasks",
    "canonicalize_request",
    "decode_journal",
    "encode_record",
    "execute_request",
    "is_stats_request",
    "parse_address",
    "request_rng",
    "response_line",
    "run_server",
    "serve_lines",
    "serve_stream",
    "shard_addresses",
    "shard_for_line",
    "shard_for_payload",
    "shard_index",
    "shard_timeout_response",
    "shard_unavailable_response",
    "stats_request",
]
