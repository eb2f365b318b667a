"""Scheduling-as-a-service layer.

The paper's heuristics are pure decision procedures; this package turns the
one-shot simulation pipeline (platform + scheduler + task bag → metrics)
into a high-throughput request/response **service**, the first step of the
ROADMAP's "serve heavy traffic" north star.  Five pieces compose:

* :mod:`~repro.service.schema` — the versioned JSON request schema and the
  **canonicalizer** that maps semantically-equal requests onto one
  content-hash key (the same discipline as the campaign cache);
* :mod:`~repro.service.cache` — a size-bounded **LRU result cache** with
  hit/miss counters (a response never goes stale, so entries never
  expire);
* :mod:`~repro.service.executor` — the pure compute kernel: one canonical
  configuration in, one metrics payload out, deterministically seeded;
* :mod:`~repro.service.dispatcher` — the batching **dispatcher** with
  admission control (cost budget, typed load-shedding),
  duplicate coalescing, and one inline compute path per shard whose
  response stream is byte-identical for any batch size or backend;
* :mod:`~repro.service.server` — the JSONL stdin/stdout request loop
  behind ``repro serve``;
* :mod:`~repro.service.async_server` — the **persistent asyncio
  JSONL-over-TCP server** (``repro serve --listen``): concurrent
  connections with bounded per-connection backpressure, a metrics
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
contract.  The names below resolve on first access (see :mod:`repro._lazy`),
so a shard that imports the server loads neither the sharding client nor
the supervisor nor the fault model.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AsyncScheduleServer",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "RestartPolicy",
    "ShardState",
    "ShardSupervisor",
    "LRUResultCache",
    "RELEASE_PROCESSES",
    "SCHEMA_VERSION",
    "ScheduleRequest",
    "ScheduleService",
    "ShardPersistence",
    "ShardedClient",
    "build_tasks",
    "canonicalize_request",
    "decode_journal",
    "encode_record",
    "execute_request",
    "parse_address",
    "request_rng",
    "response_line",
    "run_server",
    "serve_lines",
    "shard_addresses",
    "shard_for_line",
    "shard_for_payload",
    "shard_index",
    "shard_timeout_response",
    "shard_unavailable_response",
    "summary",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "AsyncScheduleServer": ".async_server",
    "parse_address": ".async_server",
    "run_server": ".async_server",
    "LRUResultCache": ".cache",
    "ScheduleService": ".dispatcher",
    "execute_request": ".executor",
    "request_rng": ".executor",
    "RELEASE_PROCESSES": ".schema",
    "SCHEMA_VERSION": ".schema",
    "ScheduleRequest": ".schema",
    "build_tasks": ".schema",
    "canonicalize_request": ".schema",
    "FAULT_KINDS": ".faults",
    "FaultEvent": ".faults",
    "FaultSchedule": ".faults",
    "ShardPersistence": ".persistence",
    "decode_journal": ".persistence",
    "encode_record": ".persistence",
    "response_line": ".server",
    "serve_lines": ".server",
    "summary": ".server",
    "ShardedClient": ".sharding",
    "shard_addresses": ".sharding",
    "shard_for_line": ".sharding",
    "shard_for_payload": ".sharding",
    "shard_index": ".sharding",
    "shard_timeout_response": ".sharding",
    "shard_unavailable_response": ".sharding",
    "RestartPolicy": ".supervisor",
    "ShardState": ".supervisor",
    "ShardSupervisor": ".supervisor",
})
