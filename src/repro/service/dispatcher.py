"""Batching dispatcher: the serving core of ``repro.service``.

:class:`ScheduleService` turns the one-shot simulation pipeline
(platform + scheduler + task bag → metrics) into a request/response
service.  :meth:`~ScheduleService.serve_chunk` is its one entry point: it
takes a chunk of raw requests and returns one response per request, in
the chunk's order, keeping no request between calls.

1. **Admission.**  Each raw request is validated and canonicalized.  A
   request whose estimated cost (``n_tasks * n_workers``) exceeds the
   configured budget is *shed* — it still gets exactly one response, a
   typed ``service-overloaded`` rejection, so clients never hang on a
   dropped request.  Malformed requests likewise resolve at once to
   ``request-invalid`` responses.
2. **Batches.**  The admitted chunk is resolved in ``batch_size`` slices,
   one :meth:`~ScheduleService.pump` each.  A pump serves what the
   :class:`~repro.service.cache.LRUResultCache` already knows,
   **coalesces** duplicates (several requests of one batch with one
   canonical key run one simulation), and runs the remaining unique
   configurations inline, one simulation per key on the reference
   engine.  Parallelism lives one tier up, in the shard processes of
   ``repro serve --shards``.
3. Responses come back **strictly in chunk order**, one per request.

Determinism contract (mirrors the campaign runner): every response is a
pure function of its canonical request, so the response *stream* is a pure
function of the request stream.  Batch size, chunking, shard count, cache
state, coalescing and LRU eviction change only latency and the metric
counters, never a response byte.

Telemetry: every counter lives in the shard's
:class:`~repro.obs.MetricsRegistry` (``service.registry``), which is
also the cache's registry; see :mod:`repro.service.observability`.  A
request that carries ``"trace": true`` gets its span breakdown attached
under the response's ``"trace"`` field; the trace id is the request's
``id``, or one minted here when it has none.

A service is driven from one thread at a time: the persistent asyncio
server resolves every chunk on its event-loop thread, and the sharded
client resolves its degraded requests on its own event-loop thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import (
    RequestValidationError,
    ServiceError,
    ServiceOverloadedError,
)
from ..obs import MetricsRegistry, Trace, mint_trace_id
from .cache import LRUResultCache
from .observability import declare_service_metrics
from .schema import SCHEMA_VERSION, ScheduleRequest, canonicalize_request

__all__ = ["ScheduleService"]


def execute_request(request: ScheduleRequest) -> Dict[str, Any]:
    """Run one request through :func:`repro.service.executor.execute_request`.

    The executor, and with it numpy, the engine and the heuristics, is
    imported by the first cache miss: a shard answers cache hits without
    loading the compute path.
    """
    from . import executor

    return executor.execute_request(request)


@dataclass
class _Entry:
    """One admitted request: unresolved, or already resolved to its response.

    A chunk's entries stay in a list in chunk order, which is all the
    ordering bookkeeping responses need.
    """

    request: Optional[ScheduleRequest] = None
    response: Optional[Dict[str, Any]] = None
    #: ``perf_counter`` at admission — the queue-wait span's start.
    admitted_at: float = 0.0
    #: ``(start, end)`` of this entry's cache lookup, set by the pump.
    cache_window: Optional[Tuple[float, float]] = None


def _error_body(kind: str, message: str) -> Dict[str, Any]:
    return {"type": kind, "message": message}


class ScheduleService:
    """Request/response façade over the simulation pipeline.

    Parameters
    ----------
    workers:
        Accepts only ``1``, the default; any other value raises
        :class:`~repro.exceptions.ServiceError`.  A service runs its
        simulations inline, and serve-side parallelism is the shard count
        (``repro serve --shards``).  The keyword stays only for the
        benchmark's baseline helper, which still passes ``workers=1``.
    batch_size:
        How many requests of a chunk one :meth:`pump` resolves.
    cache:
        Optional :class:`~repro.service.cache.LRUResultCache` consulted
        before, and fed after, every simulation.  The service counts into
        the cache's registry (a fresh one without a cache), exposed as
        :attr:`registry`, so one scrape covers both.
    max_cost:
        Optional per-request budget on ``n_tasks * n_workers``; costlier
        requests are shed at admission.
    """

    def __init__(
        self,
        workers: int = 1,
        batch_size: int = 16,
        cache: Optional[LRUResultCache] = None,
        max_cost: Optional[int] = None,
    ) -> None:
        if workers != 1:
            raise ServiceError(
                f"workers must be 1, got {workers}; serve-side parallelism "
                "is the shard count (repro serve --shards)"
            )
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        if max_cost is not None and max_cost <= 0:
            raise ServiceError(f"max_cost must be positive (or None), got {max_cost}")
        self.batch_size = batch_size
        self.cache = cache
        self.max_cost = max_cost
        #: The shard's one telemetry store: counters, gauges, histograms.
        self.registry = declare_service_metrics(
            cache.registry if cache is not None else MetricsRegistry()
        )

    def serve_chunk(
        self, raws: Iterable[Union[str, bytes, Mapping[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Resolve a chunk of raw requests; one response each, in order.

        Every raw request (JSONL line or already-parsed mapping) is
        admitted first; the entries then resolve in ``batch_size`` slices,
        one :meth:`pump` per slice.  Nothing is kept between calls.
        """
        entries = [self._admit(raw) for raw in raws]
        size = self.batch_size
        responses: List[Dict[str, Any]] = []
        for start in range(0, len(entries), size):
            responses.extend(self.pump(entries[start:start + size]))
        return responses

    # -- admission ----------------------------------------------------------
    def _admit(self, raw: Union[str, bytes, Mapping[str, Any]]) -> _Entry:
        """Parse, canonicalize and admit one raw request.

        Never raises on bad input: malformed or shed requests become
        pre-resolved error/rejection entries, so the response stream stays
        one response per request, in order.
        """
        registry = self.registry
        registry.inc("service.received")
        request_id: Optional[str] = None
        try:
            if isinstance(raw, (str, bytes)):
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise RequestValidationError(f"request is not valid JSON: {exc}")
            else:
                payload = raw
            if isinstance(payload, Mapping) and isinstance(payload.get("id"), str):
                request_id = payload["id"]
            request = canonicalize_request(payload)
            self._check_admission(request)
        except RequestValidationError as exc:
            registry.inc("service.invalid")
            return _Entry(
                response=self._response(
                    "error", request_id, error=_error_body("request-invalid", str(exc))
                )
            )
        except ServiceOverloadedError as exc:
            registry.inc("service.rejected")
            return _Entry(
                response=self._response(
                    "rejected",
                    request_id,
                    error=_error_body("service-overloaded", str(exc)),
                )
            )
        return _Entry(request=request, admitted_at=perf_counter())

    def _check_admission(self, request: ScheduleRequest) -> None:
        """Raise :class:`~repro.exceptions.ServiceOverloadedError` on shed."""
        if self.max_cost is not None and request.cost > self.max_cost:
            self.registry.inc("service.shed_cost")
            raise ServiceOverloadedError(
                f"request cost {request.cost} (tasks x workers) exceeds the "
                f"admission budget {self.max_cost}"
            )

    # -- execution ----------------------------------------------------------
    def pump(self, batch: Sequence[_Entry]) -> List[Dict[str, Any]]:
        """Resolve one batch of admitted entries; responses in batch order."""
        # 1. cache pass + coalescing groups (first occurrence is primary)
        groups: "Dict[str, List[_Entry]]" = {}
        hit_count = 0
        for entry in batch:
            if entry.response is not None:
                continue
            request = entry.request
            assert request is not None
            lookup_start = perf_counter()
            cached = self.cache.get(request.key) if self.cache is not None else None
            entry.cache_window = (lookup_start, perf_counter())
            if cached is not None:
                # Fresh copy per response: a caller mutating its response
                # must never rewrite the cached value or a sibling's view.
                entry.response = self._response(
                    "ok", request.request_id, key=request.key, metrics=dict(cached)
                )
                # The ``ok`` credit is deferred to the fan-out section so
                # it lands in the same registry update as ``responded``
                # — snapshots must never see the outcome sum torn.
                hit_count += 1
                self._finalize_entry(entry, sim_window=None)
            else:
                groups.setdefault(request.key, []).append(entry)
        primaries = {k: v[0].request for k, v in groups.items()}

        registry = self.registry
        registry.inc("service.batches")
        registry.observe("service.batch_size", len(batch))

        # 2. one simulation per unique canonical key
        sim_start = perf_counter()
        results = self._run_unique(primaries)
        sim_end = perf_counter()
        if primaries:
            registry.observe("service.simulate_ms", (sim_end - sim_start) * 1000.0)

        # 3. fan results back out to every coalesced duplicate
        ok, failed, coalesced = hit_count, 0, 0
        for key, entries in groups.items():
            result = results[key]
            coalesced += len(entries) - 1
            if isinstance(result, Exception):
                for entry in entries:
                    assert entry.request is not None
                    entry.response = self._response(
                        "error",
                        entry.request.request_id,
                        key=key,
                        error=_error_body("execution-error", str(result)),
                    )
                    failed += 1
                    self._finalize_entry(entry, sim_window=(sim_start, sim_end))
            else:
                if self.cache is not None:
                    self.cache.put(key, dict(result))
                for entry in entries:
                    assert entry.request is not None
                    entry.response = self._response(
                        "ok", entry.request.request_id, key=key, metrics=dict(result)
                    )
                    ok += 1
                    self._finalize_entry(entry, sim_window=(sim_start, sim_end))

        responses = []
        for entry in batch:
            assert entry.response is not None
            responses.append(entry.response)
        registry.add(
            {
                "service.simulations": len(primaries),
                "service.ok": ok,
                "service.failed": failed,
                "service.coalesced": coalesced,
                "service.responded": len(responses),
            }
        )
        return responses

    def _finalize_entry(
        self, entry: _Entry, *, sim_window: Optional[Tuple[float, float]]
    ) -> None:
        """Record one resolved entry's stage timings; attach its trace.

        Spans are cut from consecutive clock readings of this entry's path
        through the pump — admission, cache lookup start/end, the batch's
        simulate window, now — so they never overlap and sum to the
        request's full service-side residence time.  Histograms are always
        recorded; the trace is attached only to a request that opted in
        with ``"trace": true``, so every other response stays
        byte-identical.
        """
        request = entry.request
        response = entry.response
        assert request is not None and response is not None
        assert entry.cache_window is not None
        done = perf_counter()
        admitted = entry.admitted_at
        lookup_start, lookup_end = entry.cache_window
        registry = self.registry
        registry.observe("service.queue_wait_ms", (lookup_start - admitted) * 1000.0)
        registry.observe("service.cache_lookup_ms", (lookup_end - lookup_start) * 1000.0)
        if sim_window is not None:
            registry.observe(
                "service.batch_assembly_ms", (sim_window[0] - lookup_end) * 1000.0
            )
            registry.observe("service.serialize_ms", (done - sim_window[1]) * 1000.0)
        else:
            registry.observe("service.serialize_ms", (done - lookup_end) * 1000.0)
        registry.observe("service.request_ms", (done - admitted) * 1000.0)

        if request.trace:
            trace = Trace(request.request_id or mint_trace_id())
            trace.add("queue_wait", admitted, lookup_start)
            trace.add("cache_lookup", lookup_start, lookup_end)
            if sim_window is not None:
                trace.add("batch_assembly", lookup_end, sim_window[0])
                trace.add("simulate", sim_window[0], sim_window[1])
                trace.add("serialize", sim_window[1], done)
            else:
                trace.add("serialize", lookup_end, done)
            response["trace"] = trace.as_dict()

    def _run_unique(
        self, primaries: Mapping[str, ScheduleRequest]
    ) -> Dict[str, Any]:
        """Execute one simulation per key; values are metrics or the error.

        Each key resolves through its own
        :func:`~repro.service.executor.execute_request` call, so one bad
        request never poisons its batch-mates.  The loop catches *any*
        exception — not just :class:`~repro.exceptions.ReproError` —
        because the one-response-per-request invariant must survive even an
        engine bug: the failure becomes that key's ``execution-error``
        response instead of tearing down the serve loop and dropping every
        request of its chunk.
        """
        results: Dict[str, Any] = {}
        for key, request in primaries.items():
            try:
                results[key] = execute_request(request)
            except Exception as exc:  # noqa: BLE001 - mapped to a response
                results[key] = exc
        return results

    def _response(
        self, status: str, request_id: Optional[str], **extra: Any
    ) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "status": status,
            "id": request_id,
        }
        response.update(extra)
        return response

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Close the attached cache's journal handle (idempotent).

        The cache itself stays usable: a later ``put`` reopens the journal.
        """
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "ScheduleService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`close` the service."""
        self.close()
