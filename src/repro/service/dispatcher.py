"""Batching dispatcher: the serving core of ``repro.service``.

:class:`ScheduleService` turns the one-shot simulation pipeline
(platform + scheduler + task bag → metrics) into a request/response
service:

1. :meth:`~ScheduleService.submit` validates and canonicalizes one raw
   request and appends it to a FIFO queue.  **Admission control** happens
   here: a request whose estimated cost (``n_tasks * n_workers``) exceeds
   the configured budget is *shed* — it still gets exactly one response, a
   typed ``service-overloaded`` rejection, so clients never hang on a
   dropped request.  Malformed requests likewise resolve immediately to
   ``request-invalid`` responses.  The queue needs no length bound of its
   own: every transport submits at most one batch before it drains.
2. :meth:`~ScheduleService.pump` takes the oldest batch off the queue,
   serves what the :class:`~repro.service.cache.LRUResultCache` already
   knows, **coalesces** duplicate in-flight requests (several queued
   requests with one canonical key run one simulation), and runs the
   remaining unique configurations inline: one batched kernel call on a
   non-reference backend, otherwise one simulation per key.  Parallelism
   lives one tier up, in the shard processes of ``repro serve --shards``.
3. Responses come back **strictly in submission order**, one per request.

Determinism contract (mirrors the campaign runner): every response is a
pure function of its canonical request, so the response *stream* is a pure
function of the request stream and the pump schedule.  Batch size, shard
count, engine backend, cache state, coalescing and TTL expiry change only
latency and the metric counters, never a response byte.

Telemetry: every counter lives in the shard's
:class:`~repro.obs.MetricsRegistry` (``service.obs.registry``), which is
also the cache's registry; see :mod:`repro.service.observability`.

Thread safety: all queue and cache state is guarded by an internal lock,
and counters by the registry's own, so :meth:`~ScheduleService.submit`,
:meth:`~ScheduleService.pump` and :meth:`~ScheduleService.drain` may be
driven concurrently from several threads.  The persistent asyncio server
does not: it resolves every chunk on its event-loop thread.  The sharded
client's local fall-back does, calling ``serve_chunk`` from the loop's
default executor.  Simulations themselves run *outside* the lock.  Note
that raw ``submit``/``drain`` calls from several threads interleave their
*attribution* — a drain returns whatever is queued, whoever queued it; a
caller that needs "exactly my responses, in my order" must use
:meth:`~ScheduleService.serve_chunk`, which makes the submit-then-drain
sequence atomic.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..exceptions import (
    RequestValidationError,
    ServiceError,
    ServiceOverloadedError,
)
from ..core.kernel import DEFAULT_BACKEND, available_backends
from ..obs import Trace, mint_trace_id
from .cache import LRUResultCache
from .executor import execute_batch, execute_request
from .observability import Observability
from .schema import SCHEMA_VERSION, ScheduleRequest, canonicalize_request

__all__ = ["ScheduleService"]


@dataclass
class _Entry:
    """One queue slot: an unresolved request or an already-resolved response.

    The queue list itself is kept in submission order, which is all the
    ordering bookkeeping responses need.
    """

    request: Optional[ScheduleRequest] = None
    response: Optional[Dict[str, Any]] = None
    #: ``perf_counter`` at submission — the queue-wait span's start.
    submitted_at: float = 0.0
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
        How many queued requests one :meth:`pump` resolves.
    cache:
        Optional :class:`~repro.service.cache.LRUResultCache` consulted
        before, and fed after, every simulation.
    max_cost:
        Optional per-request budget on ``n_tasks * n_workers``; costlier
        requests are shed at submission.
    engine_backend:
        Which simulation kernel executes a batch's unique configurations
        (see :mod:`repro.core.kernel`).  ``"reference"`` (the default) runs
        one :func:`~repro.service.executor.execute_request` call per key.
        Any other backend (e.g. ``"array"``) first tries each pump's unique
        configurations as one batched
        :func:`~repro.service.executor.execute_batch` call.  Responses are
        identical either way (backend parity contract).
    observability:
        Optional :class:`~repro.service.observability.Observability`
        context.  The dispatcher always records its counters and stage
        histograms into its registry; per-request traces (attached under
        the opt-in ``"trace"`` response field) and the slow-request log
        are produced only when the context enables them.  When omitted a
        default all-quiet context is built on the cache's registry (or a
        fresh one without a cache), so call sites never branch.  A cache
        and a context must share one registry —
        :class:`~repro.exceptions.ServiceError` otherwise — so one scrape
        covers both.
    """

    def __init__(
        self,
        workers: int = 1,
        batch_size: int = 16,
        cache: Optional[LRUResultCache] = None,
        max_cost: Optional[int] = None,
        engine_backend: str = DEFAULT_BACKEND,
        observability: Optional[Observability] = None,
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
        if engine_backend.lower() not in available_backends():
            raise ServiceError(
                f"unknown engine backend {engine_backend!r}; "
                f"available: {available_backends()}"
            )
        self.engine_backend = engine_backend.lower()
        if observability is None:
            observability = Observability(
                registry=cache.registry if cache is not None else None
            )
        elif cache is not None and cache.registry is not observability.registry:
            raise ServiceError(
                "the cache and the observability context must share one "
                "metrics registry (build the cache with registry=obs.registry)"
            )
        self.batch_size = batch_size
        self.cache = cache
        self.max_cost = max_cost
        self.obs = observability
        self._registry = observability.registry
        self._batch_index = 0
        self._entries: List[_Entry] = []
        # Guards queue and cache state.
        self._lock = threading.Lock()
        # Serializes whole submit-then-drain sequences (serve_chunk), so
        # concurrent chunks never steal each other's responses.
        self._chunk_lock = threading.Lock()
        self._registry.bind_gauge("service.pending", lambda: self.pending)

    # -- submission / admission ---------------------------------------------
    def submit(self, raw: Union[str, bytes, Mapping[str, Any]]) -> None:
        """Accept one raw request (JSONL line or already-parsed mapping).

        Never raises on bad input: malformed or shed requests are queued as
        pre-resolved error/rejection responses so the output stream stays
        one response per request, in order.
        """
        registry = self._registry
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
            entry = _Entry(
                response=self._response(
                    "error", request_id, error=_error_body("request-invalid", str(exc))
                )
            )
        except ServiceOverloadedError as exc:
            registry.inc("service.rejected")
            entry = _Entry(
                response=self._response(
                    "rejected",
                    request_id,
                    error=_error_body("service-overloaded", str(exc)),
                )
            )
        else:
            entry = _Entry(request=request, submitted_at=perf_counter())
        with self._lock:
            self._entries.append(entry)

    def _check_admission(self, request: ScheduleRequest) -> None:
        """Raise :class:`~repro.exceptions.ServiceOverloadedError` on shed."""
        if self.max_cost is not None and request.cost > self.max_cost:
            self._registry.inc("service.shed_cost")
            raise ServiceOverloadedError(
                f"request cost {request.cost} (tasks x workers) exceeds the "
                f"admission budget {self.max_cost}"
            )

    @property
    def pending(self) -> int:
        """Unresolved queued requests (the ``service.pending`` gauge)."""
        with self._lock:
            return sum(1 for entry in self._entries if entry.response is None)

    @property
    def buffered(self) -> int:
        """Queued entries of any kind, including pre-resolved responses."""
        with self._lock:
            return len(self._entries)

    def ready(self) -> bool:
        """True when a full batch is queued and :meth:`pump` should run."""
        return len(self._entries) >= self.batch_size

    # -- execution ----------------------------------------------------------
    def pump(self) -> List[Dict[str, Any]]:
        """Resolve the oldest batch; responses in submission order.

        The batch is extracted from the queue and the cache pass runs under
        the internal lock (a concurrent ``submit`` can therefore never be
        lost between the two queue slices — the drain race the asyncio
        server would otherwise hit); the simulations themselves run outside
        it, so concurrent pumps overlap their compute.
        """
        with self._lock:
            batch, self._entries = (
                self._entries[: self.batch_size],
                self._entries[self.batch_size:],
            )
            if not batch:
                return []

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
            batch_index = self._batch_index
            self._batch_index += 1

        registry = self._registry
        registry.inc("service.batches")
        registry.observe("service.batch_size", len(batch))

        # 2. one simulation per unique canonical key (lock released: the
        #    compute stage is the slow part and is safe to overlap)
        sim_start = perf_counter()
        results = self.obs.profiled_call(batch_index, self._run_unique, primaries)
        sim_end = perf_counter()
        if primaries:
            registry.observe("service.simulate_ms", (sim_end - sim_start) * 1000.0)

        # 3. fan results back out to every coalesced duplicate
        ok, failed, coalesced = hit_count, 0, 0
        with self._lock:
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
        through the pump — submission, cache lookup start/end, the batch's
        simulate window, now — so they never overlap and sum to the
        request's full service-side residence time.  Histograms are always
        recorded; the response-attached trace additionally requires both
        the service ``--trace`` switch and the request's ``"trace": true``
        opt-in (responses stay byte-identical for everyone else).  A
        response slower than the configured threshold is counted and
        appended to the slow-request event log.
        """
        request = entry.request
        response = entry.response
        assert request is not None and response is not None
        assert entry.cache_window is not None
        done = perf_counter()
        submitted = entry.submitted_at or entry.cache_window[0]
        lookup_start, lookup_end = entry.cache_window
        registry = self._registry
        registry.observe("service.queue_wait_ms", (lookup_start - submitted) * 1000.0)
        registry.observe("service.cache_lookup_ms", (lookup_end - lookup_start) * 1000.0)
        if sim_window is not None:
            registry.observe(
                "service.batch_assembly_ms", (sim_window[0] - lookup_end) * 1000.0
            )
            registry.observe("service.serialize_ms", (done - sim_window[1]) * 1000.0)
        else:
            registry.observe("service.serialize_ms", (done - lookup_end) * 1000.0)
        duration_ms = (done - submitted) * 1000.0
        registry.observe("service.request_ms", duration_ms)

        trace_dict: Optional[Dict[str, Any]] = None
        if self.obs.trace_enabled and request.trace:
            trace = Trace(request.request_id or mint_trace_id())
            trace.add("queue_wait", submitted, lookup_start)
            trace.add("cache_lookup", lookup_start, lookup_end)
            if sim_window is not None:
                trace.add("batch_assembly", lookup_end, sim_window[0])
                trace.add("simulate", sim_window[0], sim_window[1])
                trace.add("serialize", sim_window[1], done)
            else:
                trace.add("serialize", lookup_end, done)
            trace_dict = trace.as_dict()
            response["trace"] = trace_dict

        if self.obs.slow_ms is not None and duration_ms > self.obs.slow_ms:
            self.obs.note_slow_request(request.request_id, duration_ms, trace_dict)

    def drain(self) -> List[Dict[str, Any]]:
        """Pump until the queue is empty; all responses in order."""
        responses: List[Dict[str, Any]] = []
        while self.buffered:
            responses.extend(self.pump())
        return responses

    def serve_chunk(
        self, raws: Iterable[Union[str, bytes, Mapping[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Atomically submit a chunk of raw requests and drain their responses.

        This is the entry point for concurrent transports (one chunk per
        connection read): the submit-then-drain sequence runs under a chunk
        lock, so the returned list is exactly one response per submitted
        request, in submission order, even when many threads serve chunks
        at once.  Mixing ``serve_chunk`` with raw :meth:`submit` calls from
        other threads forfeits that attribution (their entries would drain
        into whichever chunk is active).
        """
        with self._chunk_lock:
            for raw in raws:
                self.submit(raw)
            return self.drain()

    def _run_unique(
        self, primaries: Mapping[str, ScheduleRequest]
    ) -> Dict[str, Any]:
        """Execute one simulation per key; values are metrics or the error.

        A non-reference backend first tries every key in one batched
        :func:`~repro.service.executor.execute_batch` call.  ``run_batch``
        is all-or-nothing, so when it raises — one bad request must not
        poison its batch-mates — and on the reference backend, each key
        resolves through its own :func:`execute_request` call (backends are
        metric-identical, so the fall-back changes nothing but latency).

        The per-key loop catches *any* exception — not just
        :class:`~repro.exceptions.ReproError` — because the
        one-response-per-request invariant must survive even an engine bug:
        the failure becomes that key's ``execution-error`` response instead
        of tearing down the serve loop and dropping every queued request.
        """
        if not primaries:
            return {}
        if self.engine_backend != "reference":
            try:
                payloads = execute_batch(
                    list(primaries.values()), backend=self.engine_backend
                )
            except Exception:  # noqa: BLE001 - resolved request by request below
                pass
            else:
                return dict(zip(primaries, payloads))
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
