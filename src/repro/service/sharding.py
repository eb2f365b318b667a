"""Shard-by-canonical-key routing and the resilient client-side router.

Horizontal scaling for the scheduling service: N server processes each own
a **slice of the cache keyspace**.  The slice assignment is pure and
client-side — no coordination service, no rebalancing protocol:

* :func:`shard_index` maps a canonical request key (the SHA-256 content
  hash from :mod:`repro._hashing`) onto ``0..n_shards-1`` by taking the
  hash's leading 64 bits modulo the shard count.  Because the key is a
  content hash, the assignment is stable across processes, machines,
  restarts and ``PYTHONHASHSEED`` — the property the shard-routing tests
  pin down;
* :func:`shard_for_payload` routes a *raw* request the same way a server
  would cache it: canonicalize first, so semantically-equal spellings of
  one request always land on the same shard (and therefore the same
  cache).  Requests that fail validation route to shard 0 — every shard
  produces the identical ``request-invalid`` response, so the choice only
  needs to be deterministic;
* :class:`ShardedClient` is the client-side router: it keeps one
  connection per shard, routes each submitted line, and hands back
  responses **in submission order** (per client), whatever order shards
  answer in.

Self-healing (see ``docs/SERVICE.md`` § Failure modes and recovery): the
client is the recovery half of the supervisor's auto-restart.  By default
a lost shard's requests fail over to typed ``shard-unavailable``
responses; chaos tooling and resilient deployments opt in to:

* **per-request timeout** (``request_timeout``) — a stalled (not dead)
  shard no longer blocks the client forever: the head-of-line request
  resolves to a typed ``shard-timeout`` response and the stalled
  connection is severed (in-order response matching makes a timed-out
  response unattributable, so the connection cannot be reused);
* **bounded retry with exponential backoff** (``max_retries``) — requests
  pending on a dying connection are resubmitted after an exponential
  delay capped at one second.  Resubmission is safe because requests are
  canonicalized content-hash keys: a retry that races a completed
  original coalesces onto the same cache entry and returns the identical
  bytes;
* **transparent reconnect** — a submission routed to a dead shard first
  tries to re-open the connection, so a shard restarted by the
  supervisor (same port, per the routing contract) is picked up without
  any client restart;
* **per-shard circuit breaker** (``breaker_threshold``) — after K
  consecutive connection failures the breaker opens and submissions
  **degrade gracefully**: the request is answered from the local
  ``execute`` path (byte-identical to the server's response, by the
  determinism contract) instead of erroring.  The local simulation runs
  on the client's event loop, as a shard runs its chunks.  After
  ``breaker_cooldown`` seconds the breaker half-opens and the next
  submission probes the shard; a successful probe closes it.

Every failed request goes through one synchronous step,
``ShardedClient._settle``, which gives it a typed timeout, a typed
unavailable response, a scheduled retry or a degraded answer.  One
response per request survives every failure mode — crash, stall,
restart, crash-loop — which is the invariant ``tools/chaos.py`` and
``tests/test_self_healing.py`` drive end-to-end.

The topology convention is *consecutive ports*: a shard set is
``(host, port), (host, port+1), … (host, port+n_shards-1)`` — what
``repro serve --listen HOST:PORT --shards N`` boots and what
:meth:`ShardedClient.from_base` connects to.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import RequestValidationError, ServiceError
from ..obs import MetricsRegistry, mint_trace_id
from .schema import (
    SCHEMA_VERSION,
    canonicalize_request,
    is_control_request,
    metrics_request,
)
from .server import response_line

__all__ = [
    "shard_index",
    "shard_for_payload",
    "shard_for_line",
    "shard_addresses",
    "shard_unavailable_response",
    "shard_timeout_response",
    "ShardedClient",
]

#: Leading hex digits of the canonical key used for shard assignment
#: (64 bits — far beyond any realistic shard count).
_SHARD_KEY_DIGITS = 16

#: Cap on one retry's backoff sleep, in seconds.
_RETRY_BACKOFF_MAX = 1.0


def shard_index(key: str, n_shards: int) -> int:
    """The shard that owns canonical request key ``key`` among ``n_shards``.

    Pure arithmetic on the content hash: ``int(key[:16], 16) % n_shards``.
    No process state is involved, so the assignment survives restarts and
    is identical in every client and server.
    """
    if n_shards < 1:
        raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
    return int(key[:_SHARD_KEY_DIGITS], 16) % n_shards


def shard_for_payload(payload: Any, n_shards: int) -> int:
    """Route one raw request payload: canonicalize, then :func:`shard_index`.

    Canonicalizing *before* hashing is what collapses semantically-equal
    spellings onto one shard (and one shard-local cache entry).  Payloads
    that fail validation — and metrics control requests, which carry no
    canonical configuration — deterministically route to shard 0.
    """
    if is_control_request(payload):
        return 0
    try:
        request = canonicalize_request(payload)
    except RequestValidationError:
        return 0
    return shard_index(request.key, n_shards)


def shard_for_line(line: str, n_shards: int) -> int:
    """Route one raw JSONL line (malformed JSON routes to shard 0)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return 0
    return shard_for_payload(payload, n_shards)


def shard_addresses(host: str, port: int, n_shards: int) -> List[Tuple[str, int]]:
    """The consecutive-port shard set rooted at ``(host, port)``."""
    if n_shards < 1:
        raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
    return [(host, port + index) for index in range(n_shards)]


def shard_unavailable_response(
    shard: int, address: Tuple[str, int], request_id: Optional[str] = None
) -> Dict[str, Any]:
    """The typed error response for a request routed to a dead shard.

    Mirrors the dispatcher's error shape (``status``/``error{type,message}``)
    so clients handle shard loss with the same code path as any other
    error response.
    """
    host, port = address
    return {
        "schema_version": SCHEMA_VERSION,
        "status": "error",
        "id": request_id,
        "error": {
            "type": "shard-unavailable",
            "message": (
                f"shard {shard} at {host}:{port} is unavailable; "
                "the request was not executed"
            ),
        },
    }


def shard_timeout_response(
    shard: int,
    address: Tuple[str, int],
    timeout: float,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The typed error response for a request that outlived its timeout.

    A timeout means the shard is *stalled*, not provably dead — the
    request may still complete server-side, which is harmless because the
    result lands in that shard's cache under the canonical key.  The
    client-visible contract stays one terminal response per request.
    """
    host, port = address
    return {
        "schema_version": SCHEMA_VERSION,
        "status": "error",
        "id": request_id,
        "error": {
            "type": "shard-timeout",
            "message": (
                f"shard {shard} at {host}:{port} did not answer within "
                f"{timeout:g}s; the connection was severed"
            ),
        },
    }


def _request_id_of(line: str) -> Optional[str]:
    """Best-effort extraction of a raw line's correlation id."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(payload, dict) and isinstance(payload.get("id"), str):
        return payload["id"]
    return None


#: The resilience counters of one :class:`ShardedClient`, counted as
#: ``client.<name>`` in its registry: resubmissions after a connection
#: failure, typed ``shard-timeout`` responses, re-opens of a previously
#: connected shard, requests answered from the local execute path, and
#: breaker transitions closed → open and (half-)open → closed.  These are
#: the client-side half of the recovery story; the server-side half
#: (``restarts``) rides in the shard's own metrics payload.
_CLIENT_COUNTERS = (
    "retries",
    "timeouts",
    "reconnects",
    "degraded_responses",
    "breaker_opens",
    "breaker_closes",
)


def _client_counters(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """The :data:`_CLIENT_COUNTERS` of a client registry snapshot, unprefixed."""
    counters = snapshot["counters"]
    return {name: counters[f"client.{name}"] for name in _CLIENT_COUNTERS}


class _Breaker:
    """Per-shard circuit breaker: closed → open → half-open → closed.

    ``threshold`` consecutive failures open the breaker; after
    ``cooldown`` seconds it reports ``half-open`` and one probe is
    allowed — success closes it, failure re-opens it for another
    cooldown.  ``threshold=None`` disables the breaker entirely (it then
    always reports ``closed`` and records nothing).
    """

    __slots__ = ("threshold", "cooldown", "clock", "failures", "opened_at")

    def __init__(self, threshold, cooldown, clock) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        """The breaker state: ``"closed"``, ``"open"`` or ``"half-open"``."""
        if self.threshold is None or self.opened_at is None:
            return "closed"
        if self.clock() - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def record_failure(self) -> bool:
        """Count one failure; returns True when this transition *opened* it."""
        if self.threshold is None:
            return False
        was_closed = self.opened_at is None
        self.failures += 1
        if self.failures >= self.threshold:
            self.opened_at = self.clock()
            return was_closed
        return False

    def record_success(self) -> bool:
        """A healthy round trip (or probe) closes the breaker.

        Returns True when this transition actually *closed* an open (or
        half-open) breaker, so callers can count close transitions.
        """
        was_open = self.opened_at is not None
        self.failures = 0
        self.opened_at = None
        return was_open


class _Pending:
    """One in-flight request: its future, raw line and retry bookkeeping."""

    __slots__ = ("future", "line", "attempts", "timer", "timed_out", "is_control", "sent_at")

    def __init__(
        self, future: "asyncio.Future[str]", line: str, is_control: bool = False
    ) -> None:
        self.future = future
        self.line = line
        self.attempts = 0
        self.timer: Optional[asyncio.TimerHandle] = None
        self.timed_out = False
        #: A metrics probe: bypasses an open breaker, never retries or
        #: degrades, and stays out of the client latency histograms.
        self.is_control = is_control
        #: ``perf_counter`` of the (latest) send — client latency span start.
        self.sent_at = 0.0

    def cancel_timer(self) -> None:
        """Disarm the request-timeout timer, if one is armed."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class _ShardConnection:
    """One shard's socket, FIFO of unanswered requests, and breaker."""

    __slots__ = (
        "index",
        "address",
        "reader",
        "writer",
        "pending",
        "alive",
        "read_task",
        "breaker",
        "connect_lock",
        "ever_connected",
    )

    def __init__(self, index: int, address: Tuple[str, int], breaker: _Breaker) -> None:
        self.index = index
        self.address = address
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: :class:`_Pending` entries in send order — the shard answers in
        #: order, so the leftmost entry owns the next response line.
        self.pending: "deque[_Pending]" = deque()
        self.alive = False
        self.read_task: Optional[asyncio.Task] = None
        self.breaker = breaker
        self.connect_lock: Optional[asyncio.Lock] = None
        self.ever_connected = False


class ShardedClient:
    """Resilient client-side router over a set of shard servers.

    Usage::

        async with ShardedClient.from_base("127.0.0.1", 7000, 3) as client:
            responses = await client.stream(request_lines)

    ``stream`` returns one response line per request line, in submission
    order.  Routing is per-request by canonical key; ordering is restored
    by awaiting responses in submission order (each shard individually
    preserves order, so a per-shard FIFO of futures suffices — no sequence
    numbers on the wire).

    Parameters
    ----------
    addresses:
        The shard set, index-aligned with the routing arithmetic.
    max_inflight:
        Per-client cap on outstanding requests in :meth:`stream`.
    connect_timeout:
        Seconds allowed per connection attempt (initial and reconnect).
    request_timeout:
        Optional per-request deadline, in seconds.  A request that
        outlives it resolves to a typed ``shard-timeout`` response and
        the stalled connection is severed.  ``None`` (default) waits
        forever.
    max_retries:
        Resubmissions allowed per request after connection failures,
        each preceded by capped exponential backoff
        (``retry_backoff * 2**attempt``, capped at one second).
        ``0`` (default) fails over immediately.
    retry_backoff:
        Backoff base, in seconds.
    breaker_threshold:
        Consecutive connection failures that open a shard's circuit
        breaker; while open, submissions are answered from the local
        execute path (``degraded_responses``).  ``None`` (default)
        disables the breaker.
    breaker_cooldown:
        Seconds an open breaker waits before half-opening for a probe.
    time_fn:
        Clock used by the breakers (injectable for tests).
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        *,
        max_inflight: int = 64,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.05,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = 1.0,
        time_fn=time.monotonic,
    ) -> None:
        if not addresses:
            raise ServiceError("ShardedClient needs at least one shard address")
        if max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, got {max_inflight}")
        if request_timeout is not None and request_timeout <= 0:
            raise ServiceError(
                f"request_timeout must be > 0 (or None), got {request_timeout}"
            )
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {max_retries}")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ServiceError(
                f"breaker_threshold must be >= 1 (or None), got {breaker_threshold}"
            )
        self._shards = [
            _ShardConnection(
                index,
                tuple(address),
                _Breaker(breaker_threshold, breaker_cooldown, time_fn),
            )
            for index, address in enumerate(addresses)
        ]
        self.max_inflight = max_inflight
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: Client-side registry: the ``client.*`` resilience counters
        #: (:data:`_CLIENT_COUNTERS`), ``client.request_ms`` and one
        #: ``client.shard{i}.request_ms`` histogram per shard, fed by the
        #: read loop from each request's send→response round trip.
        self.registry = MetricsRegistry()
        self.registry.declare(
            counters=[f"client.{name}" for name in _CLIENT_COUNTERS],
            histograms=["client.request_ms"]
            + [f"client.shard{index}.request_ms" for index in range(len(addresses))]
        )
        self._closed = False
        self._retry_tasks: "set[asyncio.Task]" = set()
        self._local_service = None

    @classmethod
    def from_base(
        cls, host: str, port: int, n_shards: int, **kwargs: Any
    ) -> "ShardedClient":
        """Build a client for the consecutive-port shard set at ``host:port``."""
        return cls(shard_addresses(host, port, n_shards), **kwargs)

    @property
    def n_shards(self) -> int:
        """Number of shards this client routes over."""
        return len(self._shards)

    @property
    def live_shards(self) -> List[int]:
        """Indices of shards whose connections are currently healthy."""
        return [shard.index for shard in self._shards if shard.alive]

    def breaker_states(self) -> List[str]:
        """Current breaker state per shard, index-aligned."""
        return [shard.breaker.state for shard in self._shards]

    def client_stats(self) -> Dict[str, Any]:
        """The client-side recovery counters plus per-shard breaker states."""
        return {
            **_client_counters(self.registry.snapshot()),
            "breaker_state": self.breaker_states(),
        }

    # -- lifecycle ----------------------------------------------------------
    async def connect(self) -> None:
        """Open one connection per shard and start its response reader.

        The *initial* connect is strict — an unreachable shard raises, so
        misconfigured topologies fail loudly.  Failures after this point
        are handled by the resilience machinery instead.
        """
        for shard in self._shards:
            host, port = shard.address
            shard.reader, shard.writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=self.connect_timeout
            )
            shard.alive = True
            shard.ever_connected = True
            shard.read_task = asyncio.create_task(self._read_loop(shard))

    async def close(self) -> None:
        """Close every shard connection and stop the readers (idempotent).

        Pending retries are cancelled and unanswered requests resolve to
        typed ``shard-unavailable`` responses — the one-response-per-
        request invariant holds through shutdown too.
        """
        self._closed = True
        for task in list(self._retry_tasks):
            task.cancel()
        if self._retry_tasks:
            await asyncio.gather(*self._retry_tasks, return_exceptions=True)
            self._retry_tasks.clear()
        for shard in self._shards:
            if shard.writer is not None:
                shard.writer.close()
                try:
                    await shard.writer.wait_closed()
                except Exception:  # noqa: BLE001 - already-dead sockets
                    pass
                shard.writer = None
        for shard in self._shards:
            if shard.read_task is not None:
                shard.read_task.cancel()
                await asyncio.gather(shard.read_task, return_exceptions=True)
                shard.read_task = None
            self._mark_dead(shard)
        if self._local_service is not None:
            self._local_service.close()
            self._local_service = None

    async def __aenter__(self) -> "ShardedClient":
        """Async-context entry: connect to every shard."""
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        """Async-context exit: close every shard connection."""
        await self.close()

    # -- request routing ----------------------------------------------------
    async def submit(self, line: str) -> "asyncio.Future[str]":
        """Route one request line; the future resolves to its response line.

        Submission never raises for shard loss: every failure mode —
        dead shard, stalled shard, exhausted retries, open breaker —
        resolves the future with a typed (or locally-computed degraded)
        response, so callers keep their one-response-per-request
        accounting.

        A request that opts into tracing (``"trace": true``) but carries
        no ``id`` gets a fresh trace id minted here — the id is metadata
        (outside the canonical key), so minting never perturbs routing,
        caching or coalescing.  The substring guard keeps the common
        no-trace path free of a JSON parse.
        """
        if '"trace"' in line:
            line = self._mint_trace_id(line)
        shard = self._shards[shard_for_line(line, len(self._shards))]
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[str]" = loop.create_future()
        entry = _Pending(future, line)
        await self._dispatch(shard, entry)
        return future

    @staticmethod
    def _mint_trace_id(line: str) -> str:
        """Attach a minted ``id`` to a traced request line lacking one."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return line
        if (
            isinstance(payload, dict)
            and payload.get("trace") is True
            and not isinstance(payload.get("id"), str)
        ):
            payload["id"] = f"trace-{mint_trace_id()}"
            return json.dumps(payload, separators=(",", ":"))
        return line

    async def stream(self, lines: Iterable[str]) -> List[str]:
        """Send a whole request stream; responses in submission order.

        Keeps at most ``max_inflight`` requests outstanding (per client):
        the natural client-side backpressure partner to the server's
        bounded queues.
        """
        responses: List[str] = []
        window: "deque[asyncio.Future[str]]" = deque()
        for line in lines:
            while len(window) >= self.max_inflight:
                responses.append(await window.popleft())
            window.append(await self.submit(line))
        while window:
            responses.append(await window.popleft())
        return responses

    async def metrics(self, request_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Query every shard's metrics request type; one payload per shard.

        Each shard answers with its identity, uptime and full metric
        registry payload (see
        :data:`repro.service.observability.METRIC_CATALOG`), and the
        client augments it with a ``client`` section — recovery counters
        (``retries``, ``degraded_responses``, …), that shard's breaker
        state, and this client's view of the shard's request latency
        (``client.shard{i}.request_ms`` snapshot).  Unreachable shards
        contribute their ``shard-unavailable`` response instead, so the
        result always has one entry per shard, index-aligned.  Metrics
        probes bypass an open breaker on purpose: a successful probe is
        exactly the signal that closes it.
        """
        line = response_line(metrics_request(request_id))
        loop = asyncio.get_running_loop()
        futures = []
        for shard in self._shards:
            future: "asyncio.Future[str]" = loop.create_future()
            entry = _Pending(future, line, is_control=True)
            await self._dispatch(shard, entry)
            futures.append(future)
        payloads = [json.loads(await future) for future in futures]
        snapshot = self.registry.snapshot()
        for shard, payload in zip(self._shards, payloads):
            client_section = {
                **_client_counters(snapshot),
                "breaker_state": shard.breaker.state,
                "request_ms": snapshot["histograms"].get(
                    f"client.shard{shard.index}.request_ms"
                ),
            }
            if isinstance(payload.get("metrics"), dict):
                payload["metrics"]["client"] = client_section
            else:
                payload["client"] = client_section
        return payloads

    # -- resilience machinery -----------------------------------------------
    async def _dispatch(self, shard: _ShardConnection, entry: _Pending) -> None:
        """Send one entry to its shard, degrading/failing per the policy."""
        if self._closed:
            self._settle(shard, entry)
            return
        if not entry.is_control and shard.breaker.state == "open":
            self._degrade(entry)
            return
        if not shard.alive and not await self._reconnect(shard):
            self._settle(shard, entry)
            return
        writer = shard.writer
        shard.pending.append(entry)
        if self.request_timeout is not None:
            loop = asyncio.get_running_loop()
            entry.timer = loop.call_later(
                self.request_timeout, self._on_timeout, shard, entry
            )
        try:
            entry.sent_at = time.perf_counter()
            writer.write(entry.line.encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionError, RuntimeError):
            self._mark_dead(shard)

    async def _reconnect(self, shard: _ShardConnection) -> bool:
        """Try to (re-)open one shard's connection; returns success.

        Serialized per shard so concurrent retries share one attempt.  A
        successful re-open of a previously-connected shard counts as a
        ``reconnect`` and closes the breaker (this is also the half-open
        probe); a failure feeds the breaker.
        """
        if shard.connect_lock is None:
            shard.connect_lock = asyncio.Lock()
        async with shard.connect_lock:
            if shard.alive:
                return True
            if self._closed:
                return False
            host, port = shard.address
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=self.connect_timeout
                )
            except (OSError, asyncio.TimeoutError):
                if shard.breaker.record_failure():
                    self.registry.inc("client.breaker_opens")
                return False
            shard.reader, shard.writer = reader, writer
            shard.alive = True
            if shard.ever_connected:
                self.registry.inc("client.reconnects")
            shard.ever_connected = True
            if shard.breaker.record_success():
                self.registry.inc("client.breaker_closes")
            shard.read_task = asyncio.create_task(self._read_loop(shard))
            return True

    def _settle(self, shard: _ShardConnection, entry: _Pending) -> None:
        """Resolve one failed entry in one synchronous step.

        The outcome is, in this order: a typed ``shard-timeout`` (the
        entry outlived ``request_timeout``); a typed ``shard-unavailable``
        (metrics probes and a closed client); a retry scheduled after its
        backoff sleep, while attempts remain; a degraded answer if the
        shard's breaker is open; else ``shard-unavailable``.
        """
        entry.cancel_timer()
        if entry.future.done():
            return
        if entry.timed_out:
            self.registry.inc("client.timeouts")
            entry.future.set_result(
                response_line(
                    shard_timeout_response(
                        shard.index,
                        shard.address,
                        self.request_timeout or 0.0,
                        _request_id_of(entry.line),
                    )
                )
            )
        elif entry.is_control or self._closed:
            self._resolve_unavailable(shard, entry)
        elif entry.attempts < self.max_retries:
            entry.attempts += 1
            self.registry.inc("client.retries")
            delay = min(
                _RETRY_BACKOFF_MAX,
                self.retry_backoff * (2.0 ** (entry.attempts - 1)),
            )
            task = asyncio.create_task(self._retry_later(shard, entry, delay))
            self._retry_tasks.add(task)
            task.add_done_callback(self._retry_tasks.discard)
        elif shard.breaker.state == "open":
            self._degrade(entry)
        else:
            self._resolve_unavailable(shard, entry)

    async def _retry_later(
        self, shard: _ShardConnection, entry: _Pending, delay: float
    ) -> None:
        """Backoff, then re-dispatch one entry (idempotent resubmission)."""
        try:
            await asyncio.sleep(delay)
            await self._dispatch(shard, entry)
        except asyncio.CancelledError:
            self._resolve_unavailable(shard, entry)
            raise

    def _degrade(self, entry: _Pending) -> None:
        """Answer one entry from the local execute path (breaker open).

        The local pipeline is the same validate → canonicalize → simulate
        sequence the server runs, so — by the determinism contract — the
        degraded response is byte-identical to what the healthy shard
        would have answered.  It runs on the client's loop through one
        lazily built local service, as a shard runs its chunks: the
        simulation delays reads from the healthy shards by its own time.
        """
        if entry.future.done():
            return
        if self._local_service is None:
            from .cache import LRUResultCache
            from .dispatcher import ScheduleService

            self._local_service = ScheduleService(
                batch_size=1, cache=LRUResultCache(max_entries=256)
            )
        (response,) = self._local_service.serve_chunk([entry.line])
        self.registry.inc("client.degraded_responses")
        entry.future.set_result(response_line(response))

    def _on_timeout(self, shard: _ShardConnection, entry: _Pending) -> None:
        """Request-timeout callback: sever the stalled connection.

        Responses match pending requests by order, so once the
        head-of-line answer is overdue the connection's remaining stream
        is unattributable — the only safe move is to kill the connection
        and let the failure path resolve (timeout) or resubmit (retry)
        each pending entry.
        """
        entry.timer = None
        if entry.future.done():
            return
        entry.timed_out = True
        if shard.writer is not None:
            transport = shard.writer.transport
            if transport is not None:
                transport.abort()
        self._mark_dead(shard)

    # -- internals ----------------------------------------------------------
    async def _read_loop(self, shard: _ShardConnection) -> None:
        """Match one shard's response lines to its pending futures, in order."""
        assert shard.reader is not None
        try:
            while True:
                raw = await shard.reader.readline()
                if not raw:
                    break
                if not shard.pending:
                    continue  # protocol violation: response with no request
                entry = shard.pending.popleft()
                entry.cancel_timer()
                if shard.breaker.record_success():
                    self.registry.inc("client.breaker_closes")
                if not entry.is_control and entry.sent_at:
                    latency_ms = (time.perf_counter() - entry.sent_at) * 1000.0
                    self.registry.observe("client.request_ms", latency_ms)
                    self.registry.observe(
                        f"client.shard{shard.index}.request_ms", latency_ms
                    )
                if not entry.future.done():
                    entry.future.set_result(raw.decode("utf-8").rstrip("\n"))
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            self._mark_dead(shard)

    def _mark_dead(self, shard: _ShardConnection) -> None:
        """Fail the shard over: route its pending entries to the failure path."""
        if not shard.alive and not shard.pending:
            return
        shard.alive = False
        if shard.writer is not None:
            shard.writer.close()
            shard.writer = None
        # A connection severed by our own close() is not a shard failure.
        if not self._closed and shard.breaker.record_failure():
            self.registry.inc("client.breaker_opens")
        entries = list(shard.pending)
        shard.pending.clear()
        for entry in entries:
            self._settle(shard, entry)

    def _resolve_unavailable(self, shard: _ShardConnection, entry: _Pending) -> None:
        """Resolve one entry with the typed unavailable response."""
        entry.cancel_timer()
        if not entry.future.done():
            entry.future.set_result(
                response_line(
                    shard_unavailable_response(
                        shard.index, shard.address, _request_id_of(entry.line)
                    )
                )
            )
