"""Persistent asyncio JSONL-over-TCP server — the long-lived transport.

The stdin/stdout loop of :mod:`repro.service.server` serves exactly one
client and dies with the pipe.  This module promotes the same dispatcher to
a **persistent socket server**: :class:`AsyncScheduleServer` wraps
``asyncio.start_server`` around one shared
:class:`~repro.service.dispatcher.ScheduleService` and speaks the identical
JSONL protocol — one request per line in, one canonical-JSON response per
line out, **per-connection submission order**.

Concurrency model (per connection)::

    socket ──► read loop ──► inbound queue ──► dispatch loop ──► outbound queue ──► write loop ──► socket
                              (bounded)        (chunks through      (bounded)
                                              ScheduleService.serve_chunk
                                              in an executor thread)

* the **read loop** turns socket lines into inbound-queue items; the queue
  is bounded, so a dispatch stage that falls behind stops the reader, which
  stops reading the socket — TCP flow control pushes the backpressure all
  the way to the client;
* the **dispatch loop** greedily gathers whatever accumulated (up to the
  service batch size) and resolves it through
  :meth:`~repro.service.dispatcher.ScheduleService.serve_chunk` in a worker
  thread, so the event loop keeps multiplexing other connections while a
  chunk simulates.  ``serve_chunk`` is atomic per chunk, which is what
  keeps each connection's responses correctly attributed and ordered;
* the **write loop** flushes responses from the bounded outbound queue; a
  slow-reading client fills its socket buffers, then the outbound queue,
  then pauses its own dispatch/read stages — never anyone else's, and never
  an unbounded buffer.

``{"type": "stats"}`` control requests (see
:func:`repro.service.schema.is_stats_request`) are answered by the server
itself, in stream position, with the shard's health payload: uptime, shard
identity, connection/inflight gauges, shed count, dispatcher and cache
counters.

Determinism contract: a connection's response stream is byte-identical to
what :func:`repro.service.server.serve_lines` writes for the same request
lines, whatever the shard count, worker count or number of concurrent
connections (``tests/test_async_server.py`` asserts the bytes).

A SIGTERM/SIGINT (see :func:`run_server`) triggers a **graceful drain**:
the listener closes, per-connection readers stop accepting further lines,
already-read requests resolve and flush, then the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import socket
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .dispatcher import ScheduleService
from .observability import TELEMETRY_SCHEMA_VERSION
from .schema import (
    SCHEMA_VERSION,
    control_request_id,
    is_control_request,
    is_metrics_request,
)
from .server import response_line

__all__ = [
    "ServerStats",
    "AsyncScheduleServer",
    "main_serve_forever",
    "parse_address",
    "run_server",
]

#: ``asyncio.StreamReader`` line limit — requests beyond 1 MiB are a
#: protocol violation and close the connection.
_LINE_LIMIT = 1 << 20


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` string into its ``(host, port)`` pair.

    Raises :class:`ValueError` on a missing colon or a non-integer port,
    with a message suitable for CLI error reporting.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {text!r} is not of the form HOST:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address {text!r} has a non-integer port {port_text!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"address {text!r} has an out-of-range port {port}")
    return host, port


@dataclass
class ServerStats:
    """Transport-level counters of one :class:`AsyncScheduleServer`."""

    #: Connections accepted over the server's lifetime.
    connections_total: int = 0
    #: Connections currently open.
    connections_active: int = 0
    #: Request lines read off sockets (schedule and stats requests alike).
    requests_received: int = 0
    #: Response lines successfully written back.
    responses_sent: int = 0
    #: Connections that vanished before their response stream flushed.
    disconnects: int = 0
    #: Chunks currently executing in the dispatcher (gauge).
    inflight: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (stats responses, tests)."""
        return dict(vars(self))


class _Connection:
    """Mutable per-connection state shared by the three pipeline stages."""

    __slots__ = ("alive",)

    def __init__(self) -> None:
        #: Cleared by the write loop when the client vanishes; the dispatch
        #: loop then stops paying for simulations nobody will read.
        self.alive = True


class AsyncScheduleServer:
    """Long-lived JSONL-over-TCP server around one :class:`ScheduleService`.

    Parameters
    ----------
    service:
        The dispatcher every connection shares (one cache, one admission
        policy, one statistics lifetime — this is what makes the server one
        *shard* of the cache keyspace).
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port; the real port
        is published on :attr:`port` after :meth:`start`.
    shard_index, shard_count:
        This server's identity in a sharded topology, echoed in stats
        responses (``0``/``1`` when unsharded).
    shard_restarts:
        How many times the supervisor has restarted this shard slot
        (``REPRO_SHARD_RESTARTS``); echoed in stats responses so recovery
        is observable end-to-end.
    max_chunk:
        Upper bound on request lines resolved per dispatcher round trip;
        defaults to the service batch size.
    write_queue_lines:
        Bound of the per-connection outbound queue — the backpressure
        budget between the dispatcher and a slow-reading client.
    executor_threads:
        Worker threads running dispatcher chunks.  Chunks serialize on the
        dispatcher's chunk lock, so this bounds *waiting* connections, not
        parallel compute.
    drain_timeout:
        Seconds :meth:`close` waits for open connections to flush before
        cancelling them.
    per_connection_sndbuf:
        Optional send-side buffer bound applied to every accepted socket:
        both the kernel ``SO_SNDBUF`` and the asyncio transport's
        user-space write-buffer high-water mark.  Mainly for backpressure
        tests, which need small buffers to observe the bounded-queue
        behaviour without megabytes of traffic.
    """

    def __init__(
        self,
        service: ScheduleService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
        shard_restarts: int = 0,
        max_chunk: Optional[int] = None,
        write_queue_lines: int = 256,
        executor_threads: int = 4,
        drain_timeout: float = 10.0,
        per_connection_sndbuf: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.shard_restarts = shard_restarts
        self.max_chunk = max_chunk if max_chunk is not None else service.batch_size
        self.write_queue_lines = write_queue_lines
        self.drain_timeout = drain_timeout
        self.per_connection_sndbuf = per_connection_sndbuf
        self.stats = ServerStats()
        # Server-loop spans land in the service's registry so one metrics
        # scrape covers transport and dispatcher alike.
        self._registry = service.obs.registry
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_monotonic: Optional[float] = None
        self._draining = False
        self._reader_tasks: "set[asyncio.Task]" = set()
        self._connection_tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` pair (real port after :meth:`start`)."""
        return (self.host, self.port)

    @property
    def uptime(self) -> float:
        """Seconds since :meth:`start` (``0.0`` before it)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    async def close(self) -> None:
        """Graceful drain: stop accepting, flush open connections, shut down.

        Readers are cancelled (no further request lines are accepted), but
        requests already read continue to resolve and their responses are
        flushed, bounded by ``drain_timeout``; stragglers are cancelled.
        Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._reader_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.wait(self._connection_tasks, timeout=self.drain_timeout)
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self.service.close()

    async def __aenter__(self) -> "AsyncScheduleServer":
        """Async-context entry: start the listener."""
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        """Async-context exit: graceful drain and shutdown."""
        await self.close()

    # -- control request types ----------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        """The shard's health payload (the body of a stats response)."""
        snapshot = self.service.snapshot()
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "uptime_s": round(self.uptime, 6),
            "shard": {
                "index": self.shard_index,
                "count": self.shard_count,
                "restarts": self.shard_restarts,
            },
            "server": self.stats.as_dict(),
            "shed": snapshot["service"]["rejected"],
            "pending": snapshot["pending"],
            "service": snapshot["service"],
            "cache": snapshot["cache"],
        }

    def stats_response(self, request_id: Optional[str]) -> Dict[str, Any]:
        """One full stats response (canonical-JSON encodable)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "type": "stats",
            "id": request_id,
            "stats": self.stats_payload(),
        }

    def metrics_payload(self) -> Dict[str, Any]:
        """The shard's observability payload (body of a metrics response).

        One flat metric namespace: the registry snapshot (stage/span
        histograms, shed counters), the cache's ``cache.*`` counters, and
        the ``service.*`` / ``server.*`` values derived from the stats
        dataclasses — see :data:`repro.service.observability.METRIC_CATALOG`
        for the full name list.
        """
        snapshot = self.service.snapshot()
        service = snapshot["service"]
        server = self.stats.as_dict()
        derived_counters = {
            f"service.{name}": service[name]
            for name in (
                "received",
                "responded",
                "ok",
                "invalid",
                "rejected",
                "failed",
                "simulations",
                "coalesced",
            )
        }
        derived_counters.update(
            {
                f"server.{name}": server[name]
                for name in (
                    "connections_total",
                    "requests_received",
                    "responses_sent",
                    "disconnects",
                )
            }
        )
        derived_gauges = {
            "server.connections_active": server["connections_active"],
            "server.inflight": server["inflight"],
            "server.restarts": self.shard_restarts,
            "service.pending": snapshot["pending"],
        }
        cache = self.service.cache
        return self.service.obs.metrics_payload(
            shard={
                "index": self.shard_index,
                "count": self.shard_count,
                "restarts": self.shard_restarts,
            },
            uptime_s=round(self.uptime, 6),
            cache_counters=cache.counters() if cache is not None else {},
            derived_counters=derived_counters,
            derived_gauges=derived_gauges,
        )

    def metrics_response(self, request_id: Optional[str]) -> Dict[str, Any]:
        """One full metrics response (canonical-JSON encodable)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "type": "metrics",
            "id": request_id,
            "metrics": self.metrics_payload(),
        }

    # -- connection pipeline ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accepted-connection callback: wire up the three pipeline stages."""
        task = asyncio.current_task()
        assert task is not None
        self._connection_tasks.add(task)
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        if self.per_connection_sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.per_connection_sndbuf
                )
            # Cap the user-space transport buffer too — otherwise asyncio
            # absorbs ~64 KiB before drain() ever blocks and the kernel
            # bound alone is unobservable.
            writer.transport.set_write_buffer_limits(high=self.per_connection_sndbuf)
        conn = _Connection()
        inbound: "asyncio.Queue[Optional[str]]" = asyncio.Queue(
            maxsize=max(2 * self.max_chunk, 2)
        )
        outbound: "asyncio.Queue[Optional[str]]" = asyncio.Queue(
            maxsize=self.write_queue_lines
        )
        read_task = asyncio.create_task(self._read_loop(reader, inbound))
        self._reader_tasks.add(read_task)
        write_task = asyncio.create_task(self._write_loop(writer, outbound, conn))
        try:
            await self._dispatch_loop(inbound, outbound, conn)
        finally:
            read_task.cancel()
            await asyncio.gather(read_task, return_exceptions=True)
            self._reader_tasks.discard(read_task)
            # Sentinel for the writer.  A slow-but-alive client gets up to
            # drain_timeout to make room in the outbound queue; a stuck one
            # gets its writer cancelled instead of deadlocking teardown.
            try:
                await asyncio.wait_for(outbound.put(None), timeout=self.drain_timeout)
            except asyncio.TimeoutError:
                write_task.cancel()
            await asyncio.gather(write_task, return_exceptions=True)
            if not conn.alive:
                self.stats.disconnects += 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self.stats.connections_active -= 1
            self._connection_tasks.discard(task)

    async def _read_loop(
        self, reader: asyncio.StreamReader, inbound: "asyncio.Queue[Optional[str]]"
    ) -> None:
        """Socket lines → bounded inbound queue; ``None`` sentinel on EOF."""
        try:
            while not self._draining:
                read_start = time.perf_counter()
                line = await reader.readline()
                if not line:
                    break
                # Includes the wait for the client's next line — the read
                # span is "time to obtain one request", by design.
                self._registry.observe(
                    "server.read_ms", (time.perf_counter() - read_start) * 1000.0
                )
                text = line.decode("utf-8", errors="replace")
                if not text.strip():
                    continue
                await inbound.put(text)
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            # ConnectionError: client vanished; ValueError: line over the
            # protocol limit.  Either way this stream is over.
            pass
        except asyncio.CancelledError:
            pass  # graceful drain: stop reading, still deliver the sentinel
        finally:
            while True:
                try:
                    inbound.put_nowait(None)
                    break
                except asyncio.QueueFull:
                    await asyncio.sleep(0.01)

    async def _dispatch_loop(
        self,
        inbound: "asyncio.Queue[Optional[str]]",
        outbound: "asyncio.Queue[Optional[str]]",
        conn: _Connection,
    ) -> None:
        """Gather request chunks, resolve them off-loop, enqueue responses."""
        loop = asyncio.get_running_loop()
        eof = False
        while not eof:
            first = await inbound.get()
            if first is None:
                break
            chunk = [first]
            while len(chunk) < self.max_chunk:
                try:
                    item = inbound.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is None:
                    eof = True
                    break
                chunk.append(item)
            self.stats.requests_received += len(chunk)
            if not conn.alive:
                continue  # client is gone: drop the chunk instead of simulating
            for line in await self._resolve_chunk(loop, chunk):
                await outbound.put(line)

    async def _resolve_chunk(
        self, loop: asyncio.AbstractEventLoop, chunk: List[str]
    ) -> List[str]:
        """Resolve one chunk to response lines, control requests in position."""
        out_lines: List[str] = []
        pending: List[str] = []
        for text in chunk:
            payload = self._try_parse(text)
            if is_control_request(payload):
                if pending:
                    out_lines.extend(await self._run_schedule_chunk(loop, pending))
                    pending = []
                request_id = control_request_id(payload)
                if is_metrics_request(payload):
                    response = self.metrics_response(request_id)
                else:
                    response = self.stats_response(request_id)
                out_lines.append(response_line(response))
            else:
                pending.append(text)
        if pending:
            out_lines.extend(await self._run_schedule_chunk(loop, pending))
        return out_lines

    async def _run_schedule_chunk(
        self, loop: asyncio.AbstractEventLoop, lines: List[str]
    ) -> List[str]:
        """Run one dispatcher chunk in the executor; returns response lines."""
        self.stats.inflight += 1
        dispatch_start = time.perf_counter()
        try:
            return await loop.run_in_executor(
                self._executor, self._serve_chunk_sync, list(lines)
            )
        finally:
            self.stats.inflight -= 1
            self._registry.observe(
                "server.dispatch_ms", (time.perf_counter() - dispatch_start) * 1000.0
            )

    def _serve_chunk_sync(self, lines: List[str]) -> List[str]:
        """Executor-thread body: atomic submit+drain, canonical encoding."""
        return [response_line(r) for r in self.service.serve_chunk(lines)]

    @staticmethod
    def _try_parse(text: str) -> Any:
        """Best-effort JSON parse (malformed lines stay the dispatcher's job)."""
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return None

    async def _write_loop(
        self,
        writer: asyncio.StreamWriter,
        outbound: "asyncio.Queue[Optional[str]]",
        conn: _Connection,
    ) -> None:
        """Bounded outbound queue → socket; survives the client vanishing.

        After a write failure the loop keeps *consuming* (and discarding)
        queued lines until the sentinel, so the dispatch stage can never
        deadlock against a dead client.
        """
        while True:
            line = await outbound.get()
            if line is None:
                break
            if not conn.alive:
                continue
            write_start = time.perf_counter()
            try:
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                self.stats.responses_sent += 1
                self._registry.observe(
                    "server.write_ms", (time.perf_counter() - write_start) * 1000.0
                )
            except (ConnectionError, RuntimeError):
                conn.alive = False


async def run_server(
    service: ScheduleService,
    host: str,
    port: int,
    *,
    shard_index: int = 0,
    shard_count: int = 1,
    shard_restarts: int = 0,
    err: Optional[TextIO] = None,
    install_signal_handlers: bool = True,
    ready_event: Optional[asyncio.Event] = None,
    stop_event: Optional[asyncio.Event] = None,
) -> AsyncScheduleServer:
    """Serve until SIGTERM/SIGINT (or ``stop_event``), then drain gracefully.

    Prints a ``listening on HOST:PORT`` line to ``err`` once the socket is
    bound — supervisors and tests parse it to learn ephemeral ports —
    and returns the (closed) server so callers can read final statistics.
    """
    server = AsyncScheduleServer(
        service,
        host,
        port,
        shard_index=shard_index,
        shard_count=shard_count,
        shard_restarts=shard_restarts,
    )
    await server.start()
    if err is not None:
        print(
            f"listening on {server.host}:{server.port} "
            f"(shard {shard_index + 1}/{shard_count})",
            file=err,
            flush=True,
        )
    if ready_event is not None:
        ready_event.set()
    stop = stop_event if stop_event is not None else asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers (e.g. Windows)
    try:
        await stop.wait()
    finally:
        await server.close()
    return server


def main_serve_forever(
    service: ScheduleService,
    host: str,
    port: int,
    *,
    shard_index: int = 0,
    shard_count: int = 1,
    shard_restarts: int = 0,
    err: Optional[TextIO] = None,
) -> AsyncScheduleServer:
    """Synchronous wrapper for the CLI: run :func:`run_server` to completion."""
    if err is None:
        err = sys.stderr
    return asyncio.run(
        run_server(
            service,
            host,
            port,
            shard_index=shard_index,
            shard_count=shard_count,
            shard_restarts=shard_restarts,
            err=err,
        )
    )
