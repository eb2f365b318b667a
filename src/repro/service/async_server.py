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
               (parses each    (bounded)       (resolves chunks     (bounded)
                line once)                     on the loop thread)

* the **read loop** turns socket lines into inbound-queue items, running
  ``json.loads`` on each line exactly once to tell control requests from
  schedule requests; the queue is bounded, so a dispatch stage that falls
  behind stops the reader, which stops reading the socket — TCP flow
  control pushes the backpressure all the way to the client;
* the **dispatch loop** greedily gathers whatever accumulated (up to the
  service batch size) and resolves it *on the event-loop thread* through
  :meth:`~repro.service.dispatcher.ScheduleService.serve_chunk`, handing
  over the parsed object of every JSON-object line and the raw text of
  every other line (so malformed lines get the dispatcher's usual error
  response).  The compute is pure Python under the GIL and chunks
  serialize on the dispatcher's chunk lock anyway, so a worker thread
  would add a queue hand-off and a wake-up per chunk and no parallelism;
  process parallelism lives one tier up, in ``repro serve --shards``.
  The trade-off: a metrics request on *another* connection waits
  for the chunk being resolved — at most one batch of requests.  Since a
  connection's inbound queue holds at most two chunks and refills only
  when the loop runs, one dispatch loop resolves at most two chunks
  before it yields;
* the **write loop** flushes responses from the bounded outbound queue; a
  slow-reading client fills its socket buffers, then the outbound queue,
  then pauses its own dispatch/read stages — never anyone else's, and never
  an unbounded buffer.

``{"type": "metrics"}`` control requests (see
:func:`repro.service.schema.is_control_request`) are answered by the
server itself, in stream position, with the shard's observability
payload: shard identity, uptime and the snapshot of the metric registry
the server shares with its dispatcher and cache.

Determinism contract: a connection's response stream is byte-identical to
what :func:`repro.service.server.serve_lines` writes for the same request
lines, whatever the shard count, batch size or number of concurrent
connections (``tests/test_async_server.py`` asserts the bytes).

A SIGTERM/SIGINT (see :func:`run_server`) triggers a **graceful drain**:
the listener closes, per-connection readers stop accepting further lines,
already-read requests resolve and flush, then the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import signal
import socket
import sys
import time
from operator import itemgetter
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .dispatcher import ScheduleService
from .schema import SCHEMA_VERSION, control_request_id, is_control_request
from .server import response_line

__all__ = [
    "AsyncScheduleServer",
    "main_serve_forever",
    "parse_address",
    "run_server",
]

#: ``asyncio.StreamReader`` line limit — requests beyond 1 MiB are a
#: protocol violation and close the connection.
_LINE_LIMIT = 1 << 20

#: One inbound-queue item: ``(request, is_control)``.  ``request`` is the
#: parsed object of a JSON-object line, else the line's raw text.
_Item = Tuple[Any, bool]


def _parse_line(text: str) -> _Item:
    """Parse one request line, once, into an inbound-queue item.

    A JSON object travels on parsed (``ScheduleService.submit`` accepts a
    mapping); any other line travels on as its text, so the dispatcher
    builds the same error response it builds for the raw line.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return text, False
    if not isinstance(payload, dict):
        return text, False
    return payload, is_control_request(payload)


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


class _Connection:
    """Mutable per-connection state shared by the three pipeline stages."""

    __slots__ = ("alive", "inflight")

    def __init__(self) -> None:
        #: Cleared by the write loop when the client vanishes; the dispatch
        #: loop then stops paying for simulations nobody will read.
        self.alive = True
        #: This connection's share of the server's ``inflight``, taken back
        #: out at teardown so a cancelled connection cannot leak into it.
        self.inflight = 0


class AsyncScheduleServer:
    """Long-lived JSONL-over-TCP server around one :class:`ScheduleService`.

    Parameters
    ----------
    service:
        The dispatcher every connection shares (one cache, one admission
        policy, one metrics registry — this is what makes the server one
        *shard* of the cache keyspace).
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port; the real port
        is published on :attr:`port` after :meth:`start`.
    shard_index, shard_count:
        This server's identity in a sharded topology, echoed in metrics
        responses (``0``/``1`` when unsharded).
    shard_restarts:
        How many times the supervisor has restarted this shard slot
        (``REPRO_SHARD_RESTARTS``); echoed in metrics responses and the
        ``server.restarts`` gauge so recovery is observable end-to-end.
    max_chunk:
        Upper bound on request lines resolved per dispatcher round trip;
        defaults to the service batch size.
    write_queue_lines:
        Bound of the per-connection outbound queue — the backpressure
        budget between the dispatcher and a slow-reading client.
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
        #: Connections currently open.
        self.connections_active = 0
        #: Schedule-request lines read but whose responses are not yet
        #: queued for the writer (control requests are not counted).
        self.inflight = 0
        # Server counters and spans land in the service's registry so one
        # metrics scrape covers transport, dispatcher and cache alike.
        registry = self._registry = service.obs.registry
        registry.bind_gauge(
            "server.connections_active", lambda: self.connections_active
        )
        registry.bind_gauge("server.inflight", lambda: self.inflight)
        registry.set_gauge("server.restarts", shard_restarts)
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
        self.service.close()

    async def __aenter__(self) -> "AsyncScheduleServer":
        """Async-context entry: start the listener."""
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        """Async-context exit: graceful drain and shutdown."""
        await self.close()

    # -- control requests ---------------------------------------------------
    def metrics_payload(self) -> Dict[str, Any]:
        """The shard's observability payload (body of a metrics response).

        One flat metric namespace, read from the registry the server
        shares with its dispatcher and cache — see
        :data:`repro.service.observability.METRIC_CATALOG` for the names.
        """
        return self.service.obs.metrics_payload(
            shard={
                "index": self.shard_index,
                "count": self.shard_count,
                "restarts": self.shard_restarts,
            },
            uptime_s=round(self.uptime, 6),
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
        self._registry.inc("server.connections_total")
        self.connections_active += 1
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
        inbound: "asyncio.Queue[Optional[_Item]]" = asyncio.Queue(
            maxsize=max(2 * self.max_chunk, 2)
        )
        outbound: "asyncio.Queue[Optional[str]]" = asyncio.Queue(
            maxsize=self.write_queue_lines
        )
        read_task = asyncio.create_task(self._read_loop(reader, inbound, conn))
        self._reader_tasks.add(read_task)
        write_task = asyncio.create_task(self._write_loop(writer, outbound, conn))
        try:
            await self._dispatch_loop(inbound, outbound, conn)
        finally:
            read_task.cancel()
            await asyncio.gather(read_task, return_exceptions=True)
            self._reader_tasks.discard(read_task)
            self._track(conn, -conn.inflight)
            # Sentinel for the writer.  A slow-but-alive client gets up to
            # drain_timeout to make room in the outbound queue; a stuck one
            # gets its writer cancelled instead of deadlocking teardown.
            try:
                await asyncio.wait_for(outbound.put(None), timeout=self.drain_timeout)
            except asyncio.TimeoutError:
                write_task.cancel()
            await asyncio.gather(write_task, return_exceptions=True)
            if not conn.alive:
                self._registry.inc("server.disconnects")
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self.connections_active -= 1
            self._connection_tasks.discard(task)

    def _track(self, conn: _Connection, delta: int) -> None:
        """Move ``delta`` schedule-request lines into (or out of) inflight."""
        conn.inflight += delta
        self.inflight += delta

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        inbound: "asyncio.Queue[Optional[_Item]]",
        conn: _Connection,
    ) -> None:
        """Socket lines → parsed bounded inbound queue; ``None`` sentinel on EOF."""
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
                request, control = _parse_line(text)
                if not control:
                    self._track(conn, 1)
                await inbound.put((request, control))
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
        inbound: "asyncio.Queue[Optional[_Item]]",
        outbound: "asyncio.Queue[Optional[str]]",
        conn: _Connection,
    ) -> None:
        """Gather request chunks, resolve them on the loop, enqueue responses."""
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
            self._registry.inc("server.requests_received", len(chunk))
            if not conn.alive:
                # Client is gone: drop the chunk instead of simulating.
                self._track(conn, -sum(not control for _, control in chunk))
                continue
            dispatch_start = time.perf_counter()
            out_lines = self._resolve_chunk(chunk)
            self._registry.observe(
                "server.dispatch_ms", (time.perf_counter() - dispatch_start) * 1000.0
            )
            for (_, control), line in zip(chunk, out_lines):
                await outbound.put(line)
                if not control:
                    self._track(conn, -1)

    def _resolve_chunk(self, chunk: List[_Item]) -> List[str]:
        """One response line per chunk item, in order; control requests in position.

        Each run of consecutive schedule requests is one atomic
        :meth:`ScheduleService.serve_chunk` call.
        """
        out_lines: List[str] = []
        for control, run in itertools.groupby(chunk, key=itemgetter(1)):
            requests = [request for request, _ in run]
            if control:
                responses = [
                    self.metrics_response(control_request_id(payload))
                    for payload in requests
                ]
            else:
                responses = self.service.serve_chunk(requests)
            out_lines.extend(response_line(response) for response in responses)
        return out_lines

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
                self._registry.inc("server.responses_sent")
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
    and returns the (closed) server so callers can read its final metrics.
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
