"""Persistent asyncio JSONL-over-TCP server — the long-lived transport.

The stdin/stdout loop of :mod:`repro.service.server` serves exactly one
client and dies with the pipe.  :class:`AsyncScheduleServer` serves the
same dispatcher over TCP: one shared
:class:`~repro.service.dispatcher.ScheduleService`, the identical JSONL
protocol (one request per line in, one canonical-JSON response per line
out) and **per-connection submission order**.

Each connection is one :class:`asyncio.BufferedProtocol`, and all of its
work runs in its callbacks on the event-loop thread:

* every read lands in the connection's one receive buffer, and
  ``data_received`` splits out the complete lines and parses each one
  once (``json.loads``) to tell control requests from schedule requests.
  A plain protocol would get a fresh 256 KiB ``bytes`` per read, which
  glibc maps and unmaps (page faults included) unless some earlier free
  happened to raise its mmap threshold;
* a *step* resolves at most one chunk (the service batch size) of queued
  lines through :meth:`~repro.service.dispatcher.ScheduleService.serve_chunk`
  — a JSON object goes on parsed, any other line as its text, so a
  malformed line gets the dispatcher's usual error response — and writes
  the chunk's response lines with one ``transport.write``.  Further lines
  wait for the next step (``loop.call_soon``), so connections take turns
  chunk by chunk: a request on another connection waits for at most one
  chunk.  The compute is pure Python under the GIL, so a worker thread
  would add hand-offs and no parallelism; processes parallelise one tier
  up, in ``repro serve --shards``;
* backpressure is the transport's own flow control: ``pause_writing``
  (write buffer above its high-water mark) stops resolving and reading
  until ``resume_writing``, and reading also pauses while more than one
  chunk of lines is queued.  TCP then pushes back on that client — never
  on another connection, and never into an unbounded buffer.

``{"type": "metrics"}`` control requests (see
:func:`repro.service.schema.is_control_request`) are answered by the
server itself, in stream position, with the shard's observability
payload: shard identity, uptime and the snapshot of the metric registry
the server shares with its dispatcher and cache.

Determinism contract: a connection's response stream is byte-identical to
what :func:`repro.service.server.serve_lines` writes for the same request
lines, whatever the shard count, batch size or number of concurrent
connections (``tests/test_async_server.py`` asserts the bytes).

A client's EOF (half-close) still gets every response before the server
closes its side.  A SIGTERM/SIGINT (see :func:`run_server`) triggers a
**graceful drain**: the listener closes, connections stop reading, the
complete lines already received resolve and flush (connections still open
after :data:`_DRAIN_TIMEOUT_S` are aborted), then the process exits.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import socket
import time
from collections import deque
from operator import itemgetter
from typing import Any, Deque, Dict, List, Optional, TextIO, Tuple

from .dispatcher import ScheduleService
from .observability import TELEMETRY_SCHEMA_VERSION
from .schema import SCHEMA_VERSION, control_request_id, is_control_request
from .server import response_line

__all__ = [
    "AsyncScheduleServer",
    "parse_address",
    "run_server",
]

#: Request lines beyond 1 MiB are a protocol violation and close the
#: connection (after the lines before them are answered).
_LINE_LIMIT = 1 << 20

#: Size of each connection's receive buffer, the most one read returns.
_READ_SIZE = 64 * 1024

#: Seconds a graceful drain waits for open connections to flush before
#: aborting them.
_DRAIN_TIMEOUT_S = 10.0

#: One parsed request line: ``(request, is_control)``.  ``request`` is the
#: parsed object of a JSON-object line, else the line's raw text.
_Item = Tuple[Any, bool]


def _parse_line(text: str) -> _Item:
    """Parse one request line, once, into a :data:`_Item`.

    A JSON object travels on parsed (``ScheduleService.serve_chunk``
    accepts mappings); any other line travels on as its text, so the
    dispatcher builds the same error response it builds for the raw line.
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


class _Connection(asyncio.BufferedProtocol):
    """One client connection: complete lines in, one resolved chunk per step out."""

    def __init__(self, server: "AsyncScheduleServer") -> None:
        self.server = server
        self.chunk_size = server.service.batch_size
        self.transport: Any = None
        self.loop = asyncio.get_running_loop()
        #: Done once the connection is gone (what a graceful drain awaits).
        self.closed: "asyncio.Future[None]" = self.loop.create_future()
        #: The bytes after the last newline received: an incomplete line.
        self.partial = bytearray()
        #: Complete lines not yet resolved, each with its arrival time.
        self.pending: Deque[Tuple[_Item, float]] = deque()
        #: No further lines are read: client EOF, oversized line or drain.
        self.input_done = False
        #: Inside a line over :data:`_LINE_LIMIT`, reading on to its end.
        self.oversized = False
        self.writing_paused = False
        self.step_due = False
        #: The receive buffer every read of this connection reuses.
        self.buffer = memoryview(bytearray(_READ_SIZE))

    def connection_made(self, transport: Any) -> None:
        """Register the connection and apply the per-connection buffer bound."""
        self.transport = transport
        server = self.server
        server._connections.add(self)
        server._registry.inc("server.connections_total")
        server.connections_active += 1
        if server.per_connection_sndbuf is not None:
            sock = transport.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, server.per_connection_sndbuf
                )
            # Cap the user-space transport buffer too — otherwise asyncio
            # absorbs ~64 KiB before pause_writing and the kernel bound
            # alone is unobservable.
            transport.set_write_buffer_limits(high=server.per_connection_sndbuf)
        if server._draining:
            self.end_input()

    def get_buffer(self, sizehint: int) -> memoryview:
        """The receive buffer the transport reads into."""
        return self.buffer

    def buffer_updated(self, nbytes: int) -> None:
        """Hand the ``nbytes`` just read to :meth:`data_received`."""
        self.data_received(self.buffer[:nbytes].tobytes())

    def data_received(self, data: bytes) -> None:
        """Queue every complete line of ``data``, then resolve a chunk."""
        if self.input_done:
            return
        if self.oversized:
            # Read the over-long line to its end before closing, so the
            # client sees a close rather than a reset.
            if b"\n" in data:
                self.end_input()
            return
        end = data.rfind(b"\n") + 1
        if end:
            block = bytes(self.partial) + data[:end] if self.partial else data[:end]
            self.partial = bytearray(data[end:])
            received_at = time.perf_counter()
            for raw in block.split(b"\n")[:-1]:
                if len(raw) > _LINE_LIMIT:
                    self.end_input()
                    return
                self._queue(raw.decode("utf-8", errors="replace") + "\n", received_at)
        else:
            self.partial += data
        if len(self.partial) > _LINE_LIMIT:
            self.partial = bytearray()
            self.oversized = True
        if self.step_due:
            self._flow()
        else:
            self._step()

    def eof_received(self) -> bool:
        """Client half-close: answer everything, the unterminated last line too.

        Returns ``True`` so the transport stays open for the responses.
        """
        if self.partial:
            self._queue(self.partial.decode("utf-8", errors="replace"), time.perf_counter())
        self.partial = bytearray()
        self.input_done = True
        self._schedule()
        return True

    def pause_writing(self) -> None:
        """Write buffer above its high-water mark: stop resolving and reading."""
        self.writing_paused = True
        self._flow()

    def resume_writing(self) -> None:
        """Write buffer below its low-water mark: resolve and read again."""
        self.writing_paused = False
        self._flow()
        self._schedule()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """Drop the unresolved lines and deregister the connection."""
        server = self.server
        if exc is not None:  # reset or failed write: the client vanished
            server._registry.inc("server.disconnects")
        server.inflight -= sum(not control for (_, control), _ in self.pending)
        self.pending.clear()
        server.connections_active -= 1
        server._connections.discard(self)
        self.closed.set_result(None)

    def end_input(self) -> None:
        """Read no more lines; answer the ones already received, then close."""
        if not self.input_done:
            self.input_done = True
            self.partial = bytearray()
            self.transport.pause_reading()
            self._schedule()

    def _queue(self, text: str, received_at: float) -> None:
        if text.strip():
            item = _parse_line(text)
            if not item[1]:
                self.server.inflight += 1
            self.pending.append((item, received_at))

    def _schedule(self) -> None:
        if not self.step_due:
            self.step_due = True
            self.loop.call_soon(self._step)

    def _step(self) -> None:
        """Resolve and write at most one chunk of queued lines; schedule the rest."""
        self.step_due = False
        transport, pending = self.transport, self.pending
        if self.writing_paused or transport.is_closing():
            return
        if pending:
            count = min(len(pending), self.chunk_size)
            self.server._serve(transport, [pending.popleft() for _ in range(count)])
        if pending:
            self._schedule()
        elif self.input_done:
            transport.close()  # after flushing the write buffer
        self._flow()

    def _flow(self) -> None:
        """Read while writing flows and at most one chunk of lines is queued."""
        if self.input_done:
            return  # reading is over for good (resuming after EOF would re-read it)
        if self.writing_paused or len(self.pending) > self.chunk_size:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()


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
    per_connection_sndbuf:
        Optional send-side buffer bound applied to every accepted socket:
        both the kernel ``SO_SNDBUF`` and the asyncio transport's
        write-buffer high-water mark.  Mainly for backpressure tests, which
        need small buffers to observe flow control without megabytes of
        traffic.
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
        per_connection_sndbuf: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.shard_restarts = shard_restarts
        self.per_connection_sndbuf = per_connection_sndbuf
        #: Connections currently open.
        self.connections_active = 0
        #: Complete schedule-request lines received but not yet resolved
        #: (control requests are not counted).
        self.inflight = 0
        # Server counters and spans land in the service's registry so one
        # metrics scrape covers transport, dispatcher and cache alike.
        registry = self._registry = service.registry
        registry.bind_gauge(
            "server.connections_active", lambda: self.connections_active
        )
        registry.bind_gauge("server.inflight", lambda: self.inflight)
        registry.set_gauge("server.restarts", shard_restarts)
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_monotonic: Optional[float] = None
        self._draining = False
        self._connections: "set[_Connection]" = set()

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
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

        Connections stop reading (no further request lines are accepted),
        but the complete lines already received still resolve and their
        responses are flushed, bounded by :data:`_DRAIN_TIMEOUT_S`; stragglers are
        aborted.  Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        for conn in connections:
            conn.end_input()
        if connections:
            await asyncio.wait(
                [conn.closed for conn in connections], timeout=_DRAIN_TIMEOUT_S
            )
            for conn in connections:
                if not conn.closed.done():
                    conn.transport.abort()
            await asyncio.gather(*(conn.closed for conn in connections))
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
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

        One atomic snapshot of the registry the server shares with its
        dispatcher and cache, plus the shard's identity and uptime.  Every
        name in :data:`repro.service.observability.METRIC_CATALOG` is
        present in every payload because the registry pre-declares them.
        """
        snapshot = self.service.registry.snapshot()
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "uptime_s": round(self.uptime, 6),
            "shard": {
                "index": self.shard_index,
                "count": self.shard_count,
                "restarts": self.shard_restarts,
            },
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }

    def metrics_response(self, request_id: Optional[str]) -> Dict[str, Any]:
        """One full metrics response (canonical-JSON encodable)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "type": "metrics",
            "id": request_id,
            "metrics": self.metrics_payload(),
        }

    # -- chunk resolution ---------------------------------------------------
    def _serve(self, transport: Any, received: List[Tuple[_Item, float]]) -> None:
        """Resolve one chunk of a connection's lines and write its responses."""
        registry = self._registry
        chunk = [item for item, _ in received]
        start = time.perf_counter()
        registry.inc("server.requests_received", len(chunk))
        schedule_lines = 0
        for (_, control), received_at in received:
            if not control:
                schedule_lines += 1
                registry.observe("server.read_ms", (start - received_at) * 1000.0)
        out_lines = self._resolve_chunk(chunk)
        self.inflight -= schedule_lines
        write_start = time.perf_counter()
        registry.observe("server.dispatch_ms", (write_start - start) * 1000.0)
        transport.write(("\n".join(out_lines) + "\n").encode("utf-8"))
        write_ms = (time.perf_counter() - write_start) * 1000.0
        registry.inc("server.responses_sent", len(out_lines))
        for _ in out_lines:
            registry.observe("server.write_ms", write_ms)

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


async def run_server(
    service: ScheduleService,
    host: str,
    port: int,
    *,
    shard_index: int = 0,
    shard_count: int = 1,
    shard_restarts: int = 0,
    err: Optional[TextIO] = None,
) -> AsyncScheduleServer:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

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
    stop = asyncio.Event()
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

