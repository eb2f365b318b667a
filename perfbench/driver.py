"""Open-loop load over at most two TCP connections.

Requests are written at their *due* times whatever the server is doing
(independent users), alternating between the connections; responses come
back in per-connection order, so each is matched to its request by FIFO.
Latency is timed from the due time, so a stall is also charged to every
request queued behind it, and the generator's own lateness is recorded.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: Connections the generator spreads its requests over.
CONNECTIONS = 2
#: Lead time between building a phase and its first due time.
LEAD_S = 0.05
#: How long a phase may take to drain after its last due time.
DRAIN_TIMEOUT_S = 15.0
_LINE_LIMIT = 1 << 24


@dataclass
class PhaseResult:
    """Raw per-request timings of one open-loop phase."""

    due: List[float]
    sent: List[float]
    received: List[Optional[float]]
    responses: List[Optional[str]]
    dropped: int = 0


@dataclass
class _Connection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    waiting: Deque["asyncio.Future[Tuple[float, str]]"] = field(default_factory=deque)
    closed: bool = False


async def _spin_until(condition: Callable[[], bool]) -> None:
    """Yield to the event loop until ``condition()`` holds, never letting it sleep."""
    while not condition():
        await asyncio.sleep(0)


class OpenLoopClient:
    """The load generator's connections to one server.

    With ``spin`` the generator never lets its event loop sleep during a
    phase.  A sleeping generator lets its virtual CPU halt, and waking a
    halted virtual CPU on a busy host takes milliseconds: sends would go
    out late and responses would be time-stamped late.  A server hosted
    in the generator's own process needs the interpreter lock whenever
    the generator would spin, so it is driven without.
    """

    def __init__(self, spin: bool = True) -> None:
        self.spin = spin
        self._conns: List[_Connection] = []
        self._readers: List[asyncio.Task] = []

    async def connect(self, host: str, port: int) -> None:
        """Open the connections and start one response reader per connection."""
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
            conn = _Connection(reader, writer)
            self._conns.append(conn)
            self._readers.append(asyncio.create_task(self._read(conn)))

    async def _read(self, conn: _Connection) -> None:
        try:
            while True:
                line = await conn.reader.readline()
                now = time.perf_counter()
                if not line:
                    break
                if not conn.waiting:
                    raise RuntimeError("response without a request")
                future = conn.waiting.popleft()
                if not future.done():
                    future.set_result((now, line.decode().rstrip("\n")))
        finally:
            conn.closed = True
            while conn.waiting:
                future = conn.waiting.popleft()
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    def _send(self, index: int, line: bytes) -> "asyncio.Future[Tuple[float, str]]":
        conn = self._conns[index % len(self._conns)]
        future: "asyncio.Future[Tuple[float, str]]" = asyncio.get_running_loop().create_future()
        if conn.closed:
            future.set_exception(ConnectionError("connection closed"))
            return future
        conn.waiting.append(future)
        conn.writer.write(line)
        return future

    async def control(self, payload: Dict) -> Dict:
        """One control request (e.g. a metrics scrape) on the first connection."""
        future = self._send(0, (json.dumps(payload) + "\n").encode())
        await self._conns[0].writer.drain()
        _, line = await asyncio.wait_for(future, timeout=DRAIN_TIMEOUT_S)
        return json.loads(line)

    async def run_phase(self, due: List[float], lines: List[str]) -> PhaseResult:
        """Send ``lines[i]`` at ``start + due[i]``; wait for every response."""
        payloads = [(line + "\n").encode() for line in lines]
        n = len(payloads)
        result = PhaseResult(due=[0.0] * n, sent=[0.0] * n, received=[None] * n, responses=[None] * n)
        futures: List["asyncio.Future[Tuple[float, str]]"] = []
        start = time.perf_counter() + LEAD_S
        for index, (offset, payload) in enumerate(zip(due, payloads)):
            target = start + offset
            if self.spin:
                await _spin_until(lambda: time.perf_counter() >= target)
            elif target > time.perf_counter():
                await asyncio.sleep(target - time.perf_counter())
            result.due[index] = target
            result.sent[index] = time.perf_counter()
            futures.append(self._send(index, payload))
        for conn in self._conns:
            if not conn.closed:
                await conn.writer.drain()
        deadline = start + (due[-1] if due else 0.0) + DRAIN_TIMEOUT_S
        if self.spin:
            await _spin_until(lambda: all(f.done() for f in futures) or time.perf_counter() >= deadline)
        elif futures:
            await asyncio.wait(futures, timeout=max(0.0, deadline - time.perf_counter()))
        for index, future in enumerate(futures):
            if future.done() and future.exception() is None:
                result.received[index], result.responses[index] = future.result()
            elif future.done():
                result.dropped += 1
            else:
                future.cancel()  # its late response is skipped, keeping the FIFO aligned
        return result

    async def close(self) -> None:
        """Close the connections and wait for the reader tasks to end."""
        for conn in self._conns:
            conn.writer.close()
        for conn in self._conns:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        self._conns, self._readers = [], []
