"""Fault-injection tests for the persistent server and the shard router.

Three failure modes the service must absorb without corrupting anyone
else's stream:

* a client that disconnects mid-stream (the server must reap the
  connection, leak no inflight work, and keep serving other clients);
* a shard process killed mid-batch (the router must synthesize typed
  ``shard-unavailable`` responses for that shard's requests while healthy
  shards keep serving);
* a slow-reading client (the transport's bounded write buffer plus TCP
  flow control must stall *that connection's* pipeline — bounded memory — and the
  stream must still complete byte-identically once the client reads).
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

from repro.service.async_server import AsyncScheduleServer
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.server import serve_lines
from repro.service.sharding import ShardedClient, shard_for_line

REPO_ROOT = Path(__file__).resolve().parent.parent


def request_line(seed=0, tasks=8, **extra):
    """One JSONL-encoded request."""
    payload = {
        "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
        "tasks": tasks,
        "scheduler": "LS",
        "seed": seed,
    }
    payload.update(extra)
    return json.dumps(payload)


async def wait_until(predicate, timeout=10.0, interval=0.05):
    """Poll ``predicate`` until true or ``timeout`` seconds pass."""
    waited = 0.0
    while not predicate():
        if waited >= timeout:
            return False
        await asyncio.sleep(interval)
        waited += interval
    return True


class TestClientDisconnect:
    def test_disconnect_mid_stream_leaks_nothing_and_spares_others(self):
        lines = [request_line(seed=s % 4, id=f"r{s}") for s in range(30)]
        baseline = io.StringIO()
        with ScheduleService(batch_size=4, cache=LRUResultCache(max_entries=64)) as ref:
            serve_lines(iter(lines), ref, baseline)

        async def go():
            service = ScheduleService(
                batch_size=4, cache=LRUResultCache(max_entries=64)
            )
            async with AsyncScheduleServer(service) as server:
                host, port = server.address
                # Client A: send everything, read two responses, then vanish
                # abruptly (abort = RST, not a graceful FIN).
                reader, writer = await asyncio.open_connection(host, port)
                for line in lines:
                    writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                await reader.readline()
                await reader.readline()
                writer.transport.abort()

                # The server must reap the connection and settle: no open
                # connection, no inflight chunk left behind.
                assert await wait_until(
                    lambda: server.connections_active == 0
                ), "server never reaped the aborted connection"
                assert server.inflight == 0
                assert service.registry.counter("server.disconnects") == 1

                # Client B on the same server still gets the full,
                # byte-identical stream.
                async with ShardedClient([server.address]) as client:
                    responses = await client.stream(lines)
                return "".join(response + "\n" for response in responses)

        assert asyncio.run(go()) == baseline.getvalue()


class TestShardDeath:
    @staticmethod
    def spawn_shard():
        """Boot one ``repro serve --listen`` subprocess on an ephemeral port."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--quiet",
            ],
            cwd=REPO_ROOT,
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        # run_server prints "listening on HOST:PORT (...)" once bound.
        line = process.stderr.readline()
        assert line.startswith("listening on "), f"unexpected banner: {line!r}"
        address = line.split()[2]
        host, port_text = address.rsplit(":", 1)
        return process, (host, int(port_text))

    def test_killed_shard_yields_typed_errors_healthy_shard_keeps_serving(self):
        processes, addresses = [], []
        try:
            for _ in range(2):
                process, address = self.spawn_shard()
                processes.append(process)
                addresses.append(address)

            lines = [request_line(seed=s, id=f"r{s}") for s in range(24)]
            routed = [shard_for_line(line, 2) for line in lines]
            assert set(routed) == {0, 1}  # the sample exercises both shards

            async def go():
                async with ShardedClient(addresses) as client:
                    first = await client.stream(lines)
                    # Kill shard 1 between batches — no graceful anything.
                    processes[1].kill()
                    processes[1].wait()
                    second = await client.stream(lines)
                    assert client.live_shards == [0]
                    return first, second

            first, second = asyncio.run(go())
            # Before the kill: every request answered ok, in order.
            assert [json.loads(r)["id"] for r in first] == [f"r{s}" for s in range(24)]
            assert all(json.loads(r)["status"] == "ok" for r in first)
            # After the kill: still one response per request, in order;
            # dead-shard requests carry the typed error, healthy-shard
            # requests are byte-identical to the first pass.
            assert len(second) == len(lines)
            for index, (response_text, shard) in enumerate(zip(second, routed)):
                response = json.loads(response_text)
                assert response["id"] == f"r{index}"
                if shard == 1:
                    assert response["status"] == "error"
                    assert response["error"]["type"] == "shard-unavailable"
                else:
                    assert response_text == first[index]
        finally:
            for process in processes:
                if process.poll() is None:
                    process.terminate()
                    process.wait()
                process.stderr.close()

    def test_mid_batch_kill_still_resolves_every_request(self):
        process, address = self.spawn_shard()
        try:
            lines = [request_line(seed=s, tasks=40, id=f"r{s}") for s in range(40)]

            async def go():
                async with ShardedClient([address], max_inflight=64) as client:
                    futures = [await client.submit(line) for line in lines]
                    process.kill()  # mid-batch: many requests are in flight
                    process.wait()
                    return [await future for future in futures]

            responses = [json.loads(r) for r in asyncio.run(go())]
            # One response per request, each either a real result (raced
            # ahead of the kill) or the typed unavailable error — never a
            # hang, never a missing or duplicated id.
            assert [r["id"] for r in responses] == [f"r{s}" for s in range(40)]
            for response in responses:
                assert response["status"] in ("ok", "error")
                if response["status"] == "error":
                    assert response["error"]["type"] == "shard-unavailable"
        finally:
            if process.poll() is None:
                process.terminate()
                process.wait()
            process.stderr.close()


class TestSlowReaderBackpressure:
    def test_bounded_queue_stalls_producer_then_stream_completes(self):
        n_requests = 400
        lines = [request_line(seed=s % 4, id=f"r{s}") for s in range(n_requests)]
        baseline = io.StringIO()
        with ScheduleService(batch_size=4, cache=LRUResultCache(max_entries=64)) as ref:
            serve_lines(iter(lines), ref, baseline)

        async def go():
            service = ScheduleService(
                batch_size=4, cache=LRUResultCache(max_entries=64)
            )
            # Tiny kernel buffers + a tiny transport write buffer (its
            # high-water mark): the ~100 KiB of responses cannot fit
            # anywhere until the client reads.
            async with AsyncScheduleServer(
                service, per_connection_sndbuf=2048
            ) as server:
                host, port = server.address
                raw_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                raw_socket.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
                raw_socket.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    raw_socket, (host, port)
                )
                # A small StreamReader limit makes the client a *genuinely*
                # slow reader: its transport pauses reading at ~2 KiB
                # buffered instead of eagerly draining the socket into a
                # 128 KiB user-space buffer.
                reader, writer = await asyncio.open_connection(
                    sock=raw_socket, limit=1024
                )
                for line in lines:
                    writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()

                # Without anyone reading, the write pipeline must wedge at a
                # stable level strictly below the full stream: write-buffer
                # bound + kernel buffers, not an unbounded backlog.
                def responses_sent():
                    return service.registry.counter("server.responses_sent")

                previous = -1
                while responses_sent() != previous:
                    previous = responses_sent()
                    await asyncio.sleep(0.3)
                stalled_at = responses_sent()
                assert stalled_at < n_requests

                # The client finally reads: the stream completes, in order,
                # byte-identical to the serial baseline.
                received = [
                    (await reader.readline()).decode("utf-8")
                    for _ in range(n_requests)
                ]
                writer.close()
                await writer.wait_closed()
                return stalled_at, "".join(received)

        stalled_at, stream = asyncio.run(go())
        assert stream == baseline.getvalue()
        assert 0 < stalled_at < n_requests
