"""Tests for the persistent asyncio server (:mod:`repro.service.async_server`).

The load-bearing assertion is the **determinism contract**: whatever the
shard count, batch size or number of concurrent connections, every
client's response stream is byte-identical to what the serial
:func:`repro.service.server.serve_lines` loop writes for the same request
lines.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest

from repro.service.async_server import AsyncScheduleServer, parse_address
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.schema import metrics_request
from repro.service.server import response_line, serve_lines
from repro.service.sharding import ShardedClient


def request_line(seed=0, tasks=8, **extra):
    """One JSONL-encoded request (small enough for high-volume tests)."""
    payload = {
        "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
        "tasks": tasks,
        "scheduler": "LS",
        "seed": seed,
    }
    payload.update(extra)
    return json.dumps(payload)


def mixed_stream(n=24):
    """Duplicates + distinct configs + invalid lines, id-stamped.

    The invalid lines cover malformed JSON, every non-object JSON value, an
    object with an unknown field and the retired ``{"type": "stats"}``
    control request: the server parses each line once and hands objects on
    parsed, everything else as text.
    """
    lines = [request_line(seed=index % 5, id=f"r{index}") for index in range(n)]
    lines.insert(n // 2, "{not json")
    lines[3:3] = ["null", "[1, 2]", '"text"', "42"]
    lines.insert(n // 3, request_line(seed=1, id="unknown-field", colour="blue"))
    lines.insert(n // 4, json.dumps({"type": "stats", "id": "old-health"}))
    return lines


def make_service():
    """One dispatcher configured the way the determinism tests share it."""
    return ScheduleService(batch_size=4, cache=LRUResultCache(max_entries=64))


def serial_baseline(lines):
    """The stdin/stdout loop's byte output for ``lines`` — the reference."""
    out = io.StringIO()
    with make_service() as service:
        serve_lines(iter(lines), service, out)
    return out.getvalue()


def serve_concurrently(lines, n_clients, n_shards, client_shards=None):
    """Boot ``n_shards`` in-process servers, stream from ``n_clients``.

    Every client streams the *same* request file through a
    :class:`ShardedClient` over the first ``client_shards`` server
    addresses (all of them by default); returns one joined
    response-stream string per client, directly comparable to
    :func:`serial_baseline`.
    """

    async def one_client(addresses):
        async with ShardedClient(addresses) as client:
            return await client.stream(lines)

    async def go():
        servers = []
        for index in range(n_shards):
            server = AsyncScheduleServer(
                make_service(), shard_index=index, shard_count=n_shards
            )
            await server.start()
            servers.append(server)
        addresses = [server.address for server in servers][:client_shards]
        try:
            return await asyncio.gather(
                *(one_client(addresses) for _ in range(n_clients))
            )
        finally:
            for server in servers:
                await server.close()

    streams = asyncio.run(go())
    return ["".join(line + "\n" for line in stream) for stream in streams]


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7000") == ("127.0.0.1", 7000)

    @pytest.mark.parametrize(
        "text", ["localhost", ":7000", "host:notaport", "host:70000", "host:-1"]
    )
    def test_rejects_malformed_addresses(self, text):
        with pytest.raises(ValueError):
            parse_address(text)


class TestConcurrentDeterminism:
    """Satellite 1: M concurrent clients, shards 1 vs 3, byte-identity."""

    def test_concurrent_clients_match_serial_single_shard(self):
        lines = mixed_stream()
        baseline = serial_baseline(lines)
        for stream in serve_concurrently(lines, n_clients=4, n_shards=1):
            assert stream == baseline

    def test_concurrent_clients_match_serial_three_shards(self):
        lines = mixed_stream()
        baseline = serial_baseline(lines)
        for stream in serve_concurrently(lines, n_clients=4, n_shards=3):
            assert stream == baseline

    @pytest.mark.parametrize("client_shards", [1, 2])
    def test_client_over_fewer_shards_than_the_servers_matches_serial(
        self, client_shards
    ):
        """A client over fewer shards than the servers still matches serial.

        Its keys land on shards that do not own them; every shard computes
        what it is sent, so the answers stay byte-identical.
        """
        lines = mixed_stream()
        baseline = serial_baseline(lines)
        for stream in serve_concurrently(
            lines, n_clients=2, n_shards=3, client_shards=client_shards
        ):
            assert stream == baseline

    def test_sharded_and_unsharded_streams_are_identical(self):
        lines = mixed_stream()
        one = serve_concurrently(lines, n_clients=2, n_shards=1)
        three = serve_concurrently(lines, n_clients=2, n_shards=3)
        assert set(one) == set(three) and len(set(one)) == 1


class TestSingleConnection:
    """Raw-socket behaviour: ordering, metrics-in-position, counters."""

    @staticmethod
    def run_raw(server_kwargs, lines):
        """One raw TCP client: send all lines, read one response each."""

        async def go():
            service = make_service()
            async with AsyncScheduleServer(service, **server_kwargs) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                for line in lines:
                    writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                responses = [
                    (await reader.readline()).decode("utf-8").rstrip("\n")
                    for _ in lines
                ]
                writer.close()
                await writer.wait_closed()
                return server, responses

        return asyncio.run(go())

    def test_responses_in_submission_order(self):
        lines = [request_line(seed=s, id=f"r{s}") for s in range(6)]
        server, responses = self.run_raw({}, lines)
        assert [json.loads(r)["id"] for r in responses] == [f"r{s}" for s in range(6)]
        registry = server.service.registry
        assert registry.counter("server.requests_received") == 6
        assert registry.counter("server.responses_sent") == 6
        assert registry.counter("server.connections_total") == 1
        assert server.connections_active == 0
        assert registry.gauge("server.connections_active") == 0

    def test_metrics_request_is_answered_in_stream_position(self):
        lines = [
            request_line(seed=1, id="before"),
            json.dumps(metrics_request("health-1")),
            request_line(seed=2, id="after"),
        ]
        server, responses = self.run_raw(
            {"shard_index": 1, "shard_count": 3}, lines
        )
        before, scrape, after = (json.loads(r) for r in responses)
        assert before["id"] == "before" and after["id"] == "after"
        assert scrape["type"] == "metrics" and scrape["id"] == "health-1"
        assert scrape["status"] == "ok"
        payload = scrape["metrics"]
        assert payload["shard"] == {"index": 1, "count": 3, "restarts": 0}
        assert payload["uptime_s"] > 0
        assert payload["counters"]["service.rejected"] == 0
        assert payload["counters"]["server.requests_received"] >= 1
        assert payload["counters"]["service.ok"] >= 1
        assert payload["gauges"]["cache.size"] >= 1
        assert payload["gauges"]["server.connections_active"] == 1

    def test_retired_stats_request_is_request_invalid_in_stream_position(self):
        lines = [
            request_line(seed=1, id="before"),
            json.dumps({"type": "stats", "id": "old-health"}),
            request_line(seed=2, id="after"),
        ]
        server, responses = self.run_raw({}, lines)
        before, stats, after = (json.loads(r) for r in responses)
        assert before["status"] == after["status"] == "ok"
        assert stats["status"] == "error" and stats["id"] == "old-health"
        assert stats["error"]["type"] == "request-invalid"
        assert server.service.registry.counter("service.invalid") == 1

    def test_metrics_response_is_canonical_jsonl(self):
        _, responses = self.run_raw({}, [json.dumps(metrics_request())])
        (line,) = responses
        assert line == response_line(json.loads(line))

    def test_oversized_line_closes_the_connection_without_crashing(self):
        async def go():
            async with AsyncScheduleServer(make_service()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"x" * (2 << 20) + b"\n")
                await writer.drain()
                assert await reader.read() == b""  # server closed its side
                writer.close()
                await writer.wait_closed()
                # and keeps serving new connections afterwards
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(request_line(id="ok").encode("utf-8") + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response

        assert asyncio.run(go())["id"] == "ok"


class TestProtocolCallbacks:
    """Half-close and the one-chunk turn each connection takes."""

    def test_half_closed_client_still_gets_every_response(self):
        lines = mixed_stream()
        baseline = serial_baseline(lines)

        async def go():
            async with AsyncScheduleServer(make_service()) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
                writer.write_eof()
                received = await reader.read()  # up to the server's close
                writer.close()
                await writer.wait_closed()
                return received.decode("utf-8")

        assert asyncio.run(go()) == baseline

    def test_unterminated_last_line_is_answered_at_eof(self):
        lines = [request_line(seed=s, id=f"r{s}") for s in range(3)]

        async def go():
            async with AsyncScheduleServer(make_service()) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write("\n".join(lines).encode("utf-8"))
                writer.write_eof()
                received = await reader.read()
                writer.close()
                await writer.wait_closed()
                return received.decode("utf-8")

        assert asyncio.run(go()) == serial_baseline(lines)

    def test_other_connection_waits_for_at_most_one_chunk(self):
        # Connection A queues 64 lines (16 chunks at batch size 4); a
        # metrics request sent on B right after them is answered while
        # almost all of A's lines are still unresolved.
        lines = [request_line(seed=s % 4, id=f"a{s}") for s in range(64)]

        async def go():
            async with AsyncScheduleServer(make_service()) as server:
                reader_a, writer_a = await asyncio.open_connection(*server.address)
                reader_b, writer_b = await asyncio.open_connection(*server.address)
                while server.connections_active < 2:
                    await asyncio.sleep(0.01)
                writer_a.write("".join(line + "\n" for line in lines).encode("utf-8"))
                writer_b.write(json.dumps(metrics_request("b")).encode("utf-8") + b"\n")
                scrape = json.loads(await reader_b.readline())
                responses = [json.loads(await reader_a.readline()) for _ in lines]
                for writer in (writer_a, writer_b):
                    writer.close()
                    await writer.wait_closed()
                return scrape, responses

        scrape, responses = asyncio.run(go())
        assert [r["id"] for r in responses] == [f"a{s}" for s in range(64)]
        assert scrape["id"] == "b"
        # A's lines and B's request arrive together: B waits for at most
        # one of A's chunks (two, if A's first chunk was already written).
        assert scrape["metrics"]["counters"]["server.responses_sent"] <= 2 * 4


class TestOneThreadPerShard:
    """Chunks resolve on the event-loop thread; ``server.inflight`` counts lines."""

    @staticmethod
    def serve_recording(monkeypatch, lines, record):
        """Send ``lines`` in one write; ``record(server, raws)`` runs per chunk.

        Returns the inflight gauge once every response has been read, the
        event-loop thread's id and the response lines.
        """
        holder = []
        original = ScheduleService.serve_chunk

        def recording_serve_chunk(service, raws):
            raws = list(raws)
            record(holder[0], raws)
            return original(service, raws)

        monkeypatch.setattr(ScheduleService, "serve_chunk", recording_serve_chunk)

        async def go():
            async with AsyncScheduleServer(make_service()) as server:
                holder.append(server)
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
                await writer.drain()
                responses = [await reader.readline() for _ in lines]
                inflight_after = server.inflight
                writer.close()
                await writer.wait_closed()
                return inflight_after, threading.get_ident(), responses

        return asyncio.run(go())

    def test_chunks_resolve_on_the_event_loop_thread(self, monkeypatch):
        threads = []
        lines = [request_line(seed=s, id=f"r{s}") for s in range(8)]
        _, loop_thread, responses = self.serve_recording(
            monkeypatch, lines, lambda server, raws: threads.append(threading.get_ident())
        )
        assert len(responses) == len(lines)
        assert threads and set(threads) == {loop_thread}

    def test_inflight_counts_request_lines_until_their_responses_are_queued(
        self, monkeypatch
    ):
        seen = []
        lines = [request_line(seed=s, id=f"r{s}") for s in range(8)]
        inflight_after, _, responses = self.serve_recording(
            monkeypatch,
            lines,
            lambda server, raws: seen.append((server.inflight, len(raws))),
        )
        assert len(responses) == len(lines)
        assert len(seen) >= 2  # batch_size=4: the 8 lines span several chunks
        assert all(inflight >= size for inflight, size in seen), seen
        assert inflight_after == 0


class TestGracefulDrain:
    def test_close_flushes_already_read_requests(self):
        # Requests the server has read before close() must still resolve
        # and flush — the drain contract of SIGTERM.
        async def go():
            service = make_service()
            server = AsyncScheduleServer(service)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            lines = [request_line(seed=s, id=f"r{s}") for s in range(4)]
            for line in lines:
                writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
            await asyncio.sleep(0.2)  # let the server ingest the lines
            await server.close()
            received = (await reader.read()).decode("utf-8").splitlines()
            writer.close()
            await writer.wait_closed()
            return received

        responses = asyncio.run(go())
        assert [json.loads(r)["id"] for r in responses] == [f"r{s}" for s in range(4)]

    def test_close_is_idempotent(self):
        async def go():
            server = AsyncScheduleServer(make_service())
            await server.start()
            await server.close()
            await server.close()

        asyncio.run(go())
