"""End-to-end tests for the service observability layer.

Drives real in-process TCP shards (no subprocesses, no fixed ports) and
pins the wire-visible contracts:

* trace-id propagation — a ``"trace": true`` request through a 2-shard
  server started with default settings comes back with its own id, the
  documented span structure, non-overlapping spans that tile
  ``total_ms``, and **no** trace on plain requests (byte-identity of the
  untraced stream);
* the metrics payload carries the pinned ``TELEMETRY_SCHEMA_VERSION``
  and exactly the documented metric names;
* ``docs/OBSERVABILITY.md``'s catalog tables match ``METRIC_CATALOG``;
* ``repro top`` renders one row per live shard.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.async_server import AsyncScheduleServer
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.observability import METRIC_CATALOG, TELEMETRY_SCHEMA_VERSION
from repro.service.server import serve_lines
from repro.service.sharding import ShardedClient

REPO_ROOT = Path(__file__).resolve().parent.parent

MISS_SPANS = ["queue_wait", "cache_lookup", "batch_assembly", "simulate", "serialize"]
HIT_SPANS = ["queue_wait", "cache_lookup", "serialize"]


def request_line(seed=0, tasks=8, **extra):
    """One servable JSONL request line."""
    payload = {
        "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
        "tasks": tasks,
        "scheduler": "LS",
        "seed": seed,
    }
    payload.update(extra)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def make_service():
    return ScheduleService(batch_size=4, cache=LRUResultCache(max_entries=64))


def assert_tiles(trace):
    """Spans are non-negative and sum to ``total_ms``."""
    span_sum = sum(span["ms"] for span in trace["spans"])
    assert abs(span_sum - trace["total_ms"]) <= 1e-6
    assert all(span["ms"] >= 0.0 for span in trace["spans"])


def run_sharded(lines, n_shards=2):
    """Stream ``lines`` through ``n_shards`` fresh in-process servers."""

    async def go():
        servers = []
        for index in range(n_shards):
            server = AsyncScheduleServer(
                make_service(), shard_index=index, shard_count=n_shards
            )
            await server.start()
            servers.append(server)
        try:
            async with ShardedClient([s.address for s in servers]) as client:
                return await client.stream(lines)
        finally:
            for server in servers:
                await server.close()

    return asyncio.run(go())


class TestTracePropagation:
    def test_trace_id_and_span_structure_through_two_shards(self):
        lines = [
            request_line(seed=index, id=f"req-{index:03d}", trace=True)
            for index in range(8)
        ]
        responses = [json.loads(line) for line in run_sharded(lines)]
        assert len(responses) == len(lines)
        for index, response in enumerate(responses):
            assert response["status"] == "ok"
            trace = response["trace"]
            assert trace["trace_id"] == f"req-{index:03d}"
            assert [span["name"] for span in trace["spans"]] == MISS_SPANS

    def test_spans_tile_total_ms_exactly(self):
        lines = [request_line(seed=7, id="req-tile", trace=True)]
        (response,) = [json.loads(line) for line in run_sharded(lines)]
        assert_tiles(response["trace"])

    def test_cache_hit_trace_skips_simulation_spans(self):
        lines = [
            request_line(seed=3, id="warm", trace=True),
            request_line(seed=3, id="hit", trace=True),
        ]

        async def go():
            server = AsyncScheduleServer(make_service())
            await server.start()
            try:
                async with ShardedClient([server.address]) as client:
                    first = await (await client.submit(lines[0]))
                    second = await (await client.submit(lines[1]))
                    return first, second
            finally:
                await server.close()

        first, second = asyncio.run(go())
        assert [s["name"] for s in json.loads(first)["trace"]["spans"]] == MISS_SPANS
        assert [s["name"] for s in json.loads(second)["trace"]["spans"]] == HIT_SPANS

    def test_no_opt_in_no_trace(self):
        (plain,) = [json.loads(line) for line in run_sharded([request_line()])]
        assert plain["status"] == "ok"
        assert "trace" not in plain

    def test_minted_trace_id_when_request_has_none(self):
        (response,) = [json.loads(line) for line in run_sharded([request_line(trace=True)])]
        assert re.fullmatch(r"[0-9a-f]{16}", response["trace"]["trace_id"])
        assert response["id"] is None

    def test_in_process_traced_request_carries_a_tiling_trace(self):
        service = ScheduleService(batch_size=1)
        (response,) = service.serve_chunk([request_line(id="local", trace=True)])
        assert response["trace"]["trace_id"] == "local"
        assert [span["name"] for span in response["trace"]["spans"]] == MISS_SPANS
        assert_tiles(response["trace"])

    def test_untraced_stream_is_byte_identical_to_baseline(self):
        lines = [request_line(seed=index, id=f"r{index}") for index in range(6)]
        out = io.StringIO()
        serve_lines(lines, ScheduleService(batch_size=1), out)
        assert run_sharded(lines) == out.getvalue().splitlines()


class TestTelemetrySchema:
    def _scrape(self):
        async def go():
            server = AsyncScheduleServer(make_service())
            await server.start()
            try:
                async with ShardedClient([server.address]) as client:
                    await client.stream([request_line(seed=index) for index in range(5)])
                    return await client.metrics("m-1")
            finally:
                await server.close()

        return asyncio.run(go())

    def test_metrics_pin_schema_version(self):
        metrics = self._scrape()
        assert TELEMETRY_SCHEMA_VERSION == 5  # cache.expirations went
        assert metrics[0]["metrics"]["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert metrics[0]["id"] == "m-1"

    def test_metrics_payload_lists_exactly_the_catalog(self):
        metrics = self._scrape()
        payload = metrics[0]["metrics"]
        assert tuple(sorted(payload["counters"])) == tuple(sorted(METRIC_CATALOG["counters"]))
        assert tuple(sorted(payload["gauges"])) == tuple(sorted(METRIC_CATALOG["gauges"]))
        assert tuple(sorted(payload["histograms"])) == tuple(
            sorted(METRIC_CATALOG["histograms"])
        )
        assert payload["shard"] == {"index": 0, "count": 1, "restarts": 0}
        counters, gauges = payload["counters"], payload["gauges"]
        assert counters["service.responded"] == 5
        assert counters["service.responded"] == (
            counters["service.ok"]
            + counters["service.invalid"]
            + counters["service.rejected"]
            + counters["service.failed"]
        )
        assert gauges["cache.size"] == 5
        assert gauges["cache.journal_entries"] == 0  # durability off
        assert gauges["server.connections_active"] == 1
        assert payload["histograms"]["service.request_ms"]["count"] == 5

    def test_client_section_annotates_each_scrape(self):
        metrics = self._scrape()
        client = metrics[0]["metrics"]["client"]
        assert client["breaker_state"] == "closed"
        assert client["request_ms"]["count"] >= 5


class TestCatalogDocsSync:
    """docs/OBSERVABILITY.md's metric tables must match METRIC_CATALOG."""

    DOC_PATH = REPO_ROOT / "docs" / "OBSERVABILITY.md"
    _SECTIONS = {"Counters": "counters", "Gauges": "gauges", "Histograms": "histograms"}

    def _documented(self):
        text = self.DOC_PATH.read_text(encoding="utf-8")
        documented = {}
        for heading, key in self._SECTIONS.items():
            match = re.search(rf"^### {heading}$(.*?)(?=^#|\Z)", text, re.M | re.S)
            assert match, f"docs/OBSERVABILITY.md lacks a '### {heading}' section"
            documented[key] = set(
                re.findall(r"^\| `([a-z_.]+)` \|", match.group(1), re.M)
            )
        return documented

    def test_doc_tables_match_catalog_exactly(self):
        documented = self._documented()
        for key, names in documented.items():
            catalog = set(METRIC_CATALOG[key])
            assert names == catalog, (
                f"{key}: undocumented {sorted(catalog - names)}; "
                f"stale docs {sorted(names - catalog)}"
            )


class TestTopCommand:
    def test_top_renders_a_table_over_a_live_shard(self, capsys):
        # `repro top --shards N` assumes consecutive ports, but in-process
        # test servers bind ephemeral ones — so drive a single shard; the
        # scrape, delta and render paths are identical for any count.
        ready = threading.Event()
        done = threading.Event()
        state = {}

        def serve():
            async def go():
                server = AsyncScheduleServer(make_service())
                await server.start()
                async with ShardedClient([server.address]) as client:
                    await client.stream([request_line(seed=index) for index in range(4)])
                state["address"] = server.address
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.02)
                await server.close()

            asyncio.run(go())

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            assert ready.wait(timeout=10.0)
            host, port = state["address"]
            code = main(
                [
                    "top",
                    "--connect",
                    f"{host}:{port}",
                    "--iterations",
                    "2",
                    "--interval",
                    "0.05",
                    "--timeout",
                    "5",
                    "--no-clear",
                ]
            )
        finally:
            done.set()
            thread.join(timeout=10.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "shard" in out and "p99ms" in out
        assert re.search(r"^\s*0\b", out, re.M), out

    def test_top_requires_connect(self, capsys):
        with pytest.raises(SystemExit):
            main(["top"])
