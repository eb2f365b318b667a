"""End-to-end tests for the service observability layer.

Drives real in-process TCP shards (no subprocesses, no fixed ports) and
pins the wire-visible contracts:

* trace-id propagation — a ``"trace": true`` request through a 2-shard
  server comes back with its own id, the documented span structure,
  non-overlapping spans that tile ``total_ms``, and **no** trace on
  plain requests (byte-identity of the untraced stream);
* the slow-request event log fires strictly by threshold and rotates;
* the stats and metrics payloads carry the pinned
  ``TELEMETRY_SCHEMA_VERSION`` and exactly the documented metric names;
* ``docs/OBSERVABILITY.md``'s catalog tables match ``METRIC_CATALOG``;
* ``repro top`` renders one row per live shard.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.async_server import AsyncScheduleServer
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.observability import (
    METRIC_CATALOG,
    TELEMETRY_SCHEMA_VERSION,
    EventLog,
    Observability,
)
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


def make_service(**obs_kwargs):
    observability = Observability(**obs_kwargs)
    cache = LRUResultCache(max_entries=64, registry=observability.registry)
    return ScheduleService(
        batch_size=4,
        max_queue=64,
        cache=cache,
        observability=observability,
    )


def run_sharded(lines, n_shards=2, **obs_kwargs):
    """Stream ``lines`` through ``n_shards`` fresh in-process servers."""

    async def go():
        servers = []
        for index in range(n_shards):
            server = AsyncScheduleServer(
                make_service(**obs_kwargs), shard_index=index, shard_count=n_shards
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
        responses = [json.loads(line) for line in run_sharded(lines, trace=True)]
        assert len(responses) == len(lines)
        for index, response in enumerate(responses):
            assert response["status"] == "ok"
            trace = response["trace"]
            assert trace["trace_id"] == f"req-{index:03d}"
            assert [span["name"] for span in trace["spans"]] == MISS_SPANS

    def test_spans_tile_total_ms_exactly(self):
        lines = [request_line(seed=7, id="req-tile", trace=True)]
        (response,) = [json.loads(line) for line in run_sharded(lines, trace=True)]
        trace = response["trace"]
        span_sum = sum(span["ms"] for span in trace["spans"])
        assert abs(span_sum - trace["total_ms"]) <= 1e-6
        assert all(span["ms"] >= 0.0 for span in trace["spans"])

    def test_cache_hit_trace_skips_simulation_spans(self):
        lines = [
            request_line(seed=3, id="warm", trace=True),
            request_line(seed=3, id="hit", trace=True),
        ]

        async def go():
            server = AsyncScheduleServer(make_service(trace=True))
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

    def test_trace_is_doubly_opt_in(self):
        # Server off + request on → no trace.
        plain = [json.loads(line) for line in run_sharded([request_line(trace=True)], trace=False)]
        assert "trace" not in plain[0]
        # Server on + request silent → no trace either.
        silent = [json.loads(line) for line in run_sharded([request_line()], trace=True)]
        assert "trace" not in silent[0]

    def test_minted_trace_id_when_request_has_none(self):
        (response,) = [
            json.loads(line) for line in run_sharded([request_line(trace=True)], trace=True)
        ]
        assert re.fullmatch(r"trace-[0-9a-f]{16}", response["trace"]["trace_id"])

    def test_untraced_stream_is_byte_identical_to_baseline(self):
        lines = [request_line(seed=index, id=f"r{index}") for index in range(6)]
        with_obs = run_sharded(lines, trace=True)
        without_obs = run_sharded(lines, trace=False)
        assert with_obs == without_obs


class TestSlowRequestLog:
    def _serve_with_threshold(self, tmp_path, slow_ms):
        log_path = tmp_path / "events.jsonl"
        observability = Observability(
            trace=True, slow_ms=slow_ms, event_log=EventLog(str(log_path))
        )
        with ScheduleService(
            batch_size=4, max_queue=64, observability=observability
        ) as service:
            (response,) = service.serve_chunk([request_line(seed=1, id="slow-1", trace=True)])
        events = []
        if log_path.exists():
            events = [
                json.loads(line)
                for line in log_path.read_text(encoding="utf-8").splitlines()
            ]
        return response, [e for e in events if e["kind"] == "slow_request"]

    def test_threshold_zero_point_logs_every_request(self, tmp_path):
        response, events = self._serve_with_threshold(tmp_path, slow_ms=0.0001)
        assert len(events) == 1
        event = events[0]
        assert event["id"] == "slow-1"
        assert event["duration_ms"] >= event["threshold_ms"]
        assert event["trace"]["trace_id"] == "slow-1"
        assert "ts" in event

    def test_high_threshold_logs_nothing(self, tmp_path):
        _, events = self._serve_with_threshold(tmp_path, slow_ms=1e9)
        assert events == []

    def test_event_log_rotates_at_max_entries(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), max_entries=5)
        for index in range(12):
            log.append({"kind": "probe", "n": index})
        current = path.read_text(encoding="utf-8").splitlines()
        rotated = (tmp_path / "events.jsonl.1").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["n"] for line in current] == [10, 11]
        assert [json.loads(line)["n"] for line in rotated] == [5, 6, 7, 8, 9]

    def test_event_log_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(str(tmp_path / "x.jsonl"), max_entries=0)


class TestTelemetrySchema:
    def _scrape(self):
        async def go():
            server = AsyncScheduleServer(make_service())
            await server.start()
            try:
                async with ShardedClient([server.address]) as client:
                    await client.stream([request_line(seed=index) for index in range(5)])
                    stats = await client.stats("s-1")
                    metrics = await client.metrics("m-1")
                    return stats, metrics
            finally:
                await server.close()

        return asyncio.run(go())

    def test_stats_and_metrics_pin_schema_version(self):
        stats, metrics = self._scrape()
        assert stats[0]["stats"]["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert metrics[0]["metrics"]["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert metrics[0]["id"] == "m-1"

    def test_metrics_payload_lists_exactly_the_catalog(self):
        _, metrics = self._scrape()
        payload = metrics[0]["metrics"]
        assert tuple(sorted(payload["counters"])) == tuple(sorted(METRIC_CATALOG["counters"]))
        assert tuple(sorted(payload["gauges"])) == tuple(sorted(METRIC_CATALOG["gauges"]))
        assert tuple(sorted(payload["histograms"])) == tuple(
            sorted(METRIC_CATALOG["histograms"])
        )
        assert payload["shard"] == {"index": 0, "count": 1, "restarts": 0}
        assert payload["counters"]["service.responded"] == 5
        assert payload["histograms"]["service.request_ms"]["count"] == 5

    def test_client_section_annotates_each_scrape(self):
        _, metrics = self._scrape()
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
