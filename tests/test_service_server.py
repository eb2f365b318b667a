"""Tests for the JSONL request loop (:mod:`repro.service.server`)."""

from __future__ import annotations

import io
import json

from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.server import response_line, serve_lines


def request_line(seed=0, tasks=10, **extra):
    """One JSONL-encoded request."""
    payload = {
        "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
        "tasks": tasks,
        "scheduler": "LS",
        "seed": seed,
    }
    payload.update(extra)
    return json.dumps(payload)


class TestServeLines:
    def test_one_response_line_per_request(self):
        lines = [request_line(seed=s, id=f"r{s}") for s in range(5)]
        out = io.StringIO()
        written = serve_lines(iter(lines), ScheduleService(batch_size=2), out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert written == 5
        assert [r["id"] for r in responses] == [f"r{s}" for s in range(5)]

    def test_blank_lines_are_ignored(self):
        lines = ["", request_line(id="a"), "   ", "\n", request_line(id="b"), ""]
        out = io.StringIO()
        written = serve_lines(iter(lines), ScheduleService(batch_size=4), out)
        assert written == 2

    def test_malformed_lines_still_get_a_response(self):
        lines = ["{broken json", request_line(id="ok")]
        out = io.StringIO()
        serve_lines(iter(lines), ScheduleService(batch_size=4), out)
        first, second = (json.loads(l) for l in out.getvalue().splitlines())
        assert first["status"] == "error"
        assert second["status"] == "ok"

    def test_partial_batches_are_drained_at_end_of_input(self):
        # batch_size larger than the stream: everything resolves on drain.
        lines = [request_line(seed=s) for s in range(3)]
        out = io.StringIO()
        written = serve_lines(iter(lines), ScheduleService(batch_size=100), out)
        assert written == 3

    def test_output_is_canonical_jsonl(self):
        out = io.StringIO()
        serve_lines(iter([request_line()]), ScheduleService(batch_size=1), out)
        (line,) = out.getvalue().splitlines()
        assert line == response_line(json.loads(line))


class TestDeterminismContract:
    def stream(self):
        """Duplicates + distinct configs + one malformed line."""
        lines = [request_line(seed=s % 3, id=f"r{s}") for s in range(10)]
        lines.insert(4, "not json")
        return lines

    def serve(self):
        out = io.StringIO()
        with ScheduleService(
            batch_size=4, cache=LRUResultCache(max_entries=32)
        ) as service:
            serve_lines(iter(self.stream()), service, out)
        return out.getvalue()

    def test_rerun_is_byte_identical(self):
        assert self.serve() == self.serve()

