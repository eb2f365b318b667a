"""The service must reproduce its committed golden responses byte for byte.

``tests/golden/service_requests.jsonl`` holds 42 schedule requests: each of
the seven paper heuristics with all-at-zero, poisson and uniform releases,
twice, on random 2-5 worker platforms.  ``service_responses.jsonl`` is what
``serve_lines`` wrote for them.  The engine digests pin schedules and
metrics on the kernel's own cases; this corpus pins the metric floats of
service requests and the response encoding, so a change anywhere between
the request line and the response bytes shows up here as a named request.

If a change is meant to move these bytes, regenerate the responses::

    PYTHONPATH=src python -m repro serve --batch-size 8 \\
        < tests/golden/service_requests.jsonl > tests/golden/service_responses.jsonl

and review the diff with the change.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.schedulers.base import PAPER_HEURISTICS
from repro.service.dispatcher import ScheduleService
from repro.service.server import serve_lines

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REQUESTS = GOLDEN_DIR / "service_requests.jsonl"
RESPONSES = GOLDEN_DIR / "service_responses.jsonl"


def _request_lines():
    return REQUESTS.read_text(encoding="utf-8").splitlines()


def _serve(lines, **service_kwargs):
    out = io.StringIO()
    serve_lines(iter(lines), ScheduleService(**service_kwargs), out)
    return out.getvalue()


def test_corpus_covers_every_heuristic_release_process_and_width():
    requests = [json.loads(line) for line in _request_lines()]
    combos = {(r["scheduler"], r["tasks"]["process"]) for r in requests}
    assert combos == {
        (name, process)
        for name in PAPER_HEURISTICS
        for process in ("all-at-zero", "poisson", "uniform")
    }
    assert {len(r["platform"]["comm"]) for r in requests} == {2, 3, 4, 5}


@pytest.mark.parametrize("batch_size", [8, 1])
def test_serve_lines_reproduces_the_golden_responses(batch_size):
    # Batched and one request per pump must write the same bytes.
    expected = RESPONSES.read_text(encoding="utf-8")
    actual = _serve(_request_lines(), batch_size=batch_size)
    if actual == expected:
        return
    for got, want in zip(actual.splitlines(), expected.splitlines()):
        assert got == want, f"response for {json.loads(want)['id']} drifted"
    assert actual == expected


def test_array_kernel_reproduces_the_golden_metrics():
    # The service runs the reference engine only; the corpus still pins the
    # array kernel to the same floats on service-shaped jobs, built exactly
    # as ``execute_request`` builds them (backend parity contract).
    from repro.core.kernel import KernelJob, create_kernel
    from repro.service.executor import request_rng
    from repro.service.schema import build_tasks, canonicalize_request

    requests = [canonicalize_request(json.loads(line)) for line in _request_lines()]
    jobs = [
        KernelJob(
            request.scheduler,
            request.platform(),
            build_tasks(request, request_rng(request)),
            expose_task_count=True,
        )
        for request in requests
    ]
    results = create_kernel("array").run_batch(jobs)
    expected = RESPONSES.read_text(encoding="utf-8").splitlines()
    for result, line in zip(results, expected, strict=True):
        response = json.loads(line)
        assert dict(result.metrics) == response["metrics"], response["id"]


def test_every_golden_response_is_ok():
    for line in RESPONSES.read_text(encoding="utf-8").splitlines():
        response = json.loads(line)
        assert response["status"] == "ok", response
