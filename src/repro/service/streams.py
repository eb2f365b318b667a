"""Deterministic synthetic request streams for throughput measurement.

The timed suite behind ``BENCH_service.json`` (``tools/run_benchmarks.py``)
builds every service benchmark from this one stream, so its entries
measure the *same* workload and stay comparable with each other.

For realistic *traffic* (nonstationary arrivals, repeated configurations)
use ``tools/loadgen.py``; this stream is deliberately plain — distinct
small requests in a fixed rotation — so it isolates serving cost from
workload modelling.
"""

from __future__ import annotations

import json
from typing import List

__all__ = ["synthetic_request_lines"]


def synthetic_request_lines(n_requests: int) -> List[str]:
    """``n_requests`` distinct small JSONL requests in a fixed rotation.

    Every request targets the same 3-worker platform and rotates through
    three schedulers and seven task counts; seeds differ per request, so
    every line canonicalizes to a distinct cache key (an all-miss stream
    unless a cache is pre-warmed with exactly these requests).
    """
    lines = []
    for index in range(n_requests):
        request = {
            "platform": {"comm": [0.2, 0.5, 1.0], "comp": [1.0, 2.0, 4.0]},
            "tasks": 20 + (index % 7),
            "scheduler": ("LS", "SRPT", "RR")[index % 3],
            "seed": index,
            "id": f"bench-{index:04d}",
        }
        lines.append(json.dumps(request))
    return lines
