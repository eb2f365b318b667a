"""Per-request trace contexts: named, non-overlapping span timings.

A :class:`Trace` accumulates ``(name, start, end)`` spans measured on one
clock (the service uses ``time.perf_counter`` timestamps taken at stage
boundaries).  Spans are built from *consecutive* absolute timestamps, so
non-overlap holds by construction; :meth:`Trace.as_dict` converts them to
millisecond durations for the wire.

A trace's id is its request's ``"id"``, or one the dispatcher mints when
the request has none.  The ``"trace"`` opt-in rides the request's
metadata — like ``"id"`` and ``"arrival"`` it is excluded from the
canonical key, so tracing never perturbs caching, coalescing, or shard
routing.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

__all__ = ["Trace", "mint_trace_id"]


def mint_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id from OS randomness.

    Ids only need uniqueness, not determinism — they are metadata, never
    part of a canonical request key.
    """
    return os.urandom(8).hex()


class Trace:
    """Accumulates named spans for one request as it crosses stages.

    Spans are appended via :meth:`add` with absolute start/end timestamps
    from a single monotonic clock.  The service builds them from
    consecutive stage boundaries (queue wait → cache lookup → batch
    assembly → simulate → serialize), so spans never overlap and their
    durations sum to the request's server-side residence time.
    """

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        #: list of ``(name, start, end)`` absolute-timestamp triples.
        self.spans: List[Tuple[str, float, float]] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Append span ``name`` covering ``[start, end]`` (clamped >= 0)."""
        if end < start:
            end = start
        self.spans.append((name, start, end))

    def total_ms(self) -> float:
        """Sum of all span durations in milliseconds."""
        return sum((end - start) * 1000.0 for _, start, end in self.spans)

    def as_dict(self) -> Dict[str, Any]:
        """Wire form: trace id, per-span millisecond durations, total.

        ``{"trace_id": ..., "spans": [{"name": ..., "ms": ...}, ...],
        "total_ms": ...}`` — durations only, no absolute timestamps, so
        the payload is compact and clock-origin-free.  Durations are
        rounded to 6 decimals (nanosecond resolution — below the clock's
        own noise) so their JSON encoding stays short and cheap on the
        hot path; ``total_ms`` is the rounded sum of the *rounded* spans,
        so spans always tile the total to within float-addition error.
        """
        spans = [
            {"name": name, "ms": round((end - start) * 1000.0, 6)}
            for name, start, end in self.spans
        ]
        return {
            "trace_id": self.trace_id,
            "spans": spans,
            "total_ms": round(sum(span["ms"] for span in spans), 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Trace(id={self.trace_id}, spans={len(self.spans)})"
