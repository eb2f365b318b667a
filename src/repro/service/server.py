"""JSONL request loop — the transport behind ``repro serve``.

The service speaks the simplest transport that composes under a shell pipe:
one request per input line, one response per output line, in submission
order.  :func:`serve_lines` is the whole loop; the CLI merely binds it to
``sys.stdin``/``sys.stdout`` and prints :func:`summary` of the final
metrics to stderr.

Response encoding is pinned to :func:`repro._hashing.canonical_json`
(sorted keys, no insignificant whitespace) so the stdout stream is
byte-comparable across runs, worker counts and cache states — the service
determinism contract is checked in CI with a literal ``cmp``.
"""

from __future__ import annotations

from typing import Any, Dict, IO, Iterable, Mapping, Optional

from .._hashing import canonical_json
from .dispatcher import ScheduleService

__all__ = ["response_line", "serve_lines", "serve_stream", "summary"]


def response_line(response: Dict[str, Any]) -> str:
    """Encode one response dict as its canonical JSONL line (no newline)."""
    return canonical_json(response)


def summary(snapshot: Mapping[str, Any], *, cache: bool = False) -> str:
    """The human-readable stderr summary of a registry snapshot.

    One ``service:`` line; with ``cache`` a second ``cache:`` line.
    "Miss(es)" on the service line counts the requests that went to the
    compute stage — ``simulations + coalesced``, since every miss either
    runs its key's simulation or rides on a duplicate's — so it is also
    right for a service without a cache.
    """
    c = snapshot["counters"]
    text = (
        f"service: {c['service.received']} request(s) -> {c['service.ok']} ok, "
        f"{c['service.invalid']} invalid, {c['service.rejected']} rejected, "
        f"{c['service.failed']} failed; {c['service.simulations']} simulation(s), "
        f"{c['service.coalesced']} coalesced, {c['cache.hits']} cache hit(s), "
        f"{c['service.simulations'] + c['service.coalesced']} miss(es)"
    )
    if cache:
        text += (
            f"\ncache: {c['cache.hits']} hit(s), {c['cache.misses']} miss(es), "
            f"{c['cache.evictions']} eviction(s), "
            f"{c['cache.expirations']} expiration(s), "
            f"{snapshot['gauges']['cache.size']} resident, "
            f"{c['cache.warm_hits']} warm hit(s)"
        )
    return text


def serve_lines(
    lines: Iterable[str],
    service: ScheduleService,
    out: IO[str],
    flush_every_batch: bool = True,
) -> int:
    """Run the request loop: read JSONL requests, write JSONL responses.

    Blank lines are ignored (so hand-written request files can be spaced
    for readability); everything else — including malformed JSON — is
    submitted and resolves to exactly one response line.  Batches are
    pumped as soon as they fill, and the queue is drained when the input
    ends, so the stream never loses a response.  Returns the number of
    responses written.
    """
    written = 0
    for line in lines:
        if not line.strip():
            continue
        service.submit(line)
        while service.ready():
            for response in service.pump():
                out.write(response_line(response) + "\n")
                written += 1
            if flush_every_batch:
                out.flush()
    for response in service.drain():
        out.write(response_line(response) + "\n")
        written += 1
    out.flush()
    return written


def serve_stream(
    stream: IO[str],
    service: ScheduleService,
    out: IO[str],
    err: Optional[IO[str]] = None,
) -> int:
    """Serve an open text stream and, optionally, summarise on ``err``.

    Thin convenience over :func:`serve_lines` for the CLI: binds the loop
    to file objects and prints the :func:`summary` of the service's
    metrics (with the cache line when the service has a cache) when an
    error stream is given.
    """
    written = serve_lines(stream, service, out)
    if err is not None:
        snapshot = service.obs.registry.snapshot()
        print(summary(snapshot, cache=service.cache is not None), file=err)
    return written
