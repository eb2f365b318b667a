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

from itertools import islice
from typing import Any, Dict, IO, Iterable, Mapping

from .._hashing import canonical_json
from .dispatcher import ScheduleService

__all__ = ["response_line", "serve_lines", "summary"]


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
            f"{snapshot['gauges']['cache.size']} resident, "
            f"{c['cache.warm_hits']} warm hit(s)"
        )
    return text


def serve_lines(lines: Iterable[str], service: ScheduleService, out: IO[str]) -> int:
    """Run the request loop: read JSONL requests, write JSONL responses.

    Blank lines are ignored (so hand-written request files can be spaced
    for readability); everything else — including malformed JSON —
    resolves to exactly one response line.  The non-blank lines are cut
    into chunks of the service's batch size; each chunk's responses are
    written and flushed before the next chunk is read, so a slow
    simulation stalls reading, not a queue.  Returns the number of
    responses written.
    """
    written = 0
    requests = (line for line in lines if line.strip())
    while True:
        chunk = list(islice(requests, service.batch_size))
        if not chunk:
            return written
        for response in service.serve_chunk(chunk):
            out.write(response_line(response) + "\n")
        out.flush()
        written += len(chunk)
