#!/usr/bin/env python
"""Load generator: replay a nonstationary request stream against the service.

Emits ``--requests`` JSONL schedule requests on stdout, ready to pipe into
``repro serve`` — or, with ``--connect HOST:PORT``, drives the stream over
**sustained concurrent TCP connections** against a persistent (optionally
sharded) server and records steady-state RPS and p50/p99 latency.  Adding
``--duration SECONDS`` switches the connected mode from "stream the file
once" to **wall-clock load**: each client cycles the generated file until
the deadline passes (open-loop load), then drains its in-flight window.  Two
ingredients make the stream a realistic serving workload rather than a
uniform batch:

* **arrival process** — request timestamps are drawn from the
  inhomogeneous Poisson process of
  :func:`repro.workloads.release.inhomogeneous_poisson_releases` (Lewis &
  Shedler thinning, the same construction as Hohmann's IPPP package,
  arXiv:1901.10754) with a sinusoidal "diurnal" intensity, so requests
  cluster into rush hours; the timestamp rides along as the ``arrival``
  metadata field (excluded from the cache key);
* **repetition** — configurations are drawn from a finite pool of
  ``--unique`` distinct requests, so a long enough stream repeats itself
  and exercises the service's result cache and duplicate coalescing, the
  way real traffic repeats popular queries.

The stream is a pure function of ``--seed`` and the shape flags, so two
invocations with the same flags are byte-identical — which is what lets CI
compare ``repro serve`` against ``repro serve --engine-backend array`` and
``--batch-size 1`` with a literal ``cmp``.  ``--workers`` here is the
simulated platform width of the generated requests, not serve-side
parallelism; that is ``repro serve --listen HOST:PORT --shards N``.

Run with::

    PYTHONPATH=src python tools/loadgen.py --requests 500 --workers 4 \\
        | PYTHONPATH=src python -m repro serve

or against a persistent 3-shard server (each of the ``--connections``
clients streams the *same* generated request file, so every client's
response stream must be byte-identical to the serial baseline; client 0's
stream goes to stdout for exactly that ``cmp``)::

    PYTHONPATH=src python -m repro serve --listen 127.0.0.1:7000 --shards 3 &
    PYTHONPATH=src python tools/loadgen.py --requests 500 \\
        --connect 127.0.0.1:7000 --shards 3 --connections 8 \\
        --stats-json loadgen_stats.json > client0.jsonl
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (path bootstrap above)

from repro._hashing import canonical_json  # noqa: E402
from repro.obs import StreamingHistogram  # noqa: E402
from repro.service.async_server import parse_address  # noqa: E402
from repro.service.sharding import ShardedClient  # noqa: E402
from repro.workloads.release import inhomogeneous_poisson_releases  # noqa: E402

#: Schedulers the generator samples from — the paper's heuristics that are
#: cheap enough for a high-volume stream.
SCHEDULERS = ("LS", "SRPT", "RR", "RRC", "RRP", "SLJF", "SLJFWC")


def build_pool(
    rng: np.random.Generator, unique: int, max_workers: int, max_tasks: int
) -> List[Dict[str, Any]]:
    """Draw the pool of distinct request configurations."""
    pool: List[Dict[str, Any]] = []
    for _ in range(unique):
        width = int(rng.integers(1, max_workers + 1))
        comm = [round(float(c), 3) for c in rng.uniform(0.05, 1.0, size=width)]
        comp = [round(float(p), 3) for p in rng.uniform(0.5, 4.0, size=width)]
        n = int(rng.integers(5, max_tasks + 1))
        process = str(rng.choice(["all-at-zero", "poisson", "uniform"]))
        tasks: Dict[str, Any] = {"process": process, "n": n}
        if process == "poisson":
            tasks["rate"] = round(float(rng.uniform(0.5, 4.0)), 3)
        elif process == "uniform":
            tasks["horizon"] = round(float(rng.uniform(1.0, 20.0)), 3)
        pool.append(
            {
                "platform": {"comm": comm, "comp": comp},
                "tasks": tasks,
                "scheduler": str(rng.choice(SCHEDULERS)),
                "seed": int(rng.integers(0, 16)),
            }
        )
    return pool


def generate_lines(args: argparse.Namespace) -> List[str]:
    """The deterministic request stream described by the flags, as lines."""
    rng = np.random.default_rng(args.seed)
    pool = build_pool(rng, args.unique, args.workers, args.tasks)

    # Diurnal intensity: mean rate `args.rate`, swinging +-80% over one
    # `args.period`-long "day", so arrivals bunch into rush hours.
    base = args.rate

    def intensity(t: float) -> float:
        return base * (1.0 + 0.8 * math.sin(2.0 * math.pi * t / args.period))

    arrivals = inhomogeneous_poisson_releases(
        args.requests, intensity, max_rate=1.8 * base, rng=rng
    ).releases

    lines = []
    for index, arrival in enumerate(arrivals):
        config = pool[int(rng.integers(0, len(pool)))]
        request = dict(config)
        request["id"] = f"req-{index:06d}"
        request["arrival"] = round(float(arrival), 6)
        lines.append(canonical_json(request))
    return lines


def generate(args: argparse.Namespace, out) -> int:
    """Write the request stream to ``out``; returns the number of lines."""
    for line in generate_lines(args):
        out.write(line + "\n")
    return args.requests


async def _drive_one_client(
    addresses: List[Tuple[str, int]],
    lines: List[str],
    max_inflight: int,
    request_timeout: Optional[float] = None,
    duration: Optional[float] = None,
) -> Tuple[List[str], List[float]]:
    """Stream the request file over one connection set; returns (responses, latencies).

    Latency is measured per request, submit-to-response, with at most
    ``max_inflight`` requests outstanding — a sustained closed-loop client,
    not a single giant burst.  Without ``duration`` the client streams the
    file exactly once; with it, the client **cycles** the file until the
    wall-clock deadline passes (open-loop load over a fixed time
    window), then drains its in-flight window, so every
    submitted request still resolves.
    """
    responses: List[str] = []
    latencies: List[float] = []
    window: "deque[Tuple[asyncio.Future, float]]" = deque()

    async def settle() -> None:
        future, t0 = window.popleft()
        responses.append(await future)
        latencies.append(time.perf_counter() - t0)

    async with ShardedClient(
        addresses, max_inflight=max_inflight, request_timeout=request_timeout
    ) as client:
        if duration is None:
            for line in lines:
                while len(window) >= max_inflight:
                    await settle()
                t0 = time.perf_counter()
                window.append((await client.submit(line), t0))
        else:
            deadline = time.perf_counter() + duration
            index = 0
            while time.perf_counter() < deadline:
                while len(window) >= max_inflight:
                    await settle()
                line = lines[index % len(lines)]
                index += 1
                t0 = time.perf_counter()
                window.append((await client.submit(line), t0))
        while window:
            await settle()
    return responses, latencies


async def _drive(
    args: argparse.Namespace, lines: List[str]
) -> Tuple[List[List[str]], List[float], float]:
    """Run ``--connections`` concurrent clients; returns streams, latencies, wall."""
    host, port = parse_address(args.connect)
    addresses = [(host, port + index) for index in range(args.shards)]
    started = time.perf_counter()
    results = await asyncio.gather(
        *(
            _drive_one_client(
                addresses, lines, args.max_inflight, args.timeout, args.duration
            )
            for _ in range(args.connections)
        )
    )
    elapsed = time.perf_counter() - started
    streams = [responses for responses, _ in results]
    latencies = [latency for _, client_latencies in results for latency in client_latencies]
    return streams, latencies, elapsed


def run_connected(args: argparse.Namespace, out, err) -> int:
    """Drive the generated stream against a persistent server; returns exit code.

    Writes client 0's response stream to ``out`` (byte-comparable against
    the serial ``repro serve`` baseline), a human-readable summary to
    ``err``, and — with ``--stats-json`` — a machine-readable record of
    steady-state RPS, p50/p99 latency, drops and response statuses.
    """
    lines = generate_lines(args)
    streams, latencies, elapsed = asyncio.run(_drive(args, lines))

    received = sum(len(stream) for stream in streams)
    if args.duration is None:
        expected = len(lines) * args.connections
    else:
        # Duration mode is open-ended: each client cycles the file until
        # the wall-clock deadline and drains its window, so "expected" is
        # exactly what was submitted — a lost request would have raised.
        expected = received
    statuses: Counter = Counter()
    for stream in streams:
        for response_text in stream:
            try:
                statuses[json.loads(response_text).get("status", "?")] += 1
            except json.JSONDecodeError:
                statuses["unparseable"] += 1
    drops = expected - received
    # Cross-client byte-identity only holds when every client streams the
    # same finite file; duration-mode clients stop at independent
    # wall-clock deadlines, so their stream lengths legitimately differ.
    if args.duration is None:
        divergent = [
            index
            for index, stream in enumerate(streams[1:], start=1)
            if stream != streams[0]
        ]
    else:
        divergent = []

    # Quantiles via the service's own streaming histogram (repro.obs), so
    # loadgen's client-side p50/p99 and the server's service.request_ms
    # quantiles are computed by the same bucketed estimator.
    histogram = StreamingHistogram()
    for latency in latencies:
        histogram.observe(latency * 1e3)
    stats = {
        "requests": len(lines),
        "duration_s": args.duration,
        "connections": args.connections,
        "shards": args.shards,
        "expected_responses": expected,
        "responses": received,
        "drops": drops,
        "divergent_clients": divergent,
        "statuses": dict(statuses),
        "elapsed_s": round(elapsed, 6),
        "rps": round(received / elapsed, 3) if elapsed > 0 else 0.0,
        "p50_ms": round(histogram.quantile(0.50), 3),
        "p99_ms": round(histogram.quantile(0.99), 3),
        "latency_histogram": histogram.snapshot(),
    }

    for response_text in streams[0]:
        out.write(response_text + "\n")
    print(
        f"loadgen: {received}/{expected} response(s) over "
        f"{args.connections} connection(s) x {args.shards} shard(s) in "
        f"{elapsed:.3f}s -> {stats['rps']:.1f} rps, "
        f"p50 {stats['p50_ms']:.2f} ms, p99 {stats['p99_ms']:.2f} ms, "
        f"{drops} drop(s)",
        file=err,
    )
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if drops or divergent:
        if divergent:
            print(
                f"loadgen: ERROR - client stream(s) {divergent} diverge from "
                "client 0 (per-client byte-identity violated)",
                file=err,
            )
        return 1
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description=(
            "Emit a deterministic JSONL schedule-request stream with "
            "inhomogeneous-Poisson arrivals, ready to pipe into 'repro serve'."
        )
    )
    parser.add_argument("--requests", type=int, default=500, help="stream length")
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "maximum platform width (simulated workers per requested platform); "
            "NOT serve-side parallelism — that is `repro serve --shards`"
        ),
    )
    parser.add_argument(
        "--unique",
        type=int,
        default=25,
        help="distinct configurations in the pool (smaller = more cache hits)",
    )
    parser.add_argument(
        "--tasks", type=int, default=50, help="maximum tasks per request"
    )
    parser.add_argument(
        "--rate", type=float, default=10.0, help="mean arrival rate (requests/unit)"
    )
    parser.add_argument(
        "--period", type=float, default=20.0, help="length of one diurnal cycle"
    )
    parser.add_argument("--seed", type=int, default=2006, help="stream seed")
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help=(
            "drive the stream against a persistent server at HOST:PORT "
            "instead of emitting it on stdout"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count of the target server (consecutive ports from PORT)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=1,
        help="concurrent client connections, each streaming the full file",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="per-client cap on outstanding requests (closed-loop window)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --connect: per-request deadline; a stalled shard resolves "
            "to a typed shard-timeout response instead of hanging the client"
        ),
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --connect: cycle the generated request file for this many "
            "wall-clock seconds instead of streaming it exactly once "
            "(open-loop load; --requests sets the cycled pool size)"
        ),
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="with --connect: write RPS/latency/drop statistics to FILE",
    )
    args = parser.parse_args(argv)
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be > 0")
    if args.duration is not None:
        if args.duration <= 0:
            parser.error("--duration must be > 0")
        if args.connect is None:
            parser.error("--duration requires --connect")
    if args.requests < 1 or args.unique < 1 or args.workers < 1 or args.tasks < 5:
        parser.error("--requests/--unique/--workers must be >= 1, --tasks >= 5")
    if args.rate <= 0 or args.period <= 0:
        parser.error("--rate and --period must be > 0")
    if args.shards < 1 or args.connections < 1 or args.max_inflight < 1:
        parser.error("--shards/--connections/--max-inflight must be >= 1")
    if args.connect is not None:
        try:
            return run_connected(args, sys.stdout, sys.stderr)
        except (OSError, asyncio.TimeoutError) as exc:
            print(f"loadgen: connection failed: {exc}", file=sys.stderr)
            return 2
    generate(args, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
