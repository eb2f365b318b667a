#!/usr/bin/env python
"""Timed engine + service benchmark suite — the repo's perf trajectory.

Runs a small, fixed set of named benchmarks and writes their timings to a
JSON file (default ``BENCH_service.json``) with the schema::

    {"_meta": {"git_sha": str, "runs": int},
     bench_name: {"mean_s": float, "min_s": float, "max_s": float,
                  "runs": int, "params": {...}}}

so future PRs can diff performance against the committed baseline instead
of guessing.  ``min_s`` is the noise-robust statistic to compare across
commits; ``mean_s``/``max_s`` expose the jitter of the recording machine,
and ``_meta.git_sha`` pins which commit produced the numbers.  Wall-clock
numbers are hardware-dependent — the file is a *trajectory*, not a gate;
CI runs this script in informational mode only.

The suite covers the layers a serving regression could hide in:

* ``engine_simulate`` — the raw one-port engine (1000-task bag, 5 workers);
* ``engine_simulate_batched`` — the same workload, 64 jobs at once through
  the ``array`` kernel backend vs. the reference kernel; records the
  ``speedup_vs_reference`` of the vectorized lockstep pass;
* ``request_canonicalize`` — request validation + canonical hashing, the
  per-request overhead every service call pays;
* ``service_unique_stream`` — the dispatcher on an all-miss stream
  (every request simulates);
* ``service_cached_stream`` — the same stream against a warm result cache
  (the steady-state serving hot path);
* ``service_persistent_rps`` — the persistent asyncio TCP server under
  sustained concurrent connections; records steady-state RPS plus p50/p99
  request latency alongside the usual wall-clock stats;
* ``service_chaos_rps`` — the same persistent server *crashed and
  restarted mid-stream* under a resilient client (timeout + retry +
  circuit breaker): the cost of riding through a failure, and the proof
  that zero requests are lost while doing so;
* ``service_warm_restart`` — restart recovery with the durability layer:
  the first full stream served after a restart, timed warm (journal
  replayed into the cache) vs. cold (every request re-simulates); records
  the ``speedup_vs_cold`` recovery delta.
* ``service_observability_overhead`` — the cached (hot-path) stream served
  with tracing off vs. on (every request opting in): records both RPS
  figures and their ``rps_regression``, the number the CI smoke gates at
  5% to keep telemetry effectively free.

Run with::

    PYTHONPATH=src python tools/run_benchmarks.py --output BENCH_service.json
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.engine import simulate  # noqa: E402  (path bootstrap above)
from repro.core.kernel import KernelJob, create_kernel  # noqa: E402
from repro.core.platform import Platform  # noqa: E402
from repro.schedulers.base import create_scheduler  # noqa: E402
from repro.service.async_server import AsyncScheduleServer  # noqa: E402
from repro.service.cache import LRUResultCache  # noqa: E402
from repro.service.dispatcher import ScheduleService  # noqa: E402
from repro.service.persistence import ShardPersistence  # noqa: E402
from repro.service.schema import canonicalize_request  # noqa: E402
from repro.service.server import serve_lines  # noqa: E402
from repro.service.sharding import ShardedClient  # noqa: E402
from repro.service.streams import synthetic_request_lines  # noqa: E402
from repro.workloads.release import all_at_zero  # noqa: E402


def _time(fn: Callable[[], Any], runs: int) -> Dict[str, float]:
    """Wall-clock stats of ``fn`` over ``runs`` calls (1 warm-up).

    Returns ``{"mean_s", "min_s", "max_s"}``; ``min_s`` is the statistic to
    diff across commits (least sensitive to scheduler noise on the
    recording machine).
    """
    fn()  # warm-up: imports, pools, caches
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "mean_s": sum(samples) / runs,
        "min_s": min(samples),
        "max_s": max(samples),
    }


def _git_sha() -> str:
    """The repository HEAD at recording time, or ``"unknown"``."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _bench_platform() -> Platform:
    return Platform.from_times(
        [0.05, 0.06, 0.07, 0.08, 0.09], [0.5, 0.75, 1.0, 1.25, 1.5]
    )


def bench_engine_simulate(runs: int) -> Dict[str, Any]:
    """Raw engine cost: 1000-task bag on a 5-worker heterogeneous platform."""
    platform = _bench_platform()
    tasks = all_at_zero(1000)
    scheduler = create_scheduler("LS")

    def run() -> None:
        simulate(scheduler, platform, tasks, expose_task_count=True)

    return {
        **_time(run, runs),
        "runs": runs,
        "params": {"n_tasks": 1000, "n_workers": 5, "scheduler": "LS"},
    }


def bench_engine_simulate_batched(runs: int) -> Dict[str, Any]:
    """64 engine_simulate workloads at once: array kernel vs. reference.

    Records the ``array`` backend's batch time plus the reference kernel's
    on the identical job list, and their ratio (``speedup_vs_reference``,
    computed from ``min_s`` of each).  The two backends are trace-equal by
    contract (``tests/test_engine_digests.py``), so the ratio compares pure
    execution strategy, not output.
    """
    platform = _bench_platform()
    tasks = all_at_zero(1000)
    jobs = [KernelJob("LS", platform, tasks) for _ in range(64)]
    array_kernel = create_kernel("array")
    reference_kernel = create_kernel("reference")

    batched = _time(lambda: array_kernel.run_batch(jobs), runs)
    reference = _time(lambda: reference_kernel.run_batch(jobs), runs)
    return {
        **batched,
        "reference_mean_s": reference["mean_s"],
        "reference_min_s": reference["min_s"],
        "speedup_vs_reference": reference["min_s"] / batched["min_s"],
        "runs": runs,
        "params": {
            "batch": 64,
            "n_tasks": 1000,
            "n_workers": 5,
            "scheduler": "LS",
            "backend": "array",
        },
    }


def bench_request_canonicalize(runs: int) -> Dict[str, Any]:
    """Validation + canonical-hash overhead for 1000 raw request payloads."""
    payloads = [json.loads(line) for line in synthetic_request_lines(1000)]

    def run() -> None:
        for payload in payloads:
            canonicalize_request(payload)

    return {
        **_time(run, runs),
        "runs": runs,
        "params": {"n_requests": 1000},
    }


def _serve(lines: List[str], cache: LRUResultCache) -> None:
    with ScheduleService(batch_size=16, cache=cache) as svc:
        serve_lines(iter(lines), svc, io.StringIO())


def bench_service_unique_stream(runs: int, n_requests: int) -> Dict[str, Any]:
    """Dispatcher on an all-miss stream: every request simulates."""
    lines = synthetic_request_lines(n_requests)

    def run() -> None:
        _serve(lines, LRUResultCache(max_entries=4 * n_requests))

    return {
        **_time(run, runs),
        "runs": runs,
        "params": {"n_requests": n_requests, "cache": "cold"},
    }


def bench_service_cached_stream(runs: int, n_requests: int) -> Dict[str, Any]:
    """Dispatcher on the same stream with a warm cache: zero simulations."""
    lines = synthetic_request_lines(n_requests)
    cache = LRUResultCache(max_entries=4 * n_requests)
    _serve(lines, cache)  # warm the cache once, outside the timed region

    def run() -> None:
        _serve(lines, cache)

    return {
        **_time(run, runs),
        "runs": runs,
        "params": {"n_requests": n_requests, "cache": "warm"},
    }


def bench_service_persistent_rps(runs: int, n_requests: int) -> Dict[str, Any]:
    """Persistent TCP server under sustained concurrent connections.

    Boots one in-process :class:`AsyncScheduleServer` on an ephemeral port,
    then drives it with 4 concurrent :class:`ShardedClient` connections,
    each streaming the full synthetic request file.  Besides the standard
    wall-clock stats this records the steady-state ``rps`` (responses per
    second over the whole run) and ``p50_ms``/``p99_ms`` per-request
    latency (submit-to-response, nearest-rank over every request of every
    run) — the serving numbers the CI smoke diffs informationally.
    """
    lines = synthetic_request_lines(n_requests)
    connections = 4
    latencies: List[float] = []

    def percentile(sorted_values: List[float], q: float) -> float:
        rank = min(
            len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1)
        )
        return sorted_values[rank]

    async def one_client(address) -> None:
        async with ShardedClient([address], max_inflight=32) as client:
            window: List[Any] = []
            for line in lines:
                while len(window) >= 32:
                    future, t0 = window.pop(0)
                    await future
                    latencies.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                window.append((await client.submit(line), t0))
            for future, t0 in window:
                await future
                latencies.append(time.perf_counter() - t0)

    async def drive() -> None:
        service = ScheduleService(batch_size=16, cache=None)
        async with AsyncScheduleServer(service, port=0) as server:
            await asyncio.gather(
                *(one_client(server.address) for _ in range(connections))
            )

    def run() -> None:
        asyncio.run(drive())

    timing = _time(run, runs)
    latencies.sort()
    # One warm-up + `runs` timed passes contributed latencies; RPS uses the
    # noise-robust min_s, matching how timings diff across commits.
    responses_per_run = n_requests * connections
    return {
        **timing,
        "rps": responses_per_run / timing["min_s"],
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "runs": runs,
        "params": {
            "n_requests": n_requests,
            "connections": connections,
            "shards": 1,
            "max_inflight": 32,
            "cache": "none",
        },
    }


def bench_service_chaos_rps(runs: int, n_requests: int) -> Dict[str, Any]:
    """Persistent server crashed and restarted mid-stream, client riding through.

    Halfway through the stream the server is torn down and a replacement
    is booted on the same port — the in-process analogue of a supervisor
    restart (``tools/chaos.py`` does it against real processes).  The
    client runs with the full resilience stack (per-request timeout,
    bounded retry, breaker threshold 1 with a short cooldown), so every
    request resolves terminally: served, retried onto the restarted
    server, or degraded to byte-identical local execution.  Records the
    terminal-response RPS plus the ``ok`` share — a chaos run that loses
    requests fails the benchmark outright.
    """
    lines = synthetic_request_lines(n_requests)
    ok_counts: List[int] = []

    def make_server(host: str, port: int) -> AsyncScheduleServer:
        return AsyncScheduleServer(
            ScheduleService(batch_size=16, cache=None),
            host,
            port,
        )

    async def drive() -> None:
        server = make_server("127.0.0.1", 0)
        await server.start()
        host, port = server.address
        client = ShardedClient(
            [(host, port)],
            max_inflight=32,
            request_timeout=5.0,
            max_retries=2,
            retry_backoff=0.01,
            breaker_threshold=1,
            breaker_cooldown=0.05,
        )
        await client.connect()
        try:
            futures = []
            for index, line in enumerate(lines):
                if index == n_requests // 2:
                    await server.close()  # the crash...
                    server = make_server(host, port)
                    await server.start()  # ...and the supervisor's restart
                futures.append(await client.submit(line))
            responses = await asyncio.gather(*futures)
        finally:
            await client.close()
            await server.close()
        if len(responses) != n_requests:
            raise RuntimeError(
                f"chaos benchmark lost requests: {len(responses)}/{n_requests}"
            )
        ok_counts.append(
            sum(1 for text in responses if json.loads(text).get("status") == "ok")
        )

    def run() -> None:
        asyncio.run(drive())

    timing = _time(run, runs)
    return {
        **timing,
        "rps": n_requests / timing["min_s"],
        "ok_fraction": min(ok_counts) / n_requests,
        "runs": runs,
        "params": {
            "n_requests": n_requests,
            "crash_at": n_requests // 2,
            "max_retries": 2,
            "breaker_threshold": 1,
            "cache": "none",
        },
    }


def bench_service_warm_restart(runs: int, n_requests: int) -> Dict[str, Any]:
    """Cold vs. warm restart: the first full stream served after a restart.

    A "previous incarnation" serves the stream once with durability on,
    journaling every result.  The timed region is then restart recovery —
    build a fresh cache and serve the whole stream again — in two
    variants: **cold** (no persistence: every request re-simulates, the
    pre-durability behaviour) and **warm** (journal replayed via
    ``warm_load`` before serving: every request is a warm cache hit).
    The headline stats time the warm variant, with the cold variant's
    timings and the ``speedup_vs_cold`` ratio alongside — the crash
    recovery delta the durability layer buys.
    """
    lines = synthetic_request_lines(n_requests)
    state_dir = Path(tempfile.mkdtemp(prefix="repro-bench-warm-"))
    seed_cache = LRUResultCache(
        max_entries=4 * n_requests,
        persistence=ShardPersistence(state_dir, journal_max_entries=4 * n_requests),
    )
    _serve(lines, seed_cache)  # the dead shard's lifetime: journal every result
    seed_cache.close()

    def cold_restart() -> None:
        _serve(lines, LRUResultCache(max_entries=4 * n_requests))

    def warm_restart() -> None:
        cache = LRUResultCache(
            max_entries=4 * n_requests,
            persistence=ShardPersistence(
                state_dir, journal_max_entries=4 * n_requests
            ),
        )
        replayed = cache.warm_load()  # replay is part of recovery, so timed
        _serve(lines, cache)
        cache.close()
        if replayed == 0 or cache.warm_hits == 0:
            raise RuntimeError("warm restart served nothing from replayed state")

    cold = _time(cold_restart, runs)
    warm = _time(warm_restart, runs)
    return {
        **warm,
        "cold_mean_s": cold["mean_s"],
        "cold_min_s": cold["min_s"],
        "speedup_vs_cold": cold["min_s"] / warm["min_s"],
        "runs": runs,
        "params": {"n_requests": n_requests, "recovery": "journal-replay"},
    }


def bench_service_observability_overhead(runs: int, n_requests: int) -> Dict[str, Any]:
    """Tracing off vs. on across the cached hot path: telemetry's price.

    The warm-cached stream is the most overhead-sensitive path (zero
    simulations, so per-request bookkeeping is the whole cost).  The
    headline variant is the *deployment* configuration: every 16th
    request opting in with ``"trace": true`` — sampled tracing, the way
    traces are meant to be collected in steady state.  ``rps_regression``
    (headline vs. the baseline stream, where no request opts in) is the
    value the CI smoke asserts stays under 5%.  The worst case — **every** request opting in, so span capture
    and trace serialization on each response — is recorded alongside as
    ``traced_all_*``; it prices one traced response (~tens of µs), not a
    realistic serving mix.  Each variant keeps one warm service alive
    for the whole measurement; trials time short interleaved regions and
    the regression is the median of per-trial variant/baseline ratios,
    which cancels the machine-load drift that would otherwise swallow a
    few-percent signal.
    """
    lines = synthetic_request_lines(n_requests)
    sample_every = 16

    def opted_in(stream: List[str], every: int) -> List[str]:
        out = []
        for index, line in enumerate(stream):
            if index % every == 0:
                payload = json.loads(line)
                payload["trace"] = True
                line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            out.append(line)
        return out

    passes = 2

    def make_runner(stack: contextlib.ExitStack, stream: List[str]) -> Callable[[], None]:
        cache = LRUResultCache(max_entries=4 * n_requests)
        service = stack.enter_context(ScheduleService(batch_size=16, cache=cache))

        def run() -> None:
            for _ in range(passes):
                serve_lines(iter(stream), service, io.StringIO())

        run()  # warm the variant's cache outside the timed region
        return run

    # Drift-robust timing: the services stay up across the whole
    # measurement (no worker spawn inside timed regions), each trial
    # times the three variants back-to-back over a short region, and
    # only the *ratios* variant/baseline are kept; the regression is the
    # median ratio across trials.  Machine-load drift (CPU steal on
    # shared runners) scales whole trials and cancels in their ratios,
    # where a min-of-absolute-times estimator would swallow the
    # few-percent signal whole.
    trials = max(10 * runs, 40)
    samples: Dict[str, List[float]] = {}
    with contextlib.ExitStack() as stack:
        runners = {
            "baseline": make_runner(stack, lines),
            "sampled": make_runner(stack, opted_in(lines, sample_every)),
            "traced_all": make_runner(stack, opted_in(lines, 1)),
        }
        samples = {name: [] for name in runners}
        for _ in range(trials):
            for name, run in runners.items():
                start = time.perf_counter()
                run()
                samples[name].append(time.perf_counter() - start)

    def stats(name: str) -> Dict[str, float]:
        values = samples[name]
        return {
            "mean_s": sum(values) / len(values),
            "min_s": min(values),
            "max_s": max(values),
        }

    def median_ratio(name: str) -> float:
        ratios = sorted(
            variant / base
            for variant, base in zip(samples[name], samples["baseline"])
        )
        middle = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[middle]
        return (ratios[middle - 1] + ratios[middle]) / 2.0

    baseline = stats("baseline")
    sampled = stats("sampled")
    traced_all = stats("traced_all")
    responses_per_run = passes * n_requests
    baseline_rps = responses_per_run / baseline["min_s"]
    sampled_ratio = median_ratio("sampled")
    traced_all_ratio = median_ratio("traced_all")
    return {
        **sampled,
        "baseline_mean_s": baseline["mean_s"],
        "baseline_min_s": baseline["min_s"],
        "baseline_rps": baseline_rps,
        "rps": baseline_rps / sampled_ratio,
        "rps_regression": 1.0 - 1.0 / sampled_ratio,
        "traced_all_min_s": traced_all["min_s"],
        "traced_all_rps": baseline_rps / traced_all_ratio,
        "traced_all_rps_regression": 1.0 - 1.0 / traced_all_ratio,
        "runs": trials,
        "params": {
            "n_requests": n_requests,
            "passes": passes,
            "cache": "warm",
            "trace": f"1-in-{sample_every} sampled",
            "timing": "interleaved median-ratio",
        },
    }


def run_suite(runs: int, n_requests: int) -> Dict[str, Dict[str, Any]]:
    """Execute every benchmark; returns the ``BENCH_service.json`` payload."""
    return {
        "_meta": {"git_sha": _git_sha(), "runs": runs},
        "engine_simulate": bench_engine_simulate(runs),
        "engine_simulate_batched": bench_engine_simulate_batched(runs),
        "request_canonicalize": bench_request_canonicalize(runs),
        "service_unique_stream": bench_service_unique_stream(runs, n_requests),
        "service_cached_stream": bench_service_cached_stream(runs, n_requests),
        "service_persistent_rps": bench_service_persistent_rps(runs, n_requests),
        "service_chaos_rps": bench_service_chaos_rps(runs, n_requests),
        "service_warm_restart": bench_service_warm_restart(runs, n_requests),
        "service_observability_overhead": bench_service_observability_overhead(
            runs, n_requests
        ),
    }


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Run the timed engine+service suite and write BENCH_service.json."
    )
    parser.add_argument(
        "--output", default="BENCH_service.json", help="where to write the results"
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="timed repetitions per benchmark"
    )
    parser.add_argument(
        "--requests", type=int, default=64, help="stream length of the service benchmarks"
    )
    args = parser.parse_args(argv)
    if args.runs < 1 or args.requests < 1:
        parser.error("--runs and --requests must be >= 1")

    results = run_suite(args.runs, args.requests)
    Path(args.output).write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    benches = {name: entry for name, entry in results.items() if name != "_meta"}
    width = max(len(name) for name in benches)
    for name, entry in sorted(benches.items()):
        extra = ""
        if "speedup_vs_reference" in entry:
            extra = f"  ({entry['speedup_vs_reference']:.1f}x vs reference)"
        print(
            f"{name:<{width}}  {entry['mean_s'] * 1e3:9.2f} ms  "
            f"(min {entry['min_s'] * 1e3:.2f}, x{entry['runs']}){extra}"
        )
    print(f"git sha: {results['_meta']['git_sha']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
