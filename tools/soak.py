#!/usr/bin/env python
"""Soak harness: wall-clock fault + pressure run against a durable shard tree.

``tools/chaos.py`` fires single seeded fault schedules at a
request-count granularity; this harness answers the longer question the
ROADMAP asks — does the self-healing *and* the new durability layer hold
up over sustained wall-clock time under **combined** stress?  One run:

1. boots a real ``repro serve --listen --shards N --state-dir ...``
   supervisor tree, so every shard journals its cache and warm-loads it
   on restart (:mod:`repro.service.persistence`);
2. drives open-loop load for ``--duration`` seconds: a deterministic
   loadgen request pool is cycled through a resilient
   :class:`~repro.service.sharding.ShardedClient`, alongside a pressure
   stream of requests heavier than the servers' ``--max-cost`` budget, so
   load-shedding (typed ``service-overloaded`` rejections) is part of the
   steady state, not an anomaly;
3. fires an **iterated-Poisson fault burst schedule**
   (:meth:`~repro.service.faults.FaultSchedule.correlated_bursts`,
   arXiv:2501.11322) keyed on elapsed wall-clock centiseconds, clamped to
   the first ~60% of the run so every killed shard has post-restart
   traffic to prove itself on (at least one SIGKILL is always included);
4. after the load window drains, audits the invariants:

   * **zero lost requests** — every submitted request resolved to a
     terminal response (``ok``, typed shed, or typed degradation);
   * **byte-identity** — every ``ok`` response equals the serial
     in-process baseline for the same request id;
   * **bounded degradation** — sheds + degraded responses stay under
     ``--max-nonok-fraction`` of the stream;
   * **recovery** — every SIGKILLed shard is serving again with
     ``restarts >= 1``;
   * **warm restart** — after recovery, the request pool is replayed
     once and the killed shards' ``warm_hits`` counters are strictly
     positive: the restarted shard served journaled results from replayed
     state instead of re-simulating (the PR's acceptance criterion).

Everything is derived from ``--seed``; the fault schedule is printed as
replayable spec strings, so a failing soak can be re-driven.

Run with::

    PYTHONPATH=src python tools/soak.py --shards 3 --duration 30 --report soak.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import tempfile
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from chaos import (  # noqa: E402  (tools/ path bootstrap)
    DEGRADED_TYPES,
    SupervisorTree,
    _free_base_port,
    await_recovery,
    format_telemetry_table,
    serial_baseline,
    summarize_telemetry,
)
from loadgen import generate_lines  # noqa: E402

from repro._hashing import canonical_json  # noqa: E402
from repro.service.faults import FaultSchedule  # noqa: E402
from repro.service.sharding import ShardedClient  # noqa: E402


def build_schedule(args: argparse.Namespace) -> FaultSchedule:
    """The run's fault schedule, on a centisecond wall-clock grid.

    ``correlated_bursts`` places events on a request-count axis; the soak
    driver feeds it elapsed centiseconds instead, with the horizon set to
    the first 60% of ``--duration`` so every fault leaves enough
    post-restart runway for the warm-hit audit.  A crash is always
    appended at the 20% mark if the sampled bursts happened to be
    stall-only — the warm-restart assertion needs at least one SIGKILL.
    """
    horizon_cs = max(int(args.duration * 100 * 0.6), 10)
    sampled = FaultSchedule.correlated_bursts(
        args.seed,
        n_shards=args.shards,
        n_requests=horizon_cs,
        n_bursts=args.bursts,
    )
    specs = sampled.to_specs()
    if not any(event.kind == "crash" for event in sampled.events):
        specs.append(f"crash:0@{max(horizon_cs // 3, 1)}")
    return FaultSchedule.from_specs(specs)


async def pressure_loop(
    args: argparse.Namespace,
    tree: SupervisorTree,
    pressure_lines: List[str],
    stop: asyncio.Event,
) -> List[str]:
    """The shedding-pressure stream: continuous *uncached* simulation load.

    The cycled main stream is cache-hot, so on its own it exercises no
    admission control.  This second client keeps real work in the
    dispatch queues for the whole window by re-seeding every request each
    cycle — a fresh seed means a fresh canonical key, so every submission
    is a genuine simulation, not a cache hit — and its pool is drawn
    *heavier* than the server's ``--max-cost`` admission budget, so its
    heavy tail is deterministically shed with typed ``service-overloaded``
    rejections.  Returns the terminal response lines (audited for
    typed-termination and counted for shed pressure; byte-identity is the
    main stream's job).
    """
    responses: List[str] = []
    window: "deque[asyncio.Future]" = deque()
    async with ShardedClient.from_base(
        "127.0.0.1",
        tree.base_port,
        args.shards,
        max_inflight=args.pressure_inflight,
        request_timeout=args.timeout,
        max_retries=1,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    ) as client:
        cycle = 0
        while not stop.is_set():
            for line in pressure_lines:
                if stop.is_set():
                    break
                payload = json.loads(line)
                # A new seed every cycle keeps the key-space fresh: the
                # pressure stream can never warm itself into irrelevance.
                payload["seed"] = cycle * 997 + payload.get("seed", 0) % 997
                while len(window) >= args.pressure_inflight:
                    responses.append(await window.popleft())
                window.append(await client.submit(canonical_json(payload)))
            cycle += 1
        while window:
            responses.append(await window.popleft())
    return responses


async def drive(
    args: argparse.Namespace,
    tree: SupervisorTree,
    lines: List[str],
    pressure_lines: List[str],
    schedule: FaultSchedule,
) -> Dict[str, Any]:
    """Run the wall-clock load window, firing due faults as time passes.

    Returns the raw outcome: ``(line, response)`` pairs for every
    submitted request, the pressure stream's terminal responses, the
    fired fault records, and — after the drain — the killed shards'
    recovery/warm-hit evidence.
    """
    fired: List[Dict[str, Any]] = []
    killed_shards: "set[int]" = set()
    stalled_shards: "set[int]" = set()
    pairs: List[Tuple[str, str]] = []
    window: "deque[Tuple[str, asyncio.Future]]" = deque()
    loop = asyncio.get_running_loop()
    stop_pressure = asyncio.Event()
    pressure_task = (
        asyncio.ensure_future(
            pressure_loop(args, tree, pressure_lines, stop_pressure)
        )
        if pressure_lines
        else None
    )

    client = ShardedClient.from_base(
        "127.0.0.1",
        tree.base_port,
        args.shards,
        max_inflight=args.max_inflight,
        request_timeout=args.timeout,
        max_retries=args.retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    await client.connect()

    def fire(event) -> None:
        record = {"spec": event.to_spec(), "ok": True}
        if event.kind == "crash":
            record["ok"] = tree.signal_shard(event.shard, signal.SIGKILL)
            killed_shards.add(event.shard)
        elif event.kind == "stall":
            if tree.signal_shard(event.shard, signal.SIGSTOP):
                stalled_shards.add(event.shard)
                loop.call_later(
                    event.duration,
                    lambda shard=event.shard: tree.signal_shard(
                        shard, signal.SIGCONT
                    ),
                )
            else:
                record["ok"] = False
        elif event.kind == "drop":
            shard = client._shards[event.shard]  # noqa: SLF001 - soak harness
            writer = shard.writer
            if writer is not None and writer.transport is not None:
                writer.transport.abort()
            else:
                record["ok"] = False
        fired.append(record)

    async def settle() -> None:
        line, future = window.popleft()
        pairs.append((line, await future))

    started = time.perf_counter()
    try:
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= args.duration:
                break
            for event in schedule.due(int(elapsed * 100)):
                fire(event)
            while len(window) >= args.max_inflight:
                await settle()
            line = lines[index % len(lines)]
            index += 1
            window.append((line, await client.submit(line)))
        while window:
            await settle()

        # The window is over: stop the pressure stream and let it drain
        # before the recovery/warm audits, so the replayed pool below is
        # measured against an otherwise-idle tree.
        stop_pressure.set()
        pressure_responses: List[str] = (
            await pressure_task if pressure_task is not None else []
        )

        # Recovery: every killed shard must be serving again.  The metrics
        # probe doubles as the breaker's half-open probe.
        recovery = await await_recovery(client, killed_shards, args.recovery_timeout)

        # Warm-restart evidence: replay the pool once more (its keys were
        # cached and journaled before the kills), then read each killed
        # shard's warm-hit counter off its replayed cache.
        replay_futures = [await client.submit(line) for line in lines]
        await asyncio.gather(*replay_futures)
        warm: Dict[int, Dict[str, Any]] = {}
        payloads = await client.metrics()
        for shard in sorted(killed_shards):
            metrics = payloads[shard].get("metrics")
            if not isinstance(metrics, dict):
                warm[shard] = {"warm_hits": 0, "size": 0, "journal_entries": None}
                continue
            warm[shard] = {
                "warm_hits": metrics["counters"]["cache.warm_hits"],
                "size": metrics["gauges"]["cache.size"],
                "journal_entries": metrics["gauges"]["cache.journal_entries"],
            }

        # Final server-side telemetry scrape: the audit summarizes each
        # shard's own latency quantiles, batch wait, hit rate and shed
        # counts — the soak's verdict table comes from the servers, not
        # from client-side observation.
        telemetry = await client.metrics()
    finally:
        stop_pressure.set()
        if pressure_task is not None and not pressure_task.done():
            pressure_task.cancel()
            try:
                await pressure_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        for shard in stalled_shards:
            tree.signal_shard(shard, signal.SIGCONT)
        await client.close()

    return {
        "pairs": pairs,
        "pressure_responses": pressure_responses,
        "submitted": len(pairs) + len(window),
        "elapsed_s": time.perf_counter() - started,
        "fired": fired,
        "killed_shards": sorted(killed_shards),
        "unrecovered_shards": sorted(killed_shards - set(recovery)),
        "recovery": {str(k): v for k, v in sorted(recovery.items())},
        "warm": {str(k): v for k, v in sorted(warm.items())},
        "telemetry": telemetry,
        "client": client.client_stats(),
    }


def audit(
    args: argparse.Namespace,
    baseline: Dict[str, str],
    outcome: Dict[str, Any],
) -> Dict[str, Any]:
    """Check the soak invariants; returns the report dict."""
    failures: List[str] = []
    pairs = outcome["pairs"]
    statuses: Counter = Counter()
    ok_count = shed_count = degraded_count = 0
    mismatches: List[str] = []

    lost = outcome["submitted"] - len(pairs)
    if lost:
        failures.append(
            f"lost requests: {lost} of {outcome['submitted']} never resolved"
        )
    for line, response_text in pairs:
        request_id = json.loads(line)["id"]
        response = json.loads(response_text)
        status = response.get("status")
        statuses[status or "?"] += 1
        error_type = response.get("error", {}).get("type")
        if status == "ok":
            ok_count += 1
            if response_text != baseline[request_id]:
                mismatches.append(request_id)
        elif status == "rejected" and error_type == "service-overloaded":
            shed_count += 1
        elif status == "error" and error_type in DEGRADED_TYPES:
            degraded_count += 1
        else:
            failures.append(
                f"{request_id}: non-terminal/untyped response {response_text[:120]}"
            )
    if mismatches:
        failures.append(
            f"{len(mismatches)} ok response(s) diverge from the serial "
            f"baseline (first: {mismatches[0]})"
        )

    total = max(len(pairs), 1)
    nonok_fraction = (shed_count + degraded_count) / total
    if nonok_fraction > args.max_nonok_fraction:
        failures.append(
            f"degraded+shed fraction {nonok_fraction:.3f} exceeds the "
            f"--max-nonok-fraction bound {args.max_nonok_fraction}"
        )

    # Pressure stream: every response must still be terminal and typed,
    # and the combined run must actually have shed — otherwise the soak
    # exercised no admission-control pressure at all.
    pressure_ok = pressure_shed = pressure_degraded = 0
    for response_text in outcome["pressure_responses"]:
        response = json.loads(response_text)
        status = response.get("status")
        error_type = response.get("error", {}).get("type")
        if status == "ok":
            pressure_ok += 1
        elif status == "rejected" and error_type == "service-overloaded":
            pressure_shed += 1
        elif status == "error" and error_type in DEGRADED_TYPES:
            pressure_degraded += 1
        else:
            failures.append(
                f"pressure stream: non-terminal/untyped response "
                f"{response_text[:120]}"
            )
    shed_total = shed_count + pressure_shed
    if outcome["pressure_responses"] and shed_total < args.min_shed:
        failures.append(
            f"only {shed_total} shed response(s) across both streams "
            f"(--min-shed {args.min_shed}): no admission-control pressure"
        )

    if not outcome["killed_shards"]:
        failures.append("no shard was SIGKILLed — the warm-restart audit needs one")
    if outcome["unrecovered_shards"]:
        failures.append(
            f"killed shard(s) {outcome['unrecovered_shards']} not serving "
            "again by end of run"
        )
    warm_hits_total = sum(
        entry["warm_hits"] for entry in outcome["warm"].values()
    )
    cold = [
        shard
        for shard, entry in outcome["warm"].items()
        if entry["warm_hits"] <= 0
    ]
    if cold:
        failures.append(
            f"killed shard(s) {cold} came back cold: warm_hits == 0 after "
            "the post-restart replay (journal replay did not serve)"
        )

    # Observability: every shard's metrics endpoint must answer, and the
    # per-shard summary (server-side quantiles, batch wait, hit rate,
    # shed/restart counts) rides in the report + the final table.
    telemetry, telemetry_problems = summarize_telemetry(outcome["telemetry"])
    failures.extend(telemetry_problems)

    return {
        "duration_s": args.duration,
        "elapsed_s": round(outcome["elapsed_s"], 3),
        "submitted": outcome["submitted"],
        "responses": len(pairs),
        "lost": lost,
        "ok": ok_count,
        "shed": shed_count,
        "degraded": degraded_count,
        "nonok_fraction": round(nonok_fraction, 4),
        "byte_mismatches": len(mismatches),
        "pressure": {
            "responses": len(outcome["pressure_responses"]),
            "ok": pressure_ok,
            "shed": pressure_shed,
            "degraded": pressure_degraded,
        },
        "shed_total": shed_total,
        "statuses": dict(statuses),
        "fired": outcome["fired"],
        "killed_shards": outcome["killed_shards"],
        "recovery": outcome["recovery"],
        "warm": outcome["warm"],
        "warm_hits_total": warm_hits_total,
        "telemetry": telemetry,
        "client": outcome["client"],
        "failures": failures,
    }


def main(argv=None) -> int:
    """CLI entry point; exit 0 iff every soak invariant held."""
    parser = argparse.ArgumentParser(
        description=(
            "Boot a durable sharded repro server, drive wall-clock load "
            "under iterated-Poisson fault bursts plus admission-control "
            "shedding pressure, and audit zero-lost + warm-restart."
        )
    )
    parser.add_argument("--shards", type=int, default=3, help="shard count")
    parser.add_argument(
        "--duration", type=float, default=30.0, help="load window (wall-clock s)"
    )
    parser.add_argument(
        "--seed", type=int, default=2006, help="run seed (pool + fault schedule)"
    )
    parser.add_argument(
        "--bursts", type=int, default=2, help="sampled fault bursts in the window"
    )
    parser.add_argument(
        "--requests", type=int, default=300,
        help="size of the cycled request pool (smaller = more cache pressure)",
    )
    parser.add_argument(
        "--unique", type=int, default=24, help="distinct configurations in the pool"
    )
    parser.add_argument(
        "--tasks", type=int, default=40, help="maximum tasks per request"
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persistence root handed to the servers (default: a fresh tempdir)",
    )
    parser.add_argument(
        "--journal-max-entries", type=int, default=64,
        help="server-side journal compaction threshold (small = snapshots exercised)",
    )
    parser.add_argument(
        "--server-batch-size", type=int, default=8, help="server dispatch batch"
    )
    parser.add_argument(
        "--server-max-cost", type=int, default=160,
        help="server admission budget on tasks x workers; sized so the "
        "pressure pool's heavy tail sheds while the audited main pool "
        "(tasks <= --tasks, width <= 4) is always admitted",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=48, help="client in-flight window"
    )
    parser.add_argument(
        "--pressure-unique", type=int, default=64,
        help="distinct heavy configurations in the shedding-pressure pool "
        "(0 disables the pressure stream)",
    )
    parser.add_argument(
        "--pressure-tasks", type=int, default=80,
        help="maximum tasks per pressure request (heavier = deeper queues)",
    )
    parser.add_argument(
        "--pressure-inflight", type=int, default=64,
        help="pressure client in-flight window (kept above the servers' "
        "admission bound so shedding actually triggers)",
    )
    parser.add_argument(
        "--min-shed", type=int, default=1,
        help="with the pressure stream on: minimum shed responses the run "
        "must observe across both streams",
    )
    parser.add_argument(
        "--timeout", type=float, default=2.0, help="client per-request deadline (s)"
    )
    parser.add_argument(
        "--retries", type=int, default=2, help="client retry budget per request"
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=1,
        help="consecutive failures that open a shard's circuit breaker",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=0.5,
        help="seconds before an open breaker half-opens",
    )
    parser.add_argument(
        "--restart-base-delay", type=float, default=0.25,
        help="supervisor backoff base (kept small so runs stay fast)",
    )
    parser.add_argument(
        "--restart-limit", type=int, default=5, help="supervisor crash-loop give-up"
    )
    parser.add_argument(
        "--recovery-timeout", type=float, default=30.0,
        help="seconds to wait for killed shards to serve again",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=90.0,
        help="hard cap on the post-window drain + audits (hang -> failure)",
    )
    parser.add_argument(
        "--max-nonok-fraction", type=float, default=0.5,
        help="upper bound on (shed + degraded) / responses",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the JSON soak report to FILE",
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or args.duration <= 0:
        parser.error("--shards must be >= 1 and --duration > 0")
    if args.requests < 1 or args.unique < 1:
        parser.error("--requests and --unique must be >= 1")

    # The request pool reuses loadgen's deterministic generator; the
    # serial baseline is computed once and reused every cycle.
    pool_args = argparse.Namespace(
        seed=args.seed, unique=args.unique, workers=4, tasks=args.tasks,
        rate=10.0, period=20.0, requests=args.requests,
    )
    lines = generate_lines(pool_args)
    baseline = serial_baseline(lines)
    pressure_lines: List[str] = []
    if args.pressure_unique > 0:
        pressure_args = argparse.Namespace(
            seed=args.seed + 1, unique=args.pressure_unique, workers=4,
            tasks=args.pressure_tasks, rate=10.0, period=20.0,
            requests=args.pressure_unique,
        )
        pressure_lines = generate_lines(pressure_args)
    schedule = build_schedule(args)
    print(f"soak: schedule {schedule.to_specs()}", file=sys.stderr)

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-soak-")
    tree = SupervisorTree(
        args,
        _free_base_port(args.shards),
        extra_flags=[
            "--state-dir", state_dir,
            "--journal-max-entries", str(args.journal_max_entries),
            "--batch-size", str(args.server_batch_size),
            "--max-cost", str(args.server_max_cost),
        ],
    )
    async def bounded_drive() -> Dict[str, Any]:
        return await asyncio.wait_for(
            drive(args, tree, lines, pressure_lines, schedule),
            timeout=args.duration + args.drain_timeout,
        )

    try:
        tree.wait_ready()
        outcome = asyncio.run(bounded_drive())
    except asyncio.TimeoutError:
        print(
            f"soak: FAILED - run did not drain within "
            f"{args.duration + args.drain_timeout:.0f}s (lost/hung requests)",
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        print("soak: interrupted - reaping the supervised tree", file=sys.stderr)
        return 130
    finally:
        tree.shutdown()

    report = audit(args, baseline, outcome)
    report["schedule"] = schedule.summary()
    report["seed"] = args.seed
    report["state_dir"] = state_dir
    verdict = "PASSED" if not report["failures"] else "FAILED"
    report["verdict"] = verdict
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(
        f"soak: {verdict} - {report['ok']}/{report['responses']} ok over "
        f"{report['elapsed_s']:.1f}s, {report['shed_total']} shed "
        f"(pressure {report['pressure']}), "
        f"{report['degraded']} degraded, {report['lost']} lost, "
        f"{report['byte_mismatches']} byte mismatch(es), "
        f"warm hits {report['warm']}, client {report['client']}",
        file=sys.stderr,
    )
    for line in format_telemetry_table(report["telemetry"]):
        print(f"soak: {line}", file=sys.stderr)
    for failure in report["failures"]:
        print(f"soak:   FAIL {failure}", file=sys.stderr)
    return 0 if not report["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
