#!/usr/bin/env python
"""Chaos harness: drive real shard servers through a seeded fault schedule.

End-to-end verification of the self-healing stack.  The harness boots a
real ``repro serve --listen ... --shards N`` supervisor tree, streams a
deterministic loadgen request file through a resilient
:class:`~repro.service.sharding.ShardedClient`, and — at seeded
request-count boundaries from a :class:`~repro.service.faults.FaultSchedule`
— fires *actual* faults at the server processes:

* ``crash``  — SIGKILL the shard's current child process (the supervisor
  must restart it on its original port with capped backoff);
* ``stall``  — SIGSTOP the child for the event's duration, then SIGCONT
  (the shard is alive but silent: the client's request timeout must fire);
* ``drop``   — abort the client's TCP connection to the shard mid-stream
  (the retry path must resubmit the in-flight requests).

The run then asserts the self-healing invariants the test suite and CI
rely on:

1. **zero lost requests** — every submitted request resolves to a
   terminal response: ``ok``, or a typed degradation
   (``shard-unavailable`` / ``shard-timeout``), never a drop or hang;
2. **byte-identity** — every ``ok`` response (server-served *or*
   breaker-degraded local execution) is byte-identical to the serial
   ``repro serve`` baseline for the same request, by the determinism
   contract;
3. **recovery** — every SIGKILLed shard is restarted and serving again
   by end of run, its stats payload reporting ``restarts >= 1``;
4. **no hot-loop** — every restart delay announced by the supervisor
   respects the capped-backoff policy's lower bound.

Everything is derived from ``--seed`` (request stream, fault schedule,
supervisor jitter), so a failing run is re-driven unchanged.  With
``--strict`` (crash-only schedules) the harness additionally requires
every response to be ``ok`` — the CI smoke configuration.

Run with::

    PYTHONPATH=src python tools/chaos.py --shards 3 --requests 500 \\
        --specs crash:1@120 stall:2@240:1.0 --report chaos_report.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import generate_lines  # noqa: E402  (tools/ path bootstrap)

from repro._hashing import canonical_json  # noqa: E402
from repro.service.cache import LRUResultCache  # noqa: E402
from repro.service.dispatcher import ScheduleService  # noqa: E402
from repro.service.faults import FaultSchedule  # noqa: E402
from repro.service.server import serve_lines  # noqa: E402
from repro.service.sharding import ShardedClient  # noqa: E402

#: Error types that count as *typed degradation* (terminal, never lost).
DEGRADED_TYPES = {"shard-unavailable", "shard-timeout"}

#: Supervisor spawn announcements: ``shard I/N: host:port pid=P restarts=K``.
_SPAWN_RE = re.compile(
    r"shard (\d+)/\d+: \S+ pid=(\d+) restarts=(\d+)"
)
#: Supervisor backoff announcements: ``... restart K in D s (crash C/M)``.
_RESTART_RE = re.compile(r"restart \d+ in ([0-9.]+)s")


class SupervisorTree:
    """One ``repro serve --shards N`` process tree plus its stderr watcher.

    The watcher thread parses the supervisor's spawn announcements to
    maintain a live ``shard index -> current pid`` map (SIGKILL must aim
    at the *current* incarnation, which changes across restarts) and
    collects the announced restart delays for the backoff audit.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        base_port: int,
        extra_flags: Optional[List[str]] = None,
    ) -> None:
        self.n_shards = args.shards
        self.base_port = base_port
        self.pids: Dict[int, int] = {}
        #: Every shard pid ever announced — shutdown must SIGCONT/reap all
        #: incarnations, not just the current ones (a replaced pid can
        #: still be a stopped zombie if a stall raced a restart).
        self.all_pids: "set[int]" = set()
        self.restart_delays: List[float] = []
        self.stderr_lines: List[str] = []
        self._lock = threading.Lock()
        command = [
            sys.executable, "-m", "repro", "serve",
            "--listen", f"127.0.0.1:{base_port}",
            "--shards", str(args.shards),
            "--restart-base-delay", str(args.restart_base_delay),
            "--restart-limit", str(args.restart_limit),
            "--quiet",
        ] + list(extra_flags or [])
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
        self.process = subprocess.Popen(
            command, env=env, stderr=subprocess.PIPE, text=True
        )
        self._watcher = threading.Thread(target=self._watch_stderr, daemon=True)
        self._watcher.start()

    def _watch_stderr(self) -> None:
        """Thread body: mirror and parse the supervisor's stderr stream."""
        assert self.process.stderr is not None
        for line in self.process.stderr:
            with self._lock:
                self.stderr_lines.append(line.rstrip("\n"))
                spawn = _SPAWN_RE.search(line)
                if spawn:
                    pid = int(spawn.group(2))
                    self.pids[int(spawn.group(1)) - 1] = pid
                    self.all_pids.add(pid)
                delay = _RESTART_RE.search(line)
                if delay:
                    self.restart_delays.append(float(delay.group(1)))

    def pid_of(self, shard: int) -> Optional[int]:
        """The shard's current child pid, if a spawn has been announced."""
        with self._lock:
            return self.pids.get(shard)

    def signal_shard(self, shard: int, signum: int) -> bool:
        """Send ``signum`` to the shard's current child; returns success."""
        pid = self.pid_of(shard)
        if pid is None:
            return False
        try:
            os.kill(pid, signum)
            return True
        except ProcessLookupError:
            return False

    def wait_ready(self, timeout: float = 20.0) -> None:
        """Block until every shard port accepts connections."""
        deadline = time.monotonic() + timeout
        for index in range(self.n_shards):
            while True:
                try:
                    socket.create_connection(
                        ("127.0.0.1", self.base_port + index), timeout=0.2
                    ).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"shard {index} never came up on port "
                            f"{self.base_port + index}"
                        )
                    time.sleep(0.05)

    def _known_pids(self) -> List[int]:
        """Every shard pid ever announced, snapshotted under the lock."""
        with self._lock:
            return sorted(self.all_pids)

    @staticmethod
    def _signal_pid(pid: int, signum: int) -> bool:
        """Best-effort ``kill``; False when the pid is gone/foreign."""
        try:
            os.kill(pid, signum)
            return True
        except OSError:
            return False

    def shutdown(self) -> None:
        """SIGCONT every shard, SIGTERM the supervisor, reap the whole tree.

        Idempotent, and safe to call on *any* exit path (normal drain,
        drain timeout, KeyboardInterrupt): a SIGSTOPped shard ignores the
        supervisor's forwarded SIGTERM, so every child we ever saw is
        resumed first, and any shard still alive after the supervisor is
        gone — e.g. orphaned by a SIGKILLed supervisor — is reaped by pid
        so an interrupted run can never leak stopped processes.
        """
        for pid in self._known_pids():
            self._signal_pid(pid, signal.SIGCONT)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._watcher.is_alive():
            self._watcher.join(timeout=2.0)
        # The shards are grandchildren (the supervisor's children), so
        # there is no waitpid to collect here — SIGKILL after SIGCONT is
        # terminal, and init adopts+reaps the orphans.
        leaked = []
        for pid in self._known_pids():
            if self._signal_pid(pid, 0):
                self._signal_pid(pid, signal.SIGCONT)
                if self._signal_pid(pid, signal.SIGKILL):
                    leaked.append(pid)
        if leaked:
            print(
                f"chaos: reaped {len(leaked)} leftover shard process(es) "
                f"{leaked}",
                file=sys.stderr,
            )


def _free_base_port(n_shards: int) -> int:
    """A base port with ``n_shards`` consecutive free ports above it."""
    for _ in range(64):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        base = probe.getsockname()[1]
        probe.close()
        if base + n_shards >= 65535:
            continue
        try:
            for offset in range(n_shards):
                check = socket.socket()
                check.bind(("127.0.0.1", base + offset))
                check.close()
            return base
        except OSError:
            continue
    raise RuntimeError("could not find a free consecutive port range")


def summarize_telemetry(
    payloads: List[Dict[str, Any]],
) -> "tuple[Dict[str, Any], List[str]]":
    """Per-shard server-side telemetry from ``{"type": "metrics"}`` payloads.

    Returns ``(summary, problems)``: one row per answering shard with the
    server-side latency quantiles, batch-assembly wait, cache hit rate,
    shed/slow counts and restart gauge the audits assert on, plus one
    problem string per shard whose metrics endpoint did not answer.
    """
    summary: Dict[str, Any] = {}
    problems: List[str] = []
    for index, payload in enumerate(payloads):
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"shard {index}: metrics endpoint unavailable")
            continue
        counters = metrics["counters"]
        histograms = metrics["histograms"]
        hits = counters["cache.hits"]
        misses = counters["cache.misses"]
        lookups = hits + misses
        summary[str(index)] = {
            "responded": counters["service.responded"],
            "p50_ms": histograms["service.request_ms"]["p50"],
            "p99_ms": histograms["service.request_ms"]["p99"],
            "batch_wait_p95_ms": histograms["service.batch_assembly_ms"]["p95"],
            "cache_hit_rate": round(hits / lookups, 4) if lookups else None,
            "shed": (
                counters["service.shed_queue_full"] + counters["service.shed_cost"]
            ),
            "slow": counters["service.slow_requests"],
            "restarts": metrics["gauges"]["server.restarts"],
        }
    return summary, problems


def format_telemetry_table(summary: Dict[str, Any]) -> List[str]:
    """Render a :func:`summarize_telemetry` summary as aligned table lines."""
    header = (
        f"{'shard':>5} {'responded':>9} {'p50ms':>8} {'p99ms':>8} "
        f"{'bwait95':>8} {'hit%':>6} {'shed':>6} {'slow':>6} {'restarts':>8}"
    )
    lines = [header, "-" * len(header)]
    for shard, row in sorted(summary.items(), key=lambda item: int(item[0])):
        hit_rate = row["cache_hit_rate"]
        hit_text = f"{100.0 * hit_rate:5.1f}" if hit_rate is not None else "    -"
        lines.append(
            f"{shard:>5} {row['responded']:>9} {row['p50_ms']:>8.2f} "
            f"{row['p99_ms']:>8.2f} {row['batch_wait_p95_ms']:>8.2f} "
            f"{hit_text:>6} {row['shed']:>6} {row['slow']:>6} "
            f"{row['restarts']:>8.0f}"
        )
    return lines


def serial_baseline(lines: List[str]) -> Dict[str, str]:
    """The byte-identity oracle: every request served serially, in-process.

    Returns ``request id -> canonical response line``.  Uses the same
    dispatcher pipeline as the real server, so any divergence observed
    later is a resilience bug, not a config mismatch.
    """

    class _Sink:
        def __init__(self) -> None:
            self.lines: List[str] = []

        def write(self, text: str) -> None:
            if text.strip():
                self.lines.append(text.rstrip("\n"))

        def flush(self) -> None:
            """File-object protocol; nothing buffered."""

    sink = _Sink()
    with ScheduleService(
        batch_size=16, max_queue=256, cache=LRUResultCache(max_entries=1024)
    ) as service:
        serve_lines(lines, service, sink)
    baseline = {}
    for line, response_text in zip(lines, sink.lines):
        baseline[json.loads(line)["id"]] = response_text
    return baseline


async def drive(
    args: argparse.Namespace,
    tree: SupervisorTree,
    lines: List[str],
    schedule: FaultSchedule,
) -> Dict[str, Any]:
    """Stream the request file, firing due faults before each submission."""
    fired: List[Dict[str, Any]] = []
    killed_shards: "set[int]" = set()
    stalled_shards: "set[int]" = set()
    loop = asyncio.get_running_loop()

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
            shard = client._shards[event.shard]  # noqa: SLF001 - chaos harness
            writer = shard.writer
            if writer is not None and writer.transport is not None:
                writer.transport.abort()
            else:
                record["ok"] = False
        fired.append(record)

    futures = []
    try:
        for submitted, line in enumerate(lines):
            for event in schedule.due(submitted):
                fire(event)
            futures.append(await client.submit(line))
        responses = await asyncio.wait_for(
            asyncio.gather(*futures), timeout=args.drain_timeout
        )

        # Recovery check: every killed shard must be serving again.  The
        # stats probe doubles as the breaker's half-open probe, so poll
        # until the payload is a real stats response with restarts >= 1.
        recovery: Dict[int, Dict[str, Any]] = {}
        deadline = time.monotonic() + args.recovery_timeout
        pending_shards = set(killed_shards)
        while pending_shards and time.monotonic() < deadline:
            payloads = await client.stats()
            for shard in sorted(pending_shards):
                payload = payloads[shard]
                stats = payload.get("stats", {})
                if payload.get("status") == "ok" and (
                    stats.get("shard", {}).get("restarts", 0) >= 1
                ):
                    recovery[shard] = {
                        "restarts": stats["shard"]["restarts"],
                        "uptime_s": stats["uptime_s"],
                    }
                    pending_shards.discard(shard)
            if pending_shards:
                await asyncio.sleep(0.2)

        # Observability audit inputs.  Settle the breakers first (a
        # drop/stall-only schedule never enters the recovery loop, whose
        # stats probes double as half-open probes), then scrape every
        # shard's metrics endpoint and fire the sampled trace requests.
        # Fresh seeds + a heavy task count keep every sample an uncached
        # simulation whose server-side spans dominate the round trip.
        settle_deadline = time.monotonic() + 5.0
        while time.monotonic() < settle_deadline:
            if all(
                shard.breaker.state == "closed"
                for shard in client._shards  # noqa: SLF001 - chaos harness
            ):
                break
            await client.stats()
            await asyncio.sleep(0.1)
        telemetry = await client.metrics()
        trace_samples: List[Dict[str, Any]] = []
        for sample in range(args.trace_samples):
            # Coverage compares server-side span time against the client's
            # observed round trip; a loaded machine can delay the client
            # event loop by milliseconds, so each sample gets a few
            # attempts and keeps its best-covered one.  Every attempt uses
            # a *fresh* seed — a repeated seed would hit the result cache
            # and collapse the trace to the (tiny) hit-path spans.
            best: Optional[Dict[str, Any]] = None
            for attempt in range(3):
                payload = {
                    "platform": {"comm": [0.2, 0.5, 1.0], "comp": [1.0, 2.0, 4.0]},
                    "tasks": {
                        "process": "all-at-zero",
                        "n": args.trace_sample_tasks,
                    },
                    "scheduler": "LS",
                    "seed": 9_000_000 + 10 * sample + attempt,
                    "id": f"trace-sample-{sample:03d}",
                    "trace": True,
                }
                t0 = time.perf_counter()
                response_text = await (await client.submit(canonical_json(payload)))
                client_ms = (time.perf_counter() - t0) * 1000.0
                response = json.loads(response_text)
                trace = response.get("trace")
                record = {
                    "id": payload["id"],
                    "status": response.get("status"),
                    "client_ms": round(client_ms, 3),
                    "trace": trace,
                    "attempts": attempt + 1,
                }
                coverage = (
                    trace["total_ms"] / client_ms
                    if isinstance(trace, dict) and client_ms > 0
                    else 0.0
                )
                if best is None or coverage > best["_coverage"]:
                    best = {**record, "_coverage": coverage}
                if response.get("status") == "ok" and coverage >= args.min_trace_coverage:
                    break
            best.pop("_coverage")
            trace_samples.append(best)
    finally:
        # A SIGSTOPed child ignores SIGTERM until resumed — if the stream
        # drained before a stall's resume timer fired, resume it here so
        # shutdown can never leak a stopped process (extra SIGCONT to a
        # running process is a no-op).
        for shard in stalled_shards:
            tree.signal_shard(shard, signal.SIGCONT)
        await client.close()

    return {
        "responses": list(responses),
        "fired": fired,
        "killed_shards": sorted(killed_shards),
        "unrecovered_shards": sorted(pending_shards),
        "recovery": {str(k): v for k, v in sorted(recovery.items())},
        "telemetry": telemetry,
        "trace_samples": trace_samples,
        "client": client.client_stats(),
    }


def audit(
    args: argparse.Namespace,
    lines: List[str],
    baseline: Dict[str, str],
    outcome: Dict[str, Any],
    tree: SupervisorTree,
) -> Dict[str, Any]:
    """Check the four self-healing invariants; returns the report dict."""
    failures: List[str] = []
    responses = outcome["responses"]
    ok_count = degraded_count = 0
    mismatches: List[str] = []

    if len(responses) != len(lines):
        failures.append(
            f"lost requests: {len(lines) - len(responses)} of {len(lines)} "
            "never resolved"
        )
    for line, response_text in zip(lines, responses):
        request_id = json.loads(line)["id"]
        response = json.loads(response_text)
        status = response.get("status")
        if status == "ok":
            ok_count += 1
            if response_text != baseline[request_id]:
                mismatches.append(request_id)
        elif (
            status == "error"
            and response.get("error", {}).get("type") in DEGRADED_TYPES
        ):
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
    if args.strict and degraded_count:
        failures.append(
            f"--strict: {degraded_count} typed-degradation response(s), "
            "expected every response ok"
        )
    if outcome["unrecovered_shards"]:
        failures.append(
            f"killed shard(s) {outcome['unrecovered_shards']} not serving "
            "again by end of run"
        )

    # Observability audit: every shard's metrics endpoint must answer with
    # the server-side telemetry the report surfaces, and every sampled
    # trace must carry spans that tile (sum to) the server-side total and
    # cover at least --min-trace-coverage of the client-observed latency.
    telemetry, telemetry_problems = summarize_telemetry(outcome["telemetry"])
    failures.extend(telemetry_problems)
    trace_audit: List[Dict[str, Any]] = []
    for sample in outcome["trace_samples"]:
        trace = sample["trace"]
        if sample["status"] != "ok" or not isinstance(trace, dict):
            failures.append(
                f"{sample['id']}: no trace attached "
                f"(status {sample['status']})"
            )
            continue
        span_sum = sum(span["ms"] for span in trace["spans"])
        if abs(span_sum - trace["total_ms"]) > 1e-6:
            failures.append(
                f"{sample['id']}: spans sum to {span_sum:.6f}ms but "
                f"total_ms is {trace['total_ms']:.6f}ms (overlap/gap)"
            )
        coverage = (
            trace["total_ms"] / sample["client_ms"] if sample["client_ms"] else 0.0
        )
        trace_audit.append(
            {
                "id": sample["id"],
                "client_ms": sample["client_ms"],
                "total_ms": round(trace["total_ms"], 3),
                "spans": [span["name"] for span in trace["spans"]],
                "coverage": round(coverage, 4),
            }
        )
        if coverage < args.min_trace_coverage:
            failures.append(
                f"{sample['id']}: trace covers {coverage:.1%} of the "
                f"client-observed latency (< {args.min_trace_coverage:.0%})"
            )

    # No-hot-loop audit: every announced restart delay must respect the
    # policy's jittered lower bound (the first attempt's is the smallest).
    min_delay = args.restart_base_delay * 0.9
    too_fast = [d for d in tree.restart_delays if d < min_delay]
    if too_fast:
        failures.append(
            f"restart delay(s) {too_fast} below the backoff floor "
            f"{min_delay:.3f}s (hot-loop respawn)"
        )
    increasing = all(
        later >= earlier * 0.9
        for earlier, later in zip(tree.restart_delays, tree.restart_delays[1:])
    )

    return {
        "requests": len(lines),
        "responses": len(responses),
        "ok": ok_count,
        "degraded": degraded_count,
        "lost": len(lines) - len(responses),
        "byte_mismatches": len(mismatches),
        "fired": outcome["fired"],
        "killed_shards": outcome["killed_shards"],
        "recovery": outcome["recovery"],
        "restart_delays": tree.restart_delays,
        "restart_delays_monotone": increasing,
        "telemetry": telemetry,
        "trace_samples": trace_audit,
        "client": outcome["client"],
        "failures": failures,
    }


def main(argv=None) -> int:
    """CLI entry point; exit 0 iff every invariant held."""
    parser = argparse.ArgumentParser(
        description=(
            "Boot a sharded repro server, stream a deterministic load "
            "through a resilient client while firing a seeded fault "
            "schedule, and assert zero lost requests."
        )
    )
    parser.add_argument("--shards", type=int, default=3, help="shard count")
    parser.add_argument("--requests", type=int, default=500, help="stream length")
    parser.add_argument("--seed", type=int, default=2006, help="run seed (stream + schedule)")
    parser.add_argument(
        "--specs",
        nargs="*",
        default=None,
        metavar="KIND:SHARD@REQ[:DUR]",
        help=(
            "explicit fault events (e.g. crash:1@120 stall:2@240:1.0); "
            "default: a correlated-burst schedule sampled from --seed"
        ),
    )
    parser.add_argument(
        "--bursts", type=int, default=2, help="sampled schedule: burst count"
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
        "--max-inflight", type=int, default=32, help="client in-flight window"
    )
    parser.add_argument(
        "--restart-base-delay", type=float, default=0.25,
        help="supervisor backoff base (kept small so runs stay fast)",
    )
    parser.add_argument(
        "--restart-limit", type=int, default=5, help="supervisor crash-loop give-up"
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=120.0,
        help="hard cap on waiting for the response stream (hang -> failure)",
    )
    parser.add_argument(
        "--recovery-timeout", type=float, default=30.0,
        help="seconds to wait for killed shards to serve again",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="require every response ok (crash-only schedules: degradation "
        "is absorbed by retry + local execution)",
    )
    parser.add_argument(
        "--trace-samples", type=int, default=5,
        help="sampled trace requests fired after recovery (0 disables)",
    )
    parser.add_argument(
        "--trace-sample-tasks", type=int, default=800,
        help="tasks per sampled trace request (heavy enough that the "
        "simulate span dominates the round trip)",
    )
    parser.add_argument(
        "--min-trace-coverage", type=float, default=0.9,
        help="minimum fraction of the client-observed latency the trace's "
        "server-side spans must cover",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the JSON chaos report to FILE",
    )
    args = parser.parse_args(argv)
    if args.shards < 1 or args.requests < 1:
        parser.error("--shards and --requests must be >= 1")

    # The request stream reuses loadgen's deterministic generator.
    stream_args = argparse.Namespace(
        seed=args.seed, unique=16, workers=4, tasks=40,
        rate=10.0, period=20.0, requests=args.requests,
    )
    lines = generate_lines(stream_args)
    if args.specs:
        schedule = FaultSchedule.from_specs(args.specs)
    else:
        schedule = FaultSchedule.correlated_bursts(
            args.seed, n_shards=args.shards, n_requests=args.requests,
            n_bursts=args.bursts,
        )
    print(f"chaos: schedule {schedule.to_specs()}", file=sys.stderr)

    baseline = serial_baseline(lines)
    # --trace lets the sampled trace requests opt in to span timings.
    tree = SupervisorTree(args, _free_base_port(args.shards), extra_flags=["--trace"])
    try:
        tree.wait_ready()
        outcome = asyncio.run(drive(args, tree, lines, schedule))
    except asyncio.TimeoutError:
        print(
            f"chaos: FAILED - response stream did not drain within "
            f"{args.drain_timeout}s (lost/hung requests)",
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        # The finally below resumes + reaps the whole tree, so an
        # interrupted run leaves no stopped shards behind.
        print("chaos: interrupted - reaping the supervised tree", file=sys.stderr)
        return 130
    finally:
        tree.shutdown()

    report = audit(args, lines, baseline, outcome, tree)
    report["schedule"] = schedule.summary()
    report["seed"] = args.seed
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    verdict = "PASSED" if not report["failures"] else "FAILED"
    print(
        f"chaos: {verdict} - {report['ok']}/{report['requests']} ok, "
        f"{report['degraded']} degraded, {report['lost']} lost, "
        f"{report['byte_mismatches']} byte mismatch(es), "
        f"restarts {report['recovery'] or '{}'}, "
        f"client {report['client']}",
        file=sys.stderr,
    )
    for line in format_telemetry_table(report["telemetry"]):
        print(f"chaos: {line}", file=sys.stderr)
    for sample in report["trace_samples"]:
        print(
            f"chaos: trace {sample['id']}: {sample['total_ms']:.2f}ms "
            f"server-side over {sample['client_ms']:.2f}ms observed "
            f"({sample['coverage']:.1%}; spans {'>'.join(sample['spans'])})",
            file=sys.stderr,
        )
    for failure in report["failures"]:
        print(f"chaos:   FAIL {failure}", file=sys.stderr)
    return 0 if not report["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
