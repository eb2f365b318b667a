#!/usr/bin/env python
"""Fault harness: drive a real shard tree through a seeded fault schedule.

One run boots a durable ``repro serve --listen ... --shards N``
supervisor tree, drives a deterministic loadgen request pool through a
resilient :class:`~repro.service.sharding.ShardedClient`, and fires a
:class:`~repro.service.faults.FaultSchedule` at the shard processes:
``crash`` (scrape the victim's ``cache.size``, then SIGKILL it), ``stall``
(SIGSTOP for the event's duration, then SIGCONT: alive but silent, so the
client's request timeout must fire) and ``drop`` (abort the client's
connection to the shard, so the retry path must resubmit).

The two modes differ only in the fault trigger.  ``--requests N`` streams
the N-line pool once and counts submitted requests; ``--duration S``
cycles it for ``S`` seconds and counts elapsed centiseconds (a sampled
schedule then spans the first 60% of the window, so every killed shard
has post-restart traffic, and always holds a crash).  ``--pressure K``
adds a second client cycling ``K`` re-seeded heavy configurations against
a ``--max-cost`` budget their heavy tail exceeds, so typed load-shedding
is part of the steady state.

After the stream the run waits for every killed shard to restart,
settles the breakers, replays the pool once, scrapes every shard's
metrics and fires a few traced requests.  :func:`audit` then checks:

1. **zero lost** — every submitted request resolved to ``ok``, a typed
   shed or a typed ``shard-unavailable``/``shard-timeout`` error, never a
   drop or a hang;
2. **byte-identity** — every ``ok`` response equals the serial baseline,
   served at batch size 1 while the shards batch 8 (batch 1 ≡ batch N);
3. **bounded non-ok share** — sheds plus unavailable responses are 0
   (``--strict``) or at most half of the main stream;
4. **pressure** — with ``--pressure``, at least one request was shed;
5. **recovery** — every killed shard serves again, answers part of the
   replay, and the replay needed no client-local degraded execution;
6. **warm restart** — every killed shard that held a result at its kill
   reports ``cache.warm_hits > 0``;
7. **bounded journal** — ``cache.journal_entries`` stays within the
   compaction threshold;
8. **bounded memory** — every shard's ``process.max_rss_mib`` (peak RSS)
   stays within :data:`RSS_BOUND_MIB`;
9. **no hot-loop** — every restart delay respects the backoff floor;
10. **trace coverage** — traced spans tile their ``total_ms`` and cover
    at least 90% of the client-observed latency (runs without
    ``--pressure`` only: its budget would shed the traced requests).

Everything derives from ``--seed``, so a failing run is re-driven
unchanged.  The JSON report (``--report FILE``) is written on every run
that reaches the audit, including one whose requests hung.

Run with::

    PYTHONPATH=src python tools/chaos.py --shards 3 --requests 300 \\
        --specs crash:1@150 --strict --report chaos_report.json
    PYTHONPATH=src python tools/chaos.py --shards 3 --duration 30 --pressure 64
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import generate_lines  # noqa: E402  (tools/ path bootstrap)

from repro._hashing import canonical_json  # noqa: E402
from repro.service.cache import LRUResultCache  # noqa: E402
from repro.service.dispatcher import ScheduleService  # noqa: E402
from repro.service.faults import FaultEvent, FaultSchedule  # noqa: E402
from repro.service.server import serve_lines  # noqa: E402
from repro.service.sharding import ShardedClient  # noqa: E402
from repro.service.supervisor import BACKOFF_JITTER  # noqa: E402

#: Error types of a shard the client could not reach in time (typed and
#: terminal, never lost).  A client-local *degraded* answer is ``ok``;
#: the client counts those in ``degraded_responses``.
UNAVAILABLE_TYPES = {"shard-unavailable", "shard-timeout"}

#: Request pool: distinct configurations, and tasks per request.  Requests
#: are at most 4 workers wide, so a pool request costs at most 160.
POOL_UNIQUE = 24
POOL_TASKS = 40
#: Requests the main client keeps in flight (the replay uses it too).
WINDOW = 32
#: Seconds any one wait for responses may take before the run gives up on
#: them: a hung request then counts as lost instead of hanging the run.
DRAIN_TIMEOUT = 120.0

#: Client resilience: per-request deadline (s), retry budget, breaker
#: threshold (consecutive failures) and cooldown (s).
REQUEST_TIMEOUT = 2.0
RETRIES = 2
BREAKER_THRESHOLD = 1
BREAKER_COOLDOWN = 0.5

#: Supervisor backoff base (s), kept small so runs stay fast, and its
#: crash-loop give-up.
RESTART_BASE_DELAY = 0.25
RESTART_LIMIT = 5
#: Seconds to wait for killed shards to serve again and breakers to close.
RECOVERY_TIMEOUT = 30.0

#: Server dispatch batch (the baseline runs at batch 1), and the journal
#: length past which a shard compacts it into a snapshot (small, so runs
#: exercise snapshots).
SERVER_BATCH_SIZE = 8
JOURNAL_MAX_ENTRIES = 64

#: Peak RSS (MiB) no shard may exceed by the end of a run.  Five runs of
#: ``--shards 3 --duration 30 --pressure 64`` (Python 3.11, numpy 2, x86-64
#: Linux) peaked at 44.1-44.3 MiB per shard; the bound adds 50% for other
#: interpreter and numpy builds.  A leak of 1 KiB per request would add
#: about 45 MiB over such a run.
RSS_BOUND_MIB = 66.5

#: Admission budget on tasks x workers, set on ``--pressure`` runs: the
#: pressure pool's heavy tail sheds while every pool request is admitted.
MAX_COST = 160
#: Pressure stream: tasks per request, in-flight window (above the
#: servers' admission bound so shedding triggers) and retry budget.
PRESSURE_TASKS = 80
PRESSURE_WINDOW = 64
PRESSURE_RETRIES = 1

#: Sampled schedules: burst count, and the share of a ``--duration``
#: window the bursts are drawn from.
BURSTS = 2
FAULT_HORIZON = 0.6

#: Upper bound on (shed + unavailable) / responses of the main stream
#: without ``--strict`` (which bounds it at 0).
MAX_NONOK_FRACTION = 0.5

#: Traced requests fired after recovery: how many, tasks per request (heavy
#: enough that the simulate span dominates the round trip), and the share
#: of the client-observed latency their server-side spans must cover.
TRACE_SAMPLES = 5
TRACE_SAMPLE_TASKS = 800
MIN_TRACE_COVERAGE = 0.9

#: Supervisor spawn announcements: ``shard I/N: host:port pid=P restarts=K``.
_SPAWN_RE = re.compile(
    r"shard (\d+)/\d+: \S+ pid=(\d+) restarts=(\d+)"
)
#: Supervisor backoff announcements: ``... restart K in D s (crash C/M)``.
_RESTART_RE = re.compile(r"restart \d+ in ([0-9.]+)s")

#: One stream's outcome: each submitted line with its response line, or
#: ``None`` for a request that never resolved.
Pairs = List[Tuple[str, Optional[str]]]


class SupervisorTree:
    """One ``repro serve --shards N`` process tree plus its stderr watcher.

    The watcher thread parses the supervisor's spawn announcements to
    maintain a live ``shard index -> current pid`` map (SIGKILL must aim
    at the *current* incarnation, which changes across restarts) and
    collects the announced restart delays for the backoff audit.  The
    supervisor leads a session of its own and its shards inherit its
    process group, so one ``killpg`` reaches every incarnation.
    """

    def __init__(self, n_shards: int, base_port: int, extra_flags: List[str]) -> None:
        self.n_shards = n_shards
        self.base_port = base_port
        self.pids: Dict[int, int] = {}
        self.restart_delays: List[float] = []
        self._lock = threading.Lock()
        command = [
            sys.executable, "-m", "repro", "serve",
            "--listen", f"127.0.0.1:{base_port}",
            "--shards", str(n_shards),
            "--restart-base-delay", str(RESTART_BASE_DELAY),
            "--restart-limit", str(RESTART_LIMIT),
            "--quiet",
        ] + extra_flags
        env = dict(os.environ)
        env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
        self.process = subprocess.Popen(
            command, env=env, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._watcher = threading.Thread(target=self._watch_stderr, daemon=True)
        self._watcher.start()

    def _watch_stderr(self) -> None:
        """Thread body: parse the supervisor's stderr stream."""
        assert self.process.stderr is not None
        for line in self.process.stderr:
            with self._lock:
                spawn = _SPAWN_RE.search(line)
                if spawn:
                    self.pids[int(spawn.group(1)) - 1] = int(spawn.group(2))
                delay = _RESTART_RE.search(line)
                if delay:
                    self.restart_delays.append(float(delay.group(1)))

    def signal_shard(self, shard: int, signum: int) -> bool:
        """Send ``signum`` to the shard's current child; returns success."""
        with self._lock:
            pid = self.pids.get(shard)
        if pid is None:
            return False
        try:
            os.kill(pid, signum)
            return True
        except OSError:
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

    def _signal_tree(self, signum: int) -> bool:
        """Best-effort ``killpg`` on the tree; False once the group is empty."""
        try:
            os.killpg(self.process.pid, signum)
            return True
        except OSError:
            return False

    def shutdown(self) -> None:
        """SIGCONT every shard, SIGTERM the supervisor, reap the whole tree.

        Idempotent, and safe to call on *any* exit path (normal drain,
        KeyboardInterrupt): a SIGSTOPped shard ignores the supervisor's
        forwarded SIGTERM, so the whole group is resumed first, and any
        shard still alive after the supervisor is gone — e.g. orphaned by
        a SIGKILLed supervisor — is killed with the group, so an
        interrupted run can never leak stopped processes.
        """
        self._signal_tree(signal.SIGCONT)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # The shards are grandchildren (the supervisor's children), so
        # there is no waitpid to collect here — SIGKILL after SIGCONT is
        # terminal, and init adopts+reaps the orphans.
        self._signal_tree(signal.SIGCONT)
        if self._signal_tree(signal.SIGKILL):
            print("chaos: killed leftover shard process(es)", file=sys.stderr)
        # The shards share the supervisor's stderr pipe, so the watcher
        # sees EOF only once the last of them is gone.
        self._watcher.join(timeout=2.0)
        if not self._watcher.is_alive():
            self.process.stderr.close()


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
    shed count, restart gauge, cache state and peak RSS the audits
    assert on, plus one problem string per shard whose metrics endpoint
    did not answer.
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
        gauges = metrics["gauges"]
        hits = counters["cache.hits"]
        misses = counters["cache.misses"]
        lookups = hits + misses
        summary[str(index)] = {
            "responded": counters["service.responded"],
            "p50_ms": histograms["service.request_ms"]["p50"],
            "p99_ms": histograms["service.request_ms"]["p99"],
            "batch_wait_p95_ms": histograms["service.batch_assembly_ms"]["p95"],
            "cache_hit_rate": round(hits / lookups, 4) if lookups else None,
            "shed": counters["service.shed_cost"],
            "restarts": gauges["server.restarts"],
            "warm_hits": counters["cache.warm_hits"],
            "cache_size": gauges["cache.size"],
            "journal_entries": gauges["cache.journal_entries"],
            "max_rss_mib": gauges["process.max_rss_mib"],
        }
    return summary, problems


def format_telemetry_table(summary: Dict[str, Any]) -> List[str]:
    """Render a :func:`summarize_telemetry` summary as aligned table lines."""
    header = (
        f"{'shard':>5} {'responded':>9} {'p50ms':>8} {'p99ms':>8} "
        f"{'bwait95':>8} {'hit%':>6} {'shed':>6} {'restarts':>8} "
        f"{'warm':>6} {'journal':>7} {'rss_mib':>7}"
    )
    lines = [header, "-" * len(header)]
    for shard, row in sorted(summary.items(), key=lambda item: int(item[0])):
        hit_rate = row["cache_hit_rate"]
        hit_text = f"{100.0 * hit_rate:5.1f}" if hit_rate is not None else "    -"
        lines.append(
            f"{shard:>5} {row['responded']:>9} {row['p50_ms']:>8.2f} "
            f"{row['p99_ms']:>8.2f} {row['batch_wait_p95_ms']:>8.2f} "
            f"{hit_text:>6} {row['shed']:>6} "
            f"{row['restarts']:>8.0f} {row['warm_hits']:>6} "
            f"{row['journal_entries']:>7} {row['max_rss_mib']:>7.1f}"
        )
    return lines


def request_pool(seed: int, requests: int, unique: int, tasks: int) -> List[str]:
    """``requests`` deterministic loadgen lines over ``unique`` configurations."""
    return generate_lines(
        argparse.Namespace(
            seed=seed, unique=unique, workers=4, tasks=tasks,
            rate=10.0, period=20.0, requests=requests,
        )
    )


def build_schedule(args: argparse.Namespace) -> FaultSchedule:
    """The run's fault schedule: ``--specs`` verbatim, or sampled from ``--seed``.

    The sampled schedule is drawn over submitted-request counts up to
    ``--requests``, or, with ``--duration``, over elapsed centiseconds up
    to 60% of the window, so every fault leaves post-restart runway for
    the warm-restart audit.  A crash is appended at a third of the horizon
    if the sampled bursts happened to be stall-only: the recovery and
    warm-restart audits need at least one SIGKILL.
    """
    if args.specs:
        return FaultSchedule.from_specs(args.specs)
    if args.duration:
        horizon = max(int(args.duration * 100 * FAULT_HORIZON), 10)
    else:
        horizon = args.requests
    sampled = FaultSchedule.correlated_bursts(
        args.seed, n_shards=args.shards, n_requests=horizon, n_bursts=BURSTS
    )
    specs = sampled.to_specs()
    if not any(event.kind == "crash" for event in sampled.events):
        specs.append(f"crash:0@{max(horizon // 3, 1)}")
    return FaultSchedule.from_specs(specs)


def serial_baseline(lines: List[str]) -> Dict[str, str]:
    """The byte-identity oracle: every request served serially, in-process.

    Returns ``request id -> canonical response line``.  Uses the same
    dispatcher pipeline as the real server, at batch size 1 where the
    shards batch :data:`SERVER_BATCH_SIZE`, so any divergence observed
    later is a resilience or batching bug, not a config mismatch.
    """
    out = io.StringIO()
    with ScheduleService(
        batch_size=1, cache=LRUResultCache(max_entries=1024)
    ) as service:
        serve_lines(lines, service, out)
    baseline = {}
    for line, response_text in zip(lines, out.getvalue().splitlines()):
        baseline[json.loads(line)["id"]] = response_text
    return baseline


def resilient_client(base_port: int, n_shards: int, retries: int) -> ShardedClient:
    """A client with the harness's timeout, retry and breaker settings."""
    return ShardedClient.from_base(
        "127.0.0.1",
        base_port,
        n_shards,
        request_timeout=REQUEST_TIMEOUT,
        max_retries=retries,
        breaker_threshold=BREAKER_THRESHOLD,
        breaker_cooldown=BREAKER_COOLDOWN,
    )


async def pump(
    client: ShardedClient, source: AsyncIterator[str], window: int
) -> Pairs:
    """Submit every line ``source`` yields, at most ``window`` in flight.

    Returns each submitted line with its response, in submission order.
    Every wait is bounded by :data:`DRAIN_TIMEOUT`: a window that stays
    full that long ends the submission, and a future still unresolved
    after the final drain is returned as ``None`` — a lost request.
    """
    submitted: List[Tuple[str, "asyncio.Future[str]"]] = []
    pending: "set[asyncio.Future[str]]" = set()
    async for line in source:
        if len(pending) >= window:
            done, pending = await asyncio.wait(
                pending, timeout=DRAIN_TIMEOUT, return_when=asyncio.FIRST_COMPLETED
            )
            if not done:
                break
        future = await client.submit(line)
        submitted.append((line, future))
        pending.add(future)
    if pending:
        await asyncio.wait(pending, timeout=DRAIN_TIMEOUT)
    return [
        (line, future.result() if future.done() and not future.cancelled() else None)
        for line, future in submitted
    ]


async def stream(
    lines: List[str], schedule: FaultSchedule, fire, duration: Optional[float]
) -> AsyncIterator[str]:
    """The pool once (``duration`` None) or cycled until ``duration`` seconds.

    Before each line it fires the schedule's due events: the trigger is
    the submitted-request count, or with ``duration`` the elapsed
    centiseconds.
    """
    started = time.perf_counter()
    for index in itertools.count():
        if duration:
            elapsed = time.perf_counter() - started
            if elapsed >= duration:
                return
            trigger = int(elapsed * 100)
        elif index >= len(lines):
            return
        else:
            trigger = index
        for event in schedule.due(trigger):
            await fire(event)
        yield lines[index % len(lines)]


async def reseeded(lines: List[str], stop: asyncio.Event) -> AsyncIterator[str]:
    """Cycle ``lines`` with a new seed every cycle until ``stop`` is set.

    A fresh seed is a fresh canonical key, so every submission is a
    genuine simulation, never a cache hit: the stream can never warm
    itself into irrelevance.
    """
    for cycle in itertools.count():
        for line in lines:
            if stop.is_set():
                return
            payload = json.loads(line)
            payload["seed"] = cycle * 997 + payload.get("seed", 0) % 997
            yield canonical_json(payload)


async def pressure_stream(
    base_port: int, n_shards: int, lines: List[str], stop: asyncio.Event
) -> Pairs:
    """The shedding-pressure stream: continuous *uncached* simulation load.

    The main stream is cache-hot, so on its own it exercises no admission
    control.  This second client keeps real work in the dispatch queues
    until ``stop`` is set, and its pool is drawn heavier than the
    servers' :data:`MAX_COST` budget, so its heavy tail is shed with typed
    ``service-overloaded`` rejections.  Byte-identity is the main
    stream's job; these responses are audited for typed termination and
    counted for shed pressure.
    """
    if not lines:
        return []
    async with resilient_client(base_port, n_shards, PRESSURE_RETRIES) as client:
        return await pump(client, reseeded(lines, stop), PRESSURE_WINDOW)


async def cache_size(port: int) -> Optional[int]:
    """A shard's ``cache.size`` gauge, scraped through a client of its own.

    ``None`` when the shard does not answer (it may be stalled or already
    dead).  Its own client keeps the scrape out of the main client's
    breaker accounting and off the other shards.
    """
    try:
        async with ShardedClient(
            [("127.0.0.1", port)], request_timeout=REQUEST_TIMEOUT
        ) as probe:
            (payload,) = await probe.metrics()
    except (OSError, asyncio.TimeoutError):
        return None
    metrics = payload.get("metrics")
    return metrics["gauges"]["cache.size"] if isinstance(metrics, dict) else None


async def await_recovery(
    client: ShardedClient, killed_shards: "set[int]"
) -> "tuple[Dict[int, Dict[str, Any]], List[Dict[str, Any]]]":
    """Poll every shard's metrics until the tree is whole again.

    Whole means every killed shard reports ``shard.restarts >= 1`` and
    every breaker is closed: an open breaker would answer the replay from
    the client-local degraded path.  The metrics probe doubles as the
    breaker's half-open probe, so polling is also what closes them.
    Returns ``(recovery, payloads)`` after :data:`RECOVERY_TIMEOUT`
    seconds at most: ``shard -> {"restarts", "uptime_s"}`` for every
    killed shard serving again (a missing shard never came back), and
    the last scrape.
    """
    deadline = time.monotonic() + RECOVERY_TIMEOUT
    while True:
        payloads = await client.metrics()
        recovery: Dict[int, Dict[str, Any]] = {}
        for shard in sorted(killed_shards):
            metrics = payloads[shard].get("metrics")
            if isinstance(metrics, dict) and metrics["shard"]["restarts"] >= 1:
                recovery[shard] = {
                    "restarts": metrics["shard"]["restarts"],
                    "uptime_s": metrics["uptime_s"],
                }
        whole = len(recovery) == len(killed_shards) and all(
            state == "closed" for state in client.breaker_states()
        )
        if whole or time.monotonic() >= deadline:
            return recovery, payloads
        await asyncio.sleep(0.2)


def _responded(payloads: List[Dict[str, Any]], shard: int) -> int:
    """The shard's ``service.responded`` counter (0 if it did not answer)."""
    metrics = payloads[shard].get("metrics")
    return metrics["counters"]["service.responded"] if isinstance(metrics, dict) else 0


def trace_coverage(sample: Dict[str, Any]) -> float:
    """Share of a trace sample's client-observed latency its spans cover."""
    trace = sample["trace"]
    if not isinstance(trace, dict) or not sample["client_ms"]:
        return 0.0
    return trace["total_ms"] / sample["client_ms"]


async def sample_traces(client: ShardedClient) -> List[Dict[str, Any]]:
    """Fire the traced requests; one record per sample, for the audit.

    Coverage compares server-side span time against the client's observed
    round trip; a loaded machine can delay the client event loop by
    milliseconds, so each sample gets a few attempts and keeps its
    best-covered one.  Every attempt uses a *fresh* seed — a repeated
    seed would hit the result cache and collapse the trace to the (tiny)
    hit-path spans.
    """
    samples: List[Dict[str, Any]] = []
    for sample in range(TRACE_SAMPLES):
        attempts: List[Dict[str, Any]] = []
        for attempt in range(3):
            payload = {
                "platform": {"comm": [0.2, 0.5, 1.0], "comp": [1.0, 2.0, 4.0]},
                "tasks": {"process": "all-at-zero", "n": TRACE_SAMPLE_TASKS},
                "scheduler": "LS",
                "seed": 9_000_000 + 10 * sample + attempt,
                "id": f"trace-sample-{sample:03d}",
                "trace": True,
            }
            line = canonical_json(payload)
            t0 = time.perf_counter()
            response = json.loads(await (await client.submit(line)))
            attempts.append(
                {
                    "id": payload["id"],
                    "status": response.get("status"),
                    "client_ms": round((time.perf_counter() - t0) * 1000.0, 3),
                    "trace": response.get("trace"),
                    "attempts": attempt + 1,
                }
            )
            if (
                attempts[-1]["status"] == "ok"
                and trace_coverage(attempts[-1]) >= MIN_TRACE_COVERAGE
            ):
                break
        samples.append(max(attempts, key=trace_coverage))
    return samples


async def drive(
    args: argparse.Namespace,
    tree: SupervisorTree,
    lines: List[str],
    pressure_lines: List[str],
    schedule: FaultSchedule,
) -> Dict[str, Any]:
    """Run the fault schedule against the tree; returns the raw outcome.

    The outcome is what :func:`audit` reads: the main, pressure and
    replay streams' ``(line, response)`` pairs, the fired fault records,
    the killed shards' recovery, the metrics scraped after the replay,
    the trace samples, the restart delays and the client counters.
    """
    fired: List[Dict[str, Any]] = []
    killed_shards: "set[int]" = set()
    loop = asyncio.get_running_loop()
    client = resilient_client(tree.base_port, args.shards, RETRIES)
    await client.connect()

    async def fire(event: FaultEvent) -> None:
        record: Dict[str, Any] = {"spec": event.to_spec(), "ok": True}
        if event.kind == "crash":
            # What the victim holds at the kill is what its journal must
            # bring back: the warm-restart audit only expects warm hits
            # from a shard that held a result.
            record["cache_size"] = await cache_size(tree.base_port + event.shard)
            record["ok"] = tree.signal_shard(event.shard, signal.SIGKILL)
            killed_shards.add(event.shard)
        elif event.kind == "stall":
            # A resume still pending when the run ends is covered by
            # SupervisorTree.shutdown, which resumes the whole group.
            if tree.signal_shard(event.shard, signal.SIGSTOP):
                loop.call_later(
                    event.duration,
                    lambda shard=event.shard: tree.signal_shard(
                        shard, signal.SIGCONT
                    ),
                )
            else:
                record["ok"] = False
        elif event.kind == "drop":
            shard = client._shards[event.shard]  # noqa: SLF001 - fault harness
            writer = shard.writer
            if writer is not None and writer.transport is not None:
                writer.transport.abort()
            else:
                record["ok"] = False
        fired.append(record)

    stop_pressure = asyncio.Event()
    pressure_task = asyncio.ensure_future(
        pressure_stream(tree.base_port, args.shards, pressure_lines, stop_pressure)
    )
    try:
        pairs = await pump(client, stream(lines, schedule, fire, args.duration), WINDOW)
        # Stop the pressure stream and let it drain before the recovery
        # audits, so the replay below runs against an otherwise idle tree.
        stop_pressure.set()
        pressure_pairs = await pressure_task
        recovery, before = await await_recovery(client, killed_shards)

        # The replay: the whole pool once more, through servers only.  Its
        # keys were cached and journaled before the kills, so a restarted
        # shard answers them from replayed state (warm hits).
        degraded_before = client.client_stats()["degraded_responses"]
        replay_pairs = await pump(client, stream(lines, FaultSchedule(), fire, None), WINDOW)
        telemetry = await client.metrics()
        replay = {
            "pairs": replay_pairs,
            "degraded_responses": client.client_stats()["degraded_responses"] - degraded_before,
            "responded": {
                str(shard): _responded(telemetry, shard) - _responded(before, shard)
                for shard in sorted(killed_shards)
            },
        }
        # The --pressure admission budget would shed the heavy samples.
        trace_samples = [] if args.pressure else await sample_traces(client)
    finally:
        stop_pressure.set()
        # A no-op after a clean drain.  On a failed run the run's own
        # error is the one to report, so the pressure task's is dropped.
        pressure_task.cancel()
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await pressure_task
        await client.close()

    return {
        "pairs": pairs,
        "pressure": pressure_pairs,
        "fired": fired,
        "recovery": {str(k): v for k, v in sorted(recovery.items())},
        "replay": replay,
        "telemetry": telemetry,
        "trace_samples": trace_samples,
        "restart_delays": list(tree.restart_delays),
        "client": client.client_stats(),
    }


def tally(
    pairs: Pairs, baseline: Optional[Dict[str, str]]
) -> Tuple[Dict[str, int], List[str], List[str]]:
    """Classify one stream's responses.

    Returns ``(counts, mismatched, untyped)``: the counts of submitted,
    resolved, ``ok``, shed, unavailable and lost requests and of byte
    mismatches, the ids of ``ok`` responses that differ from
    ``baseline``, and the (truncated) responses that are neither ``ok``
    nor typed.  ``baseline`` None skips the byte check: the re-seeded
    pressure stream has no oracle.
    """
    counts = {
        "submitted": len(pairs), "responses": 0, "ok": 0,
        "shed": 0, "unavailable": 0, "lost": 0,
    }
    mismatched: List[str] = []
    untyped: List[str] = []
    for line, response_text in pairs:
        if response_text is None:
            counts["lost"] += 1
            continue
        counts["responses"] += 1
        response = json.loads(response_text)
        status = response.get("status")
        error_type = response.get("error", {}).get("type")
        if status == "ok":
            counts["ok"] += 1
            if baseline is not None:
                request_id = json.loads(line)["id"]
                if response_text != baseline[request_id]:
                    mismatched.append(request_id)
        elif status == "rejected" and error_type == "service-overloaded":
            counts["shed"] += 1
        elif status == "error" and error_type in UNAVAILABLE_TYPES:
            counts["unavailable"] += 1
        else:
            untyped.append(response_text[:120])
    counts["byte_mismatches"] = len(mismatched)
    return counts, mismatched, untyped


def audit(
    outcome: Dict[str, Any], baseline: Dict[str, str], strict: bool
) -> Dict[str, Any]:
    """Check every invariant of the module docstring; returns the report.

    ``outcome`` is :func:`drive`'s result.  The report carries one failure
    string per violated invariant and ``verdict`` ``PASSED`` iff there
    are none.
    """
    failures: List[str] = []
    main, mismatched, untyped = tally(outcome["pairs"], baseline)
    pressure, _, pressure_untyped = tally(outcome["pressure"], None)
    replay, replay_mismatched, replay_untyped = tally(
        outcome["replay"]["pairs"], baseline
    )

    lost = {
        name: counts["lost"]
        for name, counts in (("main", main), ("pressure", pressure), ("replay", replay))
        if counts["lost"]
    }
    if lost:
        failures.append(f"lost requests (never resolved) per stream: {lost}")
    mismatched += replay_mismatched
    if mismatched:
        failures.append(
            f"{len(mismatched)} ok response(s) diverge from the serial "
            f"baseline (first: {mismatched[0]})"
        )
    untyped += pressure_untyped + replay_untyped
    if untyped:
        failures.append(
            f"{len(untyped)} non-terminal/untyped response(s) "
            f"(first: {untyped[0]})"
        )
    bound = 0.0 if strict else MAX_NONOK_FRACTION
    nonok_fraction = (main["shed"] + main["unavailable"]) / max(main["responses"], 1)
    if nonok_fraction > bound:
        failures.append(
            f"shed+unavailable fraction {nonok_fraction:.3f} of the main stream "
            f"exceeds {bound}{' (--strict)' if strict else ''}"
        )
    shed_total = main["shed"] + pressure["shed"]
    if outcome["pressure"] and shed_total < 1:
        failures.append(
            "no shed response across both streams: --pressure exercised no "
            "admission control"
        )

    # Recovery and warm restart, per killed shard.  A shard killed twice
    # counts as holding results if any of its kills found some.
    held: Dict[int, int] = {}
    for record in outcome["fired"]:
        event = FaultEvent.from_spec(record["spec"])
        if event.kind == "crash":
            held[event.shard] = max(held.get(event.shard, 0), record["cache_size"] or 0)
    killed = sorted(held)
    unrecovered = [shard for shard in killed if str(shard) not in outcome["recovery"]]
    if unrecovered:
        failures.append(
            f"killed shard(s) {unrecovered} not serving again by end of run"
        )
    replay_degraded = outcome["replay"]["degraded_responses"]
    if replay_degraded:
        failures.append(
            f"the replay took {replay_degraded} client-local degraded "
            "response(s): a shard was still not serving"
        )
    silent = [shard for shard in killed if outcome["replay"]["responded"][str(shard)] <= 0]
    if silent:
        failures.append(f"killed shard(s) {silent} answered none of the replay")

    telemetry, telemetry_problems = summarize_telemetry(outcome["telemetry"])
    failures.extend(telemetry_problems)
    warm = {
        str(shard): {
            "held_at_kill": held[shard],
            "warm_hits": telemetry.get(str(shard), {}).get("warm_hits", 0),
        }
        for shard in killed
    }
    cold = [
        shard for shard, entry in warm.items()
        if entry["held_at_kill"] >= 1 and entry["warm_hits"] == 0
    ]
    if cold:
        failures.append(
            f"killed shard(s) {cold} held results at the kill but came back "
            "cold: warm_hits == 0 after the replay"
        )
    # Compaction runs on the write that takes the journal past its bound,
    # so a scrape never sees more than the bound.
    overgrown = {
        shard: row["journal_entries"]
        for shard, row in telemetry.items()
        if row["journal_entries"] > JOURNAL_MAX_ENTRIES
    }
    if overgrown:
        failures.append(
            f"journal_entries {overgrown} above the compaction bound "
            f"{JOURNAL_MAX_ENTRIES}"
        )

    bloated = {
        shard: row["max_rss_mib"]
        for shard, row in telemetry.items()
        if row["max_rss_mib"] > RSS_BOUND_MIB
    }
    if bloated:
        failures.append(
            f"peak RSS (MiB) {bloated} above the bound {RSS_BOUND_MIB}"
        )

    # No-hot-loop audit: every announced restart delay must respect the
    # policy's jittered lower bound (the first attempt's is the smallest).
    floor = RESTART_BASE_DELAY * (1.0 - BACKOFF_JITTER)
    too_fast = [delay for delay in outcome["restart_delays"] if delay < floor]
    if too_fast:
        failures.append(
            f"restart delay(s) {too_fast} below the backoff floor "
            f"{floor:.3f}s (hot-loop respawn)"
        )

    # Every sampled trace must carry spans that tile (sum to) the
    # server-side total and cover at least MIN_TRACE_COVERAGE of the
    # client-observed latency.
    trace_audit: List[Dict[str, Any]] = []
    for sample in outcome["trace_samples"]:
        trace = sample["trace"]
        if sample["status"] != "ok" or not isinstance(trace, dict):
            failures.append(
                f"{sample['id']}: no trace attached (status {sample['status']})"
            )
            continue
        span_sum = sum(span["ms"] for span in trace["spans"])
        if abs(span_sum - trace["total_ms"]) > 1e-6:
            failures.append(
                f"{sample['id']}: spans sum to {span_sum:.6f}ms but "
                f"total_ms is {trace['total_ms']:.6f}ms (overlap/gap)"
            )
        coverage = trace_coverage(sample)
        trace_audit.append({**sample, "coverage": round(coverage, 4)})
        if coverage < MIN_TRACE_COVERAGE:
            failures.append(
                f"{sample['id']}: trace covers {coverage:.1%} of the "
                f"client-observed latency (< {MIN_TRACE_COVERAGE:.0%})"
            )

    return {
        **main,
        "pressure": pressure,
        "shed_total": shed_total,
        "fired": outcome["fired"],
        "recovery": outcome["recovery"],
        "replay": {
            **replay,
            "degraded_responses": replay_degraded,
            "responded": outcome["replay"]["responded"],
        },
        "warm": warm,
        "restart_delays": outcome["restart_delays"],
        "telemetry": telemetry,
        "trace_samples": trace_audit,
        "client": outcome["client"],
        "failures": failures,
        "verdict": "FAILED" if failures else "PASSED",
    }


def build_parser() -> argparse.ArgumentParser:
    """The harness's command line; every other knob is a module constant."""
    parser = argparse.ArgumentParser(
        description=(
            "Boot a durable, sharded repro server, drive a "
            "deterministic load through a resilient client while firing a "
            "seeded fault schedule, and audit zero-lost, byte-identity, "
            "recovery and warm restarts."
        )
    )
    parser.add_argument("--shards", type=int, default=3, help="shard count")
    parser.add_argument(
        "--seed", type=int, default=2006, help="run seed (pool + fault schedule)"
    )
    parser.add_argument(
        "--requests", type=int, default=300,
        help="request pool size; streamed once unless --duration is given",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="cycle the pool for this many wall-clock seconds; fault "
        "triggers are then elapsed centiseconds",
    )
    parser.add_argument(
        "--specs", nargs="*", default=None, metavar="KIND:SHARD@TRIGGER[:DUR]",
        help="explicit fault events (e.g. crash:1@120 stall:2@240:1.0); "
        "default: a correlated-burst schedule sampled from --seed",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="require every main-stream response ok (crash-only schedules: "
        "shard loss is absorbed by retry + local execution)",
    )
    parser.add_argument(
        "--pressure", type=int, default=0, metavar="K",
        help="run a shedding-pressure stream over K distinct heavy "
        "configurations against a --max-cost budget (0: off)",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persistence root for the shards, kept after the run "
        "(default: a temporary directory removed on exit)",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the JSON report to FILE",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; exit 0 iff every invariant held."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards < 1 or args.requests < 1:
        parser.error("--shards and --requests must be >= 1")
    if args.duration is not None and args.duration <= 0:
        parser.error("--duration must be > 0")
    if args.pressure < 0:
        parser.error("--pressure must be >= 0")

    lines = request_pool(args.seed, args.requests, POOL_UNIQUE, POOL_TASKS)
    pressure_lines = (
        request_pool(args.seed + 1, args.pressure, args.pressure, PRESSURE_TASKS)
        if args.pressure
        else []
    )
    schedule = build_schedule(args)
    print(f"chaos: schedule {schedule.to_specs()}", file=sys.stderr)
    baseline = serial_baseline(lines)

    with contextlib.ExitStack() as stack:
        state_dir = args.state_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-chaos-")
        )
        flags = [
            "--state-dir", state_dir,
            "--batch-size", str(SERVER_BATCH_SIZE),
            "--journal-max-entries", str(JOURNAL_MAX_ENTRIES),
        ]
        if args.pressure:
            flags += ["--max-cost", str(MAX_COST)]
        tree = SupervisorTree(args.shards, _free_base_port(args.shards), flags)
        try:
            tree.wait_ready()
            outcome = asyncio.run(drive(args, tree, lines, pressure_lines, schedule))
        except KeyboardInterrupt:
            # The finally below resumes + reaps the whole tree, and the
            # temporary state directory goes with the ExitStack.
            print("chaos: interrupted - reaping the supervised tree", file=sys.stderr)
            return 130
        finally:
            tree.shutdown()

    report = audit(outcome, baseline, args.strict)
    report["schedule"] = schedule.summary()
    report["seed"] = args.seed
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(
        f"chaos: {report['verdict']} - {report['ok']}/{report['submitted']} ok, "
        f"{report['shed']} shed, {report['unavailable']} unavailable, "
        f"{report['client']['degraded_responses']} degraded, "
        f"{report['lost']} lost, {report['byte_mismatches']} byte mismatch(es), "
        f"{report['shed_total']} shed in total, "
        f"restarts {report['recovery'] or '{}'}, warm {report['warm'] or '{}'}, "
        f"client {report['client']}",
        file=sys.stderr,
    )
    for line in format_telemetry_table(report["telemetry"]):
        print(f"chaos: {line}", file=sys.stderr)
    for sample in report["trace_samples"]:
        spans = ">".join(span["name"] for span in sample["trace"]["spans"])
        print(
            f"chaos: trace {sample['id']}: {sample['trace']['total_ms']:.2f}ms "
            f"server-side over {sample['client_ms']:.2f}ms observed "
            f"({sample['coverage']:.1%}; spans {spans})",
            file=sys.stderr,
        )
    for failure in report["failures"]:
        print(f"chaos:   FAIL {failure}", file=sys.stderr)
    return 0 if report["verdict"] == "PASSED" else 1


if __name__ == "__main__":
    sys.exit(main())
