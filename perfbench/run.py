#!/usr/bin/env python3
"""The repository benchmark: open-loop service latency and capacity, per-layer budget.

Run from the root of a checkout::

    python3 perfbench/run.py --workload unique-small --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics against ``repro serve`` in a
subprocess; ``--trace 1`` makes the separate traced run that reports the
per-layer metrics.  Human-readable detail goes to the lines before the
last; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every ``ok`` response matched the in-process baseline byte for byte.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import io
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import stats, workloads  # noqa: E402
from perfbench.baseline import baseline_responses  # noqa: E402
from perfbench.driver import DRAIN_TIMEOUT_S, OpenLoopClient, PhaseResult  # noqa: E402
from perfbench.procs import ServerProcess, cpu_seconds, host_cpu_ticks, speed_probe, vm_hwm_mib  # noqa: E402

#: Server starts per run; ``setup_s`` is their median.
SETUPS = 5
#: Latency charged to a failed, refused, dropped or timed-out request: far
#: beyond any limit, so such a request always misses it.
FAILED_MS = DRAIN_TIMEOUT_S * 1000.0
#: Generator lateness (p99, ms) above which the whole machine, not the
#: server, stalled during a chunk: the load was not offered as scheduled.
STALL_MS = 50.0
#: Share of the machine's CPU time the hypervisor may steal during a chunk
#: (``/proc/stat``) before the chunk counts as measuring the host, not the
#: program.
STEAL_LIMIT = 0.02
#: Chunks a run may offer again after a stall or steal, at most once each.
MAX_REPEATS = 3
#: Share of ``--seconds`` given to each of the traced run's three phases.
TRACED_SHARE = 0.3
#: Chunks the traced run alternates between its traced and untraced in-process services.
TRACE_CHUNKS = 4
#: Platforms of the traced run's Figure 1 panel (7 cells each, 1000 tasks a cell).
CAMPAIGN_PLATFORMS = 2
#: Where traced runs leave their spans (ignored by git).
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"

#: End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s", "server_cpu_ms_per_req": "ms", "rss_mb": "MiB",
}


def log(message: str) -> None:
    """One human-readable report line (standard output, before the result)."""
    print(message, flush=True)


# -- inputs -------------------------------------------------------------------------
def serve_args(state_dir: Path):
    """The flags of the measured server: ``repro serve`` defaults plus a state dir.

    Every service this benchmark builds in-process is configured from these
    through the CLI's own builder, so it matches the measured subprocess.
    """
    from repro.cli import build_parser

    return build_parser().parse_args(["serve", "--listen", "127.0.0.1:0", "--state-dir", str(state_dir)])


def journal_popular(source: workloads.RequestSource, state_dir: Path) -> None:
    """Untimed pass: journal the hot-repeat pool through the program's own cache."""
    from repro.cli import _build_service
    from repro.service import serve_lines

    with _build_service(serve_args(state_dir)) as service:
        try:
            serve_lines(source.journal_lines(), service, io.StringIO())
        finally:
            service.cache.close()


def fresh_state(template: Optional[Path], target: Path) -> Path:
    """A new state directory: a copy of ``template`` or empty."""
    if template is not None:
        shutil.copytree(template, target)
    else:
        target.mkdir(parents=True)
    return target


# -- phase evaluation ---------------------------------------------------------------
class Phase:
    """One measured open-loop phase and everything derived from it."""

    def __init__(self, name: str, rate: float, lines: List[str], result: PhaseResult, limit_ms: float) -> None:
        self.name, self.rate, self.lines, self.result = name, rate, lines, result
        self.failed = 0
        self.latency_ms: List[float] = []
        for due, received, response in zip(result.due, result.received, result.responses):
            if response is None or received is None or '"status":"ok"' not in response:
                self.failed += 1
                self.latency_ms.append(FAILED_MS)
            else:
                # Timed from the due time: a stall is charged to everything behind it.
                self.latency_ms.append((received - due) * 1000.0)
        self.n = len(self.latency_ms)
        self.p50 = stats.percentile(self.latency_ms, 50.0)
        self.tail_pct, self.tail_ms, _ = stats.tail(self.latency_ms, 99.0)
        late = stats.lateness(result.due, result.sent)
        self.late_p99_ms = stats.percentile(late, 99.0) * 1000.0
        done = [r if r is not None else float("inf") for r in result.received]
        backlog = stats.backlog_at_sends(result.due, done)
        self.backlog_growth = stats.backlog_growth(backlog)
        self.backlog_grew = stats.backlog_grows(backlog, rate, limit_ms)
        self.passed = self.tail_ms <= limit_ms and self.failed == 0 and not self.backlog_grew
        #: Metrics scrapes taken before and after the phase (one pair per chunk).
        self.scrapes: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self.cpu_s = 0.0
        #: Share of the machine's CPU time stolen by the hypervisor during the phase.
        self.steal_frac = 0.0
        #: The server's VmHWM right after this phase (subprocess servers only).
        self.peak_rss_mib = 0.0
        #: True when the generator stalled and the phase was offered again.
        self.repeated = False

    def mismatches(self, baseline: Dict[str, str]) -> int:
        """``ok`` responses that differ from the baseline's bytes."""
        bad = 0
        for line, response in zip(self.lines, self.result.responses):
            if response is not None and '"status":"ok"' in response and baseline[line] != response:
                bad += 1
        return bad

    def report(self) -> str:
        return (
            f"phase {self.name:<9} offered {self.rate:7.1f} req/s  n={self.n:<5} "
            f"p50 {self.p50:7.2f} ms  p{self.tail_pct:g} {self.tail_ms:8.2f} ms  "
            f"failed {self.failed}  late p99 {self.late_p99_ms:5.2f} ms  steal {self.steal_frac:5.1%}  "
            f"backlog growth {self.backlog_growth:+6.1f}  {'PASS' if self.passed else 'FAIL'}"
        )


def pooled(name: str, chunks: Sequence[Phase], limit_ms: float) -> Phase:
    """One phase made of ``chunks`` offered at the same rate (their requests pooled)."""
    result = PhaseResult(
        due=[t for c in chunks for t in c.result.due],
        sent=[t for c in chunks for t in c.result.sent],
        received=[t for c in chunks for t in c.result.received],
        responses=[r for c in chunks for r in c.result.responses],
        dropped=sum(c.result.dropped for c in chunks),
    )
    phase = Phase(name, chunks[0].rate, [line for c in chunks for line in c.lines], result, limit_ms)
    phase.scrapes = [pair for c in chunks for pair in c.scrapes]
    phase.cpu_s = sum(c.cpu_s for c in chunks)
    phase.peak_rss_mib = max(c.peak_rss_mib for c in chunks)
    return phase


def scrape_layers(phase: Phase) -> Dict[str, float]:
    """Per-layer numbers of one phase from the metrics scrapes and ``/proc``.

    Counters and histograms are deltas across each scraped pair (one per
    chunk of the phase), summed over the pairs.
    """
    if not phase.scrapes:
        return {}

    def count(name: str) -> float:
        return sum(after["counters"].get(name, 0) - before["counters"].get(name, 0) for before, after in phase.scrapes)

    def delta(name: str) -> Dict:
        total: Dict = {}
        for before, after in phase.scrapes:
            total = stats.histogram_add(total, stats.histogram_delta(before["histograms"].get(name, {}), after["histograms"][name]))
        return total

    def quantile(name: str, q: float) -> float:
        return stats.histogram_quantile(delta(name), q)

    received = max(count("service.received"), 1)
    lookups = max(count("cache.hits") + count("cache.misses"), 1)
    batch = delta("service.batch_size")
    return {
        "async_server.read_ms.p50": quantile("server.read_ms", 0.5),
        "async_server.write_ms.p50": quantile("server.write_ms", 0.5),
        "async_server.self_ms.p50": phase.p50 - quantile("service.request_ms", 0.5),
        "schema.invalid": count("service.invalid"),
        "dispatcher.queue_wait_ms.p50": quantile("service.queue_wait_ms", 0.5),
        "dispatcher.queue_wait_ms.p99": quantile("service.queue_wait_ms", 0.99),
        "dispatcher.batch_size.mean": batch["sum"] / max(batch["count"], 1),
        "dispatcher.sims_per_request": count("service.simulations") / received,
        "dispatcher.coalesced_frac": count("service.coalesced") / received,
        "dispatcher.shed_frac": count("service.rejected") / received,
        "cache.hit_ratio": count("cache.hits") / lookups,
        "cache.evictions": count("cache.evictions"),
        "process.server_cpu_ms_per_req": phase.cpu_s * 1000.0 / received,
        "process.gen_late_ms.p99": phase.late_p99_ms,
    }


# -- open-loop session ------------------------------------------------------------
#: A phase to offer: ``(name, rate, due times, request lines)``.
PhaseSpec = Tuple[str, float, List[float], List[str]]


def in_order(specs: Sequence[PhaseSpec]) -> Callable[[List[Phase]], Optional[PhaseSpec]]:
    """A fixed sequence of phases, for :func:`drive`."""
    return lambda done: specs[len(done)] if len(done) < len(specs) else None


async def drive(
    host: str,
    port: int,
    pid: Optional[int],
    next_phase: Callable[[List[Phase]], Optional[PhaseSpec]],
    limit_ms: float,
    in_process: bool = False,
) -> List[Phase]:
    """Offer phases over one set of connections until ``next_phase`` returns None.

    ``next_phase`` sees the phases run so far, so a stalled phase can be
    offered again.  Metrics are scraped before and after every phase.
    Before each phase the generator moves its own live objects out of the
    garbage collector's reach, so collections of earlier phases' records
    cannot stall the sends and receives being timed.  A server hosted
    ``in_process`` shares the interpreter: its collector is left alone
    and the generator does not spin.
    """
    client = OpenLoopClient(spin=not in_process)
    await client.connect(host, port)
    phases: List[Phase] = []
    try:
        scrape = await client.control({"type": "metrics", "id": "scrape-0"})
        while True:
            spec = next_phase(phases)
            if spec is None:
                break
            name, rate, due, lines = spec
            if not in_process:
                gc.collect()
                gc.freeze()
            cpu_before = cpu_seconds(pid) if pid is not None else 0.0
            steal_before, total_before = host_cpu_ticks()
            result = await client.run_phase(due, lines)
            steal_after, total_after = host_cpu_ticks()
            phase = Phase(name, rate, lines, result, limit_ms)
            phase.cpu_s = (cpu_seconds(pid) if pid is not None else 0.0) - cpu_before
            phase.steal_frac = (steal_after - steal_before) / max(total_after - total_before, 1)
            phases.append(phase)
            log(phase.report())
            if result.dropped or any(r is None for r in result.received):
                break  # lost requests: the connections can no longer be trusted
            before = scrape.get("metrics", {})
            scrape = await client.control({"type": "metrics", "id": f"scrape-{len(phases)}"})
            phase.scrapes = [(before, scrape.get("metrics", {}))]
            if pid is not None:
                phase.peak_rss_mib = vm_hwm_mib(pid)
    finally:
        await client.close()
    return phases


def measured(phases: Sequence[Phase]) -> List[Phase]:
    """The phases that count: all but those offered again after a disturbance."""
    return [phase for phase in phases if not phase.repeated]


def operating_points(phases: Sequence[Phase], limit_ms: float) -> Tuple[Optional[Phase], Optional[Phase]]:
    """``(light, busy)``: the measured chunks of each operating point pooled.

    Either is None until all of its chunks have been measured.
    """
    done = measured(phases)
    points = []
    for name in ("light", "busy"):
        chunks = [p for p in done if p.name.startswith(name + "-")]
        points.append(pooled(name, chunks, limit_ms) if len(chunks) == workloads.CHUNKS else None)
    return points[0], points[1]


def service_phases(
    workload: workloads.Workload, source: workloads.RequestSource, seconds: float
) -> Callable[[List[Phase]], Optional[PhaseSpec]]:
    """Warm-up, then the light and busy phases in alternating chunks.

    A chunk during which the machine, not the program, was measured — the
    generator itself ran late (STALL_MS) or the hypervisor took the CPUs
    (STEAL_LIMIT) — is marked ``repeated`` and offered once more with
    fresh requests after the last chunk, when a passing slow spell of the
    host has had time to end; at most MAX_REPEATS chunks a run.  A
    repeated chunk still counts as attempted and its responses are still
    checked.
    """
    plan = workloads.phase_plan(workload, seconds)
    fixed = len(plan)

    def next_phase(ran: List[Phase]) -> Optional[PhaseSpec]:
        last = ran[-1] if ran else None
        if (
            last is not None
            and last.name != "warmup"
            and (last.late_p99_ms > STALL_MS or last.steal_frac > STEAL_LIMIT)
            and all(p.name != last.name for p in ran[:-1])
            and len(plan) - fixed < MAX_REPEATS
        ):
            last.repeated = True
            plan.append((last.name, last.rate, last.n))
            log(
                f"phase {last.name}: generator late {last.late_p99_ms:.0f} ms (p99), "
                f"host steal {last.steal_frac:.1%}; offering it again after the last chunk"
            )
        if len(ran) == len(plan):
            return None
        name, rate, count = plan[len(ran)]
        return (name, rate) + source.phase(rate, count, name)

    return next_phase


# -- runs -------------------------------------------------------------------------
class Outcome:
    """What a run reports: correctness, counts, metrics and layer numbers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}


def service_run(workload: workloads.Workload, seed: int, seconds: float, work: Path) -> Outcome:
    """The untraced run: end-to-end metrics of ``repro serve`` under open-loop load."""
    outcome = Outcome()
    source = workloads.RequestSource(workload, seed)
    template = None
    if workload is workloads.HOT_REPEAT:
        template = work / "journaled"
        journal_popular(source, template)
    probes = [source.probe() for _ in range(SETUPS)]

    setup_times: List[float] = []
    probe_responses: List[str] = []
    server: Optional[ServerProcess] = None
    try:
        for index, probe in enumerate(probes):
            if server is not None:
                server.stop()
            server = ServerProcess(ROOT, fresh_state(template, work / f"state-{index}"))
            elapsed, response = server.start_and_probe(probe)
            setup_times.append(elapsed)
            probe_responses.append(response)
        assert server is not None
        phases = asyncio.run(drive(
            server.host, server.port, server.pid,
            service_phases(workload, source, seconds), workload.p99_limit_ms,
        ))
    finally:
        if server is not None:
            server.stop()

    sent = probes + [line for phase in phases for line in phase.lines]
    baseline_started = time.perf_counter()
    baseline = baseline_responses(str(ROOT / "src"), sent)
    log(f"baseline of {len(sent)} responses took {time.perf_counter() - baseline_started:.1f} s")
    outcome.mismatches = sum(p.mismatches(baseline) for p in phases)
    outcome.mismatches += sum(baseline[p] != r for p, r in zip(probes, probe_responses))
    outcome.attempted = len(sent)
    outcome.failed = sum(p.failed for p in phases)
    outcome.failed += sum('"status":"ok"' not in r for r in probe_responses)

    light, busy = operating_points(phases, workload.p99_limit_ms)
    if light is None or busy is None:
        raise RuntimeError("the light and busy phases did not finish (requests were lost)")
    for phase in (light, busy):
        log(phase.report())
        if phase.tail_pct != 99.0:
            raise RuntimeError(
                f"{phase.name} phase has {phase.n} samples, too few for p99; raise --seconds"
            )
    log(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup_times)}")
    cpu_ms = busy.cpu_s * 1000.0 / busy.n
    if cpu_ms > 0:
        log(f"server CPU {cpu_ms:.3f} ms/request at busy: one interpreter saturates near {1000.0 / cpu_ms:.0f} req/s")
    for phase in (light, busy):
        for name, value in sorted(scrape_layers(phase).items()):
            log(f"  {phase.name:<5} {name:<34} {value:12.4f}")
    log(
        f"fail_frac {outcome.failed / outcome.attempted:.6f} "
        f"({outcome.failed} of {outcome.attempted} attempted)"
    )
    values = {
        "setup_s": statistics.median(setup_times),
        "server_cpu_ms_per_req": (light.cpu_s + busy.cpu_s) * 1000.0 / (light.n + busy.n),
        "rss_mb": busy.peak_rss_mib,
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return outcome


class InProcessServer:
    """``AsyncScheduleServer`` in a thread of this process, for the traced run."""

    def __init__(self, state_dir: Path) -> None:
        from repro.cli import _build_service

        self.service = _build_service(serve_args(state_dir))
        self.port = 0
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        from repro.service.async_server import AsyncScheduleServer

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = AsyncScheduleServer(self.service, "127.0.0.1", 0)
            await server.start()
            self.port = server.port
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await server.close()

        try:
            asyncio.run(main())
        except BaseException as exc:  # reported by start()/stop() in the caller
            self._error = exc
            self._ready.set()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=60.0) or self._error is not None:
            raise RuntimeError(f"in-process server failed to start: {self._error}")

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread.ident is not None:
            self._thread.join(timeout=60.0)
        self.service.close()
        self.service.cache.close()
        if self._thread.is_alive():
            raise RuntimeError("in-process server did not stop")


def span_layers(recorder) -> Dict[str, float]:
    """Per-layer metrics from the traced phase's spans and counters."""
    def p50_us(name: str) -> float:
        values = recorder.durations(name)
        return stats.percentile(values, 50.0) * 1e6 if values else 0.0

    def total(name: str) -> float:
        return sum(recorder.durations(name))

    runs = recorder.durations("engine.run")
    tasks = recorder.counts["engine.run.units"]
    per_task = 1.0 / tasks if tasks else 0.0
    selfs = recorder.self_times()
    engine_self = sum(selfs[id(s)] for s in recorder.spans if s[0] == "engine.run")
    decides = [s for s in recorder.spans if s[0].startswith("schedulers.decide.")
               and (s[3] is None or not s[3][0].startswith("schedulers.decide."))]
    records = recorder.durations("persistence.record")
    compacts = recorder.durations("persistence.compact")
    simulates = recorder.durations("kernel.simulate")
    pumps = recorder.durations("dispatcher.pump")
    layers = {
        "schema.canonicalize_us.p50": p50_us("schema.canonicalize"),
        "cache.get_us.p50": p50_us("cache.get"),
        "cache.put_us.p50": p50_us("cache.put"),
        "persistence.record_us.p50": p50_us("persistence.record"),
        "persistence.journal_bytes_per_put": recorder.counts["persistence.journal_bytes"] / max(len(records), 1),
        "persistence.compactions": float(len(compacts)),
        "persistence.compact_ms.max": max(compacts) * 1e3 if compacts else 0.0,
        "persistence.replay_s": total("cache.warm_load"),
        "executor.build_tasks_us.p50": p50_us("executor.build_tasks"),
        "kernel.run_ms_per_job": (sum(simulates) / len(simulates) * 1e3) if simulates else 0.0,
        "kernel.jobs_per_batch": len(simulates) / max(len(pumps), 1),
        "engine.us_per_task": sum(runs) * per_task * 1e6,
        "engine.self_frac": engine_self / sum(runs) if runs else 0.0,
        "engine.view_calls_per_task": len(recorder.durations("engine.view")) * per_task,
        "engine.view_us.p50": p50_us("engine.view"),
        "engine.events_per_task": recorder.counts["engine.events"] * per_task,
        "schedulers.decide_calls_per_task": len(decides) * per_task,
        "metrics.evaluate_us_per_task": total("metrics.evaluate") * per_task * 1e6,
        "transport.serialize_us.p50": p50_us("transport.serialize"),
    }
    for heuristic in workloads.HEURISTICS:
        own = [s[2] - s[1] for s in decides if s[0] == f"schedulers.decide.{heuristic}"]
        layers[f"schedulers.decide_us.{heuristic}"] = stats.percentile(own, 50.0) * 1e6 if own else 0.0
    return layers


def budget_report(recorder, requests: int) -> None:
    """The per-layer budget table: self time per request along the traced path."""
    rows = recorder.budget()
    grand = sum(row[3] for row in rows) or 1.0
    log(f"layer budget over {requests} requests (self time excludes traced children):")
    log(f"  {'layer':<34} {'calls/req':>10} {'self us/req':>12} {'share':>7}")
    for name, calls, _, self_s in sorted(rows, key=lambda row: -row[3]):
        log(f"  {name:<34} {calls / requests:10.2f} {self_s / requests * 1e6:12.1f} {self_s / grand:7.1%}")


def traced_and_reference(
    recorder, state_dirs: Tuple[Path, Path], spec: PhaseSpec, limit_ms: float
) -> Tuple[Phase, Phase]:
    """``(traced, reference)``: one phase offered to two services hosted in this process.

    The phase is split into TRACE_CHUNKS chunks, each offered to the
    untraced reference service and, with the wrappers installed, to the
    traced one, in alternating order (ABBA...), so a process warming up or
    a host slowing down is shared between the two.  The traced service is
    built while the wrappers are installed, so its journal replay is
    traced too.
    """
    from perfbench.tracing import Patcher, install

    name, rate, due, lines = spec
    patcher = Patcher()
    install(patcher, recorder, workloads.HEURISTICS)
    try:
        traced_server = InProcessServer(state_dirs[0])
    finally:
        patcher.restore()
    reference_server = InProcessServer(state_dirs[1])
    chunks: Dict[bool, List[Phase]] = {True: [], False: []}
    size = -(-len(lines) // TRACE_CHUNKS)
    try:
        traced_server.start()
        reference_server.start()
        for chunk in range(TRACE_CHUNKS):
            part = slice(chunk * size, (chunk + 1) * size)
            offset = due[part][0]
            plan = in_order([(f"{name}-{chunk + 1}", rate, [t - offset for t in due[part]], lines[part])])
            for traced in ((False, True) if chunk % 2 == 0 else (True, False)):
                server = traced_server if traced else reference_server
                if traced:
                    install(patcher, recorder, workloads.HEURISTICS)
                try:
                    ran = asyncio.run(drive("127.0.0.1", server.port, None, plan, limit_ms, in_process=True))
                finally:
                    patcher.restore()
                chunks[traced].append(measured(ran)[0])
    finally:
        for server in (traced_server, reference_server):
            server.stop()
    return pooled(name, chunks[True], limit_ms), pooled(name, chunks[False], limit_ms)


def campaign_layers(seed: int) -> Tuple[Dict[str, float], int]:
    """Per-layer numbers of the campaign path, and its output mismatches.

    One small Figure 1 panel (root seed = workload seed) runs in-process
    through ``run_campaign`` with the grid builder, ``run_cell`` and the
    streaming aggregator wrapped; the same grid run on the ``array``
    backend must give identical per-cell metrics and summaries (the
    backend parity contract).
    """
    from perfbench.tracing import Patcher, SpanRecorder
    from repro.campaigns import runner
    from repro.experiments import figure1
    from repro.experiments.config import Figure1Config

    config = Figure1Config(n_platforms=CAMPAIGN_PLATFORMS)
    by_heuristic = lambda cell: cell.param("scheduler")  # noqa: E731
    recorder = SpanRecorder()
    with Patcher() as patcher:
        patcher.patch(figure1, "figure1_panel_grid", recorder.span("experiments.grid_build"))
        patcher.patch(runner, "run_cell", recorder.span("campaigns.run_cell"))
        patcher.patch(runner.StreamingAggregator, "add", recorder.span("campaigns.aggregate"))
        cells = figure1.figure1_panel_grid(config, seed)
        traced = runner.run_campaign(cells, workers=1, group_key=by_heuristic)
    array = runner.run_campaign(cells, workers=1, group_key=by_heuristic, engine_backend="array")
    mismatches = sum(a != b for a, b in zip(traced.metrics, array.metrics))
    mismatches += int(traced.summaries != array.summaries)
    run_cells = recorder.durations("campaigns.run_cell")
    log(f"campaign: {len(cells)} Figure 1 cells, {sum(run_cells):.2f} s in run_cell, {mismatches} array-backend mismatch(es)")
    return {
        "campaigns.run_cell_ms.p50": stats.percentile(run_cells, 50.0) * 1e3,
        "campaigns.aggregate_us.p50": stats.percentile(recorder.durations("campaigns.aggregate"), 50.0) * 1e6,
        "experiments.grid_build_s": sum(recorder.durations("experiments.grid_build")),
    }, mismatches


def traced_run(workload: workloads.Workload, seed: int, seconds: float, work: Path) -> Outcome:
    """The traced run: one light-rate phase offered three times, then a small campaign.

    The phase goes to the subprocess server (scrape and ``/proc`` numbers),
    to the service hosted in this process untraced (the reference for the
    tracing overhead), and to the same in-process service traced.
    """
    from perfbench.tracing import SpanRecorder

    outcome = Outcome()
    source = workloads.RequestSource(workload, seed)
    template = None
    if workload is workloads.HOT_REPEAT:
        template = work / "journaled"
        journal_popular(source, template)
    probe = source.probe()
    count = workloads.phase_requests(workload.light_rps, TRACED_SHARE, seconds)
    due, lines = source.phase(workload.light_rps, count, "light")
    plan = in_order([("light", workload.light_rps, due, lines)])
    limit = workload.p99_limit_ms

    with ServerProcess(ROOT, fresh_state(template, work / "state-subprocess")) as server:
        _, probe_response = server.start_and_probe(probe)
        untraced = measured(asyncio.run(drive(server.host, server.port, server.pid, plan, limit)))[0]
    recorder = SpanRecorder()
    state_dirs = (fresh_state(template, work / "state-traced"), fresh_state(template, work / "state-untraced"))
    traced, reference = traced_and_reference(recorder, state_dirs, ("light", workload.light_rps, due, lines), limit)
    campaign, campaign_mismatches = campaign_layers(seed)

    baseline = baseline_responses(str(ROOT / "src"), [probe] + lines)
    phases = (untraced, reference, traced)
    outcome.mismatches = sum(phase.mismatches(baseline) for phase in phases) + campaign_mismatches
    outcome.mismatches += int(baseline[probe] != probe_response)
    outcome.attempted = 1 + sum(phase.n for phase in phases)
    outcome.failed = sum(phase.failed for phase in phases) + int('"status":"ok"' not in probe_response)

    spans_path = ROOT / OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    recorder.write(spans_path)
    log(f"{len(recorder.spans)} spans written to {spans_path.relative_to(ROOT)}")
    budget_report(recorder, traced.n)

    layers = scrape_layers(untraced)
    layers.update(span_layers(recorder))
    layers.update(campaign)
    layers["trace.overhead_p50_frac"] = traced.p50 / reference.p50 - 1.0
    log(
        f"tracing overhead (in-process server): p50 {reference.p50:.3f} ms untraced -> "
        f"{traced.p50:.3f} ms traced ({layers['trace.overhead_p50_frac']:+.1%}); "
        f"subprocess server p50 {untraced.p50:.3f} ms"
    )
    outcome.metrics = {
        name: (layers[name], unit) for name, (unit, *_rest) in workloads.LAYER_METRICS.items()
    }
    return outcome


# -- entry point ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    return args


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # SystemExit unwinds through the ``finally`` blocks that stop the server.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT}/src/repro is missing "
            "(run from the root of a checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads.validate()
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.perf_counter()
    steal_before, total_before = host_cpu_ticks()
    speed_before = speed_probe()
    try:
        run = traced_run if args.trace else service_run
        outcome = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal_after, total_after = host_cpu_ticks()
    log(
        f"run took {time.perf_counter() - started:.1f} s; host steal "
        f"{(steal_after - steal_before) / max(total_after - total_before, 1):.1%}; "
        f"speed probe {speed_before:.1f} -> {speed_probe():.1f} M loops/s; "
        f"{outcome.mismatches} output mismatch(es)"
    )
    for name, (value, unit) in outcome.metrics.items():
        log(f"  {name:<34} {value:14.6f} {unit}")
    correct = outcome.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
