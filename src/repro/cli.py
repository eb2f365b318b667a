"""Command-line interface.

``python -m repro <command>`` (or the ``repro-scheduling`` console script)
regenerates the paper's tables and figures from a terminal:

* ``campaign`` — run one experiment through the process-parallel
  campaign runner: ``table1`` (the nine certified lower bounds),
  ``figure1`` (the heuristic comparison on the four platform classes),
  ``figure2`` (the robustness experiment) or ``sweep`` (the heterogeneity
  sweep).  ``--workers N`` fans the grid out over N processes,
  ``--cache-dir`` caches per-cell results on disk so a re-run only
  simulates what changed.  The report on stdout is byte-identical for any
  worker count; execution statistics go to stderr.
* ``scenario`` — list the registered dynamic-platform scenarios, or run
  one on a small platform and compare the seven heuristics under it (every
  schedule is re-checked by ``Schedule.validate``).
* ``serve`` — the scheduling service: a JSONL request/response loop over
  stdin/stdout with request canonicalization, an LRU result cache,
  duplicate coalescing and admission control, whose response stream is
  byte-identical for any batch size or ``--shards`` count.
* ``request`` — build one schedule request from flags and either execute
  it through the service pipeline (one response line on stdout) or
  ``--emit`` it as a JSONL line to feed into ``repro serve``.
* ``top`` — live per-shard telemetry: poll every shard's
  ``{"type": "metrics"}`` endpoint and render a table of RPS, latency
  quantiles, cache hit rate, inflight requests, restarts and breaker
  states, refreshed every ``--interval`` seconds.
* ``demo`` — a single small run with an ASCII Gantt chart, useful as a
  smoke test of the engine and of one scheduler.

``repro --version`` prints the package version (single-sourced from
``repro.__version__``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Tuple

# Only what ``build_parser`` and ``serve`` need is imported here: every
# ``repro serve`` shard (and each restart of one) pays for these imports
# before its first response.  The other handlers import their own modules.
from . import __version__
from .schedulers.base import available_schedulers
from .service.async_server import parse_address, run_server
from .service.cache import LRUResultCache
from .service.dispatcher import ScheduleService
from .service.schema import RELEASE_PROCESSES
from .service.server import serve_lines, summary

__all__ = ["build_parser", "main"]


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {value}")
    return value


def _amplitude(text: str) -> float:
    """A task-size perturbation amplitude (``--amplitude``)."""
    value = float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _heterogeneity_factor(text: str) -> float:
    """A max/min ratio of a platform parameter (``--factors``)."""
    value = float(text)
    if not 1 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be >= 1 and finite, got {value}")
    return value


def _address(text: str) -> Tuple[str, int]:
    """A ``HOST:PORT`` address (``--listen``, ``--connect``)."""
    try:
        return parse_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scenario_name(text: str) -> str:
    """A registered scenario name (``campaign figure1 --scenario``, ``scenario NAME``).

    Checked here rather than through ``choices=`` so that building the
    parser does not import the scenario library.
    """
    from .scenarios import available_scenarios

    names = available_scenarios()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-scheduling",
        description=(
            "Reproduction of 'The impact of heterogeneity on master-slave "
            "on-line scheduling' (Pineau, Robert, Vivien, IPPS 2006)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro-scheduling {__version__}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    campaign = subparsers.add_parser(
        "campaign",
        help="run an experiment campaign through the parallel runner",
        description=(
            "Run an experiment as a campaign grid: cells fan out over worker "
            "processes and individual results are cached on disk.  The "
            "aggregated report on stdout is byte-identical for any --workers "
            "value; cache/compute statistics are printed to stderr."
        ),
    )
    experiments = campaign.add_subparsers(
        dest="experiment", required=True, help="which campaign grid to run"
    )
    runner_flags = argparse.ArgumentParser(add_help=False)
    runner_flags.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        help="worker processes (1 = serial, 0 = all CPUs)",
    )
    runner_flags.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk result cache; re-runs skip already-computed cells",
    )
    grid_flags = argparse.ArgumentParser(add_help=False, parents=[runner_flags])
    grid_flags.add_argument(
        "--platforms", type=_positive_int, default=10, help="platforms per grid"
    )
    grid_flags.add_argument("--tasks", type=_positive_int, default=1000, help="tasks per run")
    grid_flags.add_argument("--seed", type=int, default=2006)

    figure1 = experiments.add_parser(
        "figure1", parents=[grid_flags], help="the heuristics on the four platform classes"
    )
    figure1.add_argument(
        "--panels", nargs="+", default=None, choices=("1a", "1b", "1c", "1d"),
        metavar="PANEL", help="subset of panels (1a 1b 1c 1d)",
    )
    figure1.add_argument(
        "--cluster", action="store_true",
        help="drive the cells through the simulated MPI cluster",
    )
    figure1.add_argument(
        "--scenario", default="static", type=_scenario_name,
        help="dynamic-platform scenario grid axis",
    )
    figure1.set_defaults(run=_run_figure1)

    figure2 = experiments.add_parser(
        "figure2", parents=[grid_flags], help="robustness to task-size perturbation"
    )
    figure2.add_argument(
        "--amplitude", type=_amplitude, default=0.10,
        help="task-size perturbation amplitude, in [0, 1)",
    )
    figure2.add_argument(
        "--perturbations", type=_positive_int, default=3,
        help="perturbed workloads per platform",
    )
    figure2.set_defaults(run=_run_figure2)

    sweep = experiments.add_parser(
        "sweep", parents=[grid_flags], help="the heuristic spread as heterogeneity grows"
    )
    sweep.add_argument(
        "--dimension", default="both",
        choices=("communication", "computation", "both"),
        help="which platform parameter is spread",
    )
    sweep.add_argument(
        "--factors", type=_heterogeneity_factor, nargs="+", default=[1.0, 2.0, 4.0, 8.0, 16.0],
        metavar="F", help="heterogeneity factors, each >= 1",
    )
    sweep.set_defaults(run=_run_sweep)

    table1 = experiments.add_parser(
        "table1", parents=[runner_flags], help="the nine certified lower bounds"
    )
    table1.add_argument(
        "--heuristics", action="store_true",
        help="also play every heuristic against every adversary",
    )
    table1.set_defaults(run=_run_table1)

    platform_flags = argparse.ArgumentParser(add_help=False)
    platform_flags.add_argument(
        "--comm", type=_positive_float, nargs="+", default=[0.2, 0.5, 1.0], help="c_j per worker"
    )
    platform_flags.add_argument(
        "--comp", type=_positive_float, nargs="+", default=[1.0, 2.0, 4.0], help="p_j per worker"
    )

    scenario = subparsers.add_parser(
        "scenario",
        parents=[platform_flags],
        help="list dynamic-platform scenarios or run the heuristics under one",
        description=(
            "Without a name (or with --list), print the registered scenarios.  "
            "With a name, instantiate the scenario on a small platform, run "
            "the selected scheduler(s) under it, validate every schedule "
            "against the scenario timeline, and print the platform events "
            "and the resulting metrics."
        ),
    )
    scenario.add_argument(
        "name",
        nargs="?",
        default=None,
        type=_scenario_name,
        help="scenario to run (omit to list)",
    )
    scenario.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    scenario.add_argument(
        "--scheduler",
        default="all",
        choices=["all"] + available_schedulers(),
        help="scheduler to run under the scenario (default: the seven paper heuristics)",
    )
    scenario.add_argument("--tasks", type=_positive_int, default=200, help="tasks per run")
    scenario.add_argument("--seed", type=_nonnegative_int, default=2006)

    serve = subparsers.add_parser(
        "serve",
        help="run the scheduling service (stdin/stdout loop, or --listen for TCP)",
        description=(
            "Read one JSON schedule request per stdin line, write one JSON "
            "response per stdout line, in submission order.  Requests are "
            "canonicalized (semantically equal requests share one cache "
            "key), served from a bounded LRU result cache when possible, "
            "coalesced when identical requests are in flight, and simulated "
            "inline.  The response stream is byte-identical for any "
            "--batch-size or --shards value; statistics go to stderr.  With "
            "--listen HOST:PORT the same protocol is served as a persistent "
            "JSONL-over-TCP socket (concurrent connections, bounded "
            "per-connection backpressure, graceful drain on SIGTERM); "
            "--shards N boots N such server processes on consecutive ports, "
            "each owning a slice of the cache keyspace."
        ),
    )
    serve.add_argument(
        "--listen",
        type=_address,
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve JSONL over a persistent TCP socket at this address "
            "instead of the one-shot stdin/stdout loop"
        ),
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "with --listen: number of shard server processes on consecutive "
            "ports (shard i listens on PORT+i; requests route by canonical key)"
        ),
    )
    serve.add_argument(
        "--batch-size",
        type=_positive_int,
        default=16,
        help="requests resolved per dispatch round",
    )
    serve.add_argument(
        "--cache-size",
        type=_nonnegative_int,
        default=1024,
        help="LRU result cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--max-cost",
        type=_positive_int,
        default=None,
        metavar="COST",
        help="admission budget on tasks x workers per request (default: unbounded)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist the result cache under this directory (per-shard "
            "journal + snapshot) and replay it on restart, so a restarted "
            "shard comes back warm instead of cold (see docs/SERVICE.md)"
        ),
    )
    serve.add_argument(
        "--journal-max-entries",
        type=_positive_int,
        default=1024,
        metavar="N",
        help=(
            "with --state-dir: journal records beyond which the journal is "
            "compacted into an atomic snapshot"
        ),
    )
    serve.add_argument(
        "--restart-limit",
        type=_nonnegative_int,
        default=5,
        metavar="N",
        help=(
            "with --shards > 1: consecutive crashes after which a shard is "
            "abandoned instead of restarted (0 disables auto-restart)"
        ),
    )
    serve.add_argument(
        "--restart-base-delay",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "with --shards > 1: delay before a crashed shard's first "
            "restart (doubles per consecutive crash, capped at 8s, jittered)"
        ),
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the statistics summary on stderr",
    )

    request = subparsers.add_parser(
        "request",
        help="build one schedule request and execute it (or --emit it as JSONL)",
        description=(
            "Assemble a schedule request from flags, run it through the "
            "same validate/canonicalize/execute pipeline as the service, "
            "and print the JSON response on stdout.  With --emit, print "
            "the request itself as one JSONL line instead — ready to pipe "
            "into 'repro serve'."
        ),
    )
    request.add_argument(
        "--scheduler",
        default="LS",
        type=str.upper,
        choices=available_schedulers(),
        help="scheduler to request (case-insensitive)",
    )
    request.add_argument(
        "--comm", type=float, nargs="+", default=[0.2, 0.5, 1.0], help="c_j per worker"
    )
    request.add_argument(
        "--comp", type=float, nargs="+", default=[1.0, 2.0, 4.0], help="p_j per worker"
    )
    request.add_argument("--tasks", type=_positive_int, default=100, help="tasks to schedule")
    request.add_argument(
        "--process",
        default="all-at-zero",
        choices=sorted(RELEASE_PROCESSES),
        help="release process of the task bag",
    )
    request.add_argument(
        "--rate", type=float, default=None, help="poisson only: arrival rate"
    )
    request.add_argument(
        "--horizon", type=float, default=None, help="uniform only: release window"
    )
    request.add_argument(
        "--burst-size", type=int, default=None, help="bursty only: tasks per burst"
    )
    request.add_argument(
        "--gap", type=float, default=None, help="bursty only: idle time between bursts"
    )
    request.add_argument(
        "--jitter", type=float, default=None, help="bursty only: per-release jitter"
    )
    request.add_argument(
        "--load-factor",
        type=float,
        default=None,
        help="saturating only: multiple of the platform's sustainable rate",
    )
    request.add_argument("--seed", type=_nonnegative_int, default=0, help="request seed")
    request.add_argument(
        "--id", default=None, metavar="ID", help="correlation id echoed in the response"
    )
    destination = request.add_mutually_exclusive_group()
    destination.add_argument(
        "--emit",
        action="store_true",
        help="print the request as a JSONL line instead of executing it",
    )
    destination.add_argument(
        "--connect",
        type=_address,
        default=None,
        metavar="HOST:PORT",
        help=(
            "send the request to a persistent server (repro serve --listen) "
            "instead of executing it in-process"
        ),
    )
    request.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "with --connect: shard count of the server topology "
            "(shard i listens on PORT+i; the request routes by canonical key)"
        ),
    )
    request.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "with --connect: query every shard's metrics request type "
            "(full telemetry registry; one JSON line per shard)"
        ),
    )
    request.add_argument(
        "--trace",
        action="store_true",
        help=(
            'request span timings in the response ("trace": true); the '
            "trace id is --id, or a freshly minted one"
        ),
    )
    request.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --connect: per-request deadline; a stalled shard resolves "
            "to a typed shard-timeout response instead of hanging"
        ),
    )

    top = subparsers.add_parser(
        "top",
        help="live per-shard telemetry table for a running sharded server",
        description=(
            "Poll every shard's metrics endpoint and render a per-shard "
            "table: requests per second, server-side p50/p99 latency, "
            "cache hit rate, inflight requests, restart count, warm hits "
            "and the client's circuit-breaker state.  Refreshes every "
            "--interval seconds until interrupted (or for --iterations "
            "polls); shards that do not answer show as unavailable."
        ),
    )
    top.add_argument(
        "--connect",
        type=_address,
        required=True,
        metavar="HOST:PORT",
        help="base address of the sharded server (shard i listens on PORT+i)",
    )
    top.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="shard count of the server topology",
    )
    top.add_argument(
        "--interval",
        type=_positive_float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between polls",
    )
    top.add_argument(
        "--iterations",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="stop after N polls (0 = run until interrupted)",
    )
    top.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-poll deadline; a stalled shard shows as unavailable",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append tables instead of clearing the screen between polls",
    )

    demo = subparsers.add_parser(
        "demo", parents=[platform_flags], help="run one scheduler and print a Gantt chart"
    )
    demo.add_argument("--scheduler", default="LS", choices=available_schedulers())
    demo.add_argument("--tasks", type=_positive_int, default=12)
    return parser


def _run_figure1(args: argparse.Namespace, cache) -> str:
    from .experiments.config import Figure1Config
    from .experiments.figure1 import run_figure1
    from .experiments.reporting import format_figure1

    config = Figure1Config(
        n_platforms=args.platforms,
        n_tasks=args.tasks,
        seed=args.seed,
        use_cluster=args.cluster,
        scenario=args.scenario,
    )
    return format_figure1(
        run_figure1(config, panels=args.panels, workers=args.workers, cache=cache)
    )


def _run_figure2(args: argparse.Namespace, cache) -> str:
    from .experiments.config import Figure2Config
    from .experiments.figure2 import run_figure2
    from .experiments.reporting import format_figure2

    config = Figure2Config(
        n_platforms=args.platforms,
        n_tasks=args.tasks,
        seed=args.seed,
        perturbation_amplitude=args.amplitude,
        n_perturbations=args.perturbations,
    )
    return format_figure2(run_figure2(config, workers=args.workers, cache=cache))


def _run_sweep(args: argparse.Namespace, cache) -> str:
    from .experiments.reporting import format_sweep
    from .experiments.sweep import run_heterogeneity_sweep

    sweep = run_heterogeneity_sweep(
        dimension=args.dimension,
        factors=tuple(args.factors),
        n_tasks=args.tasks,
        n_platforms=args.platforms,
        rng=args.seed,
        workers=args.workers,
        cache=cache,
    )
    return format_sweep(sweep)


def _run_table1(args: argparse.Namespace, cache) -> str:
    from .experiments.reporting import format_table1_result
    from .experiments.table1 import run_table1

    result = run_table1(include_heuristics=args.heuristics, workers=args.workers, cache=cache)
    return format_table1_result(result)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaigns.cache import CampaignCache

    cache = CampaignCache(args.cache_dir) if args.cache_dir else None
    # ``run`` is the experiment's run-and-format call (``set_defaults``).
    report = args.run(args, cache)

    # Execution statistics go to stderr so stdout stays byte-identical
    # across worker counts and cache states.
    if cache is not None:
        print(
            f"campaign: {cache.misses} cell(s) computed, "
            f"{cache.hits} served from cache (workers={args.workers})",
            file=sys.stderr,
        )
    else:
        print(f"campaign: no cache (workers={args.workers})", file=sys.stderr)
    print(report)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .core.engine import simulate
    from .core.metrics import evaluate
    from .core.platform import Platform
    from .scenarios import available_scenarios, create_scenario
    from .schedulers.base import PAPER_HEURISTICS, create_scheduler

    if args.list or args.name is None:
        print(f"{'scenario':<18} description")
        print("-" * 78)
        for name in available_scenarios():
            print(f"{name:<18} {create_scenario(name).description}")
        return 0

    scenario = create_scenario(args.name)
    platform = Platform.from_times(args.comm, args.comp)
    instance = scenario.build(platform, args.tasks, rng=args.seed)

    print(f"scenario : {scenario.name} — {scenario.description}")
    print(f"platform : {platform!r}")
    print(f"horizon  : {scenario.horizon(platform, args.tasks):.3f}")
    releases = instance.tasks.releases
    print(
        f"releases : {len(releases)} task(s) over "
        f"[{min(releases):.3f}, {max(releases):.3f}]"
    )
    if instance.timeline.is_trivial:
        print("timeline : static (no platform events)")
    else:
        print(f"timeline : {len(instance.timeline)} platform event(s)")
        for line in instance.timeline.describe():
            print(f"  {line}")
    print()

    names = list(PAPER_HEURISTICS) if args.scheduler == "all" else [args.scheduler]
    header = f"{'heuristic':<10}{'makespan':>12}{'sum-flow':>12}{'max-flow':>12}"
    print(header)
    print("-" * len(header))
    for name in names:
        schedule = simulate(
            create_scheduler(name),
            platform,
            instance.tasks,
            expose_task_count=True,
            timeline=instance.timeline,
        )
        schedule.validate()
        metrics = evaluate(schedule)
        print(
            f"{name:<10}{metrics.makespan:>12.3f}"
            f"{metrics.sum_flow:>12.3f}{metrics.max_flow:>12.3f}"
        )
    return 0


def _build_persistence(args: argparse.Namespace):
    """The shard's durability layer per the serve flags (or ``None``).

    Each shard journals under its own ``shard-NN`` subdirectory
    (zero-padded index) of ``--state-dir`` (the index rides in
    ``REPRO_SHARD_INDEX``, so supervisor respawns land on the dead
    shard's journal), keeping the replayed keyspace slice aligned with
    canonical-key routing.
    """
    if args.state_dir is None or not args.cache_size:
        return None
    import os
    from pathlib import Path

    from .service.persistence import ShardPersistence

    shard_index = int(os.environ.get("REPRO_SHARD_INDEX", "0"))
    return ShardPersistence(
        Path(args.state_dir) / f"shard-{shard_index:02d}",
        journal_max_entries=args.journal_max_entries,
    )


def _build_service(args: argparse.Namespace) -> ScheduleService:
    """One dispatcher configured from the ``repro serve`` flags.

    With ``--state-dir``, the cache is warm-loaded from the shard's
    journal+snapshot *here* — before the caller starts accepting
    requests — so a restarted shard's first connection already sees the
    replayed results.  The service counts into the cache's metric
    registry, so ``cache.*`` counters land in the ``{"type": "metrics"}``
    scrape.
    """
    cache = (
        LRUResultCache(
            max_entries=args.cache_size,
            persistence=_build_persistence(args),
        )
        if args.cache_size
        else None
    )
    if cache is not None and cache.persistence is not None:
        warmed = cache.warm_load()
        if not args.quiet:
            print(
                f"persistence: replayed {warmed} cached result(s) from "
                f"{cache.persistence.state_dir}",
                file=sys.stderr,
                flush=True,
            )
    return ScheduleService(
        batch_size=args.batch_size,
        cache=cache,
        max_cost=args.max_cost,
    )


def _serve_flag_argv(args: argparse.Namespace) -> List[str]:
    """Re-encode the service flags for a shard child process."""
    argv = [
        "--batch-size", str(args.batch_size),
        "--cache-size", str(args.cache_size),
    ]
    if args.max_cost is not None:
        argv += ["--max-cost", str(args.max_cost)]
    if args.state_dir is not None:
        # Respawned shards replay their journal, so restarts come back warm.
        argv += [
            "--state-dir", str(args.state_dir),
            "--journal-max-entries", str(args.journal_max_entries),
        ]
    if args.quiet:
        argv.append("--quiet")
    return argv


def _run_shard_supervisor(args: argparse.Namespace, host: str, port: int) -> int:
    """Boot ``--shards`` server child processes and supervise them.

    Shard ``i`` listens on ``port + i``.  Delegates the monitoring loop to
    :class:`repro.service.supervisor.ShardSupervisor`: a crashed shard is
    restarted on its original port with capped exponential backoff (give
    up after ``--restart-limit`` consecutive crashes), SIGTERM/SIGINT is
    forwarded to every child (each drains gracefully), and a child dying
    does NOT take the others down — healthy shards keep serving while the
    client's failover/reconnect machinery rides out the restart.
    """
    import os
    import subprocess

    from .service.supervisor import RestartPolicy, ShardSupervisor

    if port == 0:
        print(
            "error: --shards > 1 needs an explicit base port (shard i "
            "listens on PORT+i)",
            file=sys.stderr,
        )
        return 2

    def spawn(index: int, restarts: int) -> "subprocess.Popen":
        command = [
            sys.executable, "-m", "repro", "serve",
            "--listen", f"{host}:{port + index}", "--shards", "1",
        ] + _serve_flag_argv(args)
        # Shard identity and restart count ride on the environment so the
        # child's metrics responses report them without extra CLI surface.
        env = dict(os.environ)
        env["REPRO_SHARD_INDEX"] = str(index)
        env["REPRO_SHARD_COUNT"] = str(args.shards)
        env["REPRO_SHARD_RESTARTS"] = str(restarts)
        process = subprocess.Popen(command, env=env)
        print(
            f"shard {index + 1}/{args.shards}: {host}:{port + index} "
            f"pid={process.pid} restarts={restarts}",
            file=sys.stderr,
            flush=True,
        )
        return process

    supervisor = ShardSupervisor(
        spawn,
        args.shards,
        policy=RestartPolicy(
            base_delay=args.restart_base_delay,
            max_restarts=args.restart_limit,
        ),
        err=sys.stderr,
    )
    return supervisor.run()


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen is None:
        if args.shards != 1:
            print("error: --shards requires --listen", file=sys.stderr)
            return 2
        with _build_service(args) as service:
            serve_lines(sys.stdin, service, sys.stdout)
            if not args.quiet:
                snapshot = service.registry.snapshot()
                print(summary(snapshot, cache=service.cache is not None), file=sys.stderr)
        return 0

    host, port = args.listen
    if args.shards > 1:
        return _run_shard_supervisor(args, host, port)

    import asyncio
    import os

    with _build_service(args) as service:
        serving = run_server(
            service,
            host,
            port,
            shard_index=int(os.environ.get("REPRO_SHARD_INDEX", "0")),
            shard_count=int(os.environ.get("REPRO_SHARD_COUNT", "1")),
            shard_restarts=int(os.environ.get("REPRO_SHARD_RESTARTS", "0")),
            err=sys.stderr,
        )
        asyncio.run(serving)
        if not args.quiet:
            print(summary(service.registry.snapshot()), file=sys.stderr)
    return 0


def _request_payload(args: argparse.Namespace) -> dict:
    """Assemble the raw request mapping described by the CLI flags."""
    tasks: dict = {"process": args.process, "n": args.tasks}
    for field in ("rate", "horizon", "burst_size", "gap", "jitter", "load_factor"):
        value = getattr(args, field)
        if value is not None:
            tasks[field] = value
    payload = {
        "platform": {"comm": args.comm, "comp": args.comp},
        "tasks": tasks,
        "scheduler": args.scheduler,
        "seed": args.seed,
    }
    if args.id is not None:
        payload["id"] = args.id
    if args.trace:
        payload["trace"] = True
    return payload


def _cmd_request_connected(args: argparse.Namespace) -> int:
    """Send one request (or a metrics query) to a sharded server."""
    import asyncio
    import json

    from ._hashing import canonical_json
    from .service.sharding import ShardedClient

    host, port = args.connect

    async def go() -> List[str]:
        async with ShardedClient.from_base(
            host, port, args.shards, request_timeout=args.timeout
        ) as client:
            if args.metrics:
                payloads = await client.metrics(args.id)
                return [canonical_json(payload) for payload in payloads]
            line = canonical_json(_request_payload(args))
            return [await (await client.submit(line))]

    try:
        lines = asyncio.run(go())
    except (OSError, asyncio.TimeoutError) as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if args.metrics:
        return 0
    response = json.loads(lines[0])
    if response["status"] != "ok":
        print(f"error: {response['error']['message']}", file=sys.stderr)
        return 2
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    from ._hashing import canonical_json
    from .exceptions import RequestValidationError
    from .service.schema import canonicalize_request
    from .service.server import response_line

    if args.metrics and args.connect is None:
        print("error: --metrics requires --connect", file=sys.stderr)
        return 2
    if args.connect is not None:
        return _cmd_request_connected(args)
    payload = _request_payload(args)
    if args.emit:
        # Validate before emitting, so a malformed flag combination fails
        # here (exit 2) instead of as a downstream error response.
        try:
            canonicalize_request(payload)
        except RequestValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(canonical_json(payload))
        return 0
    with ScheduleService(batch_size=1) as service:
        (response,) = service.serve_chunk([payload])
    print(response_line(response))
    if response["status"] != "ok":
        print(f"error: {response['error']['message']}", file=sys.stderr)
        return 2
    return 0


def _render_top_table(
    payloads: List[dict],
    previous: dict,
    now: float,
) -> List[str]:
    """Format one ``repro top`` refresh as table lines.

    ``previous`` maps shard index to ``(responded, poll_time)`` from the
    last refresh and is updated in place; RPS is the responded delta over
    the poll interval (first refresh falls back to the lifetime average
    ``responded / uptime``).  Unreachable shards render a placeholder row
    that still shows the client's breaker state for that shard.
    """
    header = (
        f"{'shard':>5} {'rps':>8} {'p50ms':>8} {'p99ms':>8} {'hit%':>6} "
        f"{'inflight':>8} {'restarts':>8} {'warm':>6} {'breaker':>8}"
    )
    lines = [header, "-" * len(header)]
    for index, payload in enumerate(payloads):
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            breaker = payload.get("client", {}).get("breaker_state", "?")
            lines.append(
                f"{index:>5} {'-':>8} {'-':>8} {'-':>8} {'-':>6} "
                f"{'-':>8} {'-':>8} {'-':>6} {breaker:>8}  (unavailable)"
            )
            previous.pop(index, None)
            continue
        counters = metrics["counters"]
        gauges = metrics["gauges"]
        request_ms = metrics["histograms"]["service.request_ms"]
        responded = counters["service.responded"]
        if index in previous:
            last_responded, last_time = previous[index]
            elapsed = max(now - last_time, 1e-9)
            rps = max(responded - last_responded, 0) / elapsed
        else:
            rps = responded / max(metrics.get("uptime_s", 0.0), 1e-9)
        previous[index] = (responded, now)
        hits = counters["cache.hits"]
        misses = counters["cache.misses"]
        lookups = hits + misses
        hit_pct = f"{100.0 * hits / lookups:5.1f}" if lookups else "    -"
        breaker = metrics.get("client", {}).get("breaker_state", "?")
        lines.append(
            f"{index:>5} {rps:>8.1f} {request_ms['p50']:>8.2f} "
            f"{request_ms['p99']:>8.2f} {hit_pct:>6} "
            f"{gauges['server.inflight']:>8.0f} "
            f"{gauges['server.restarts']:>8.0f} "
            f"{counters['cache.warm_hits']:>6} {breaker:>8}"
        )
    return lines


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll every shard's metrics endpoint and render a live table."""
    import asyncio
    import time

    from .service.sharding import ShardedClient

    host, port = args.connect

    async def watch() -> None:
        async with ShardedClient.from_base(
            host, port, args.shards, request_timeout=args.timeout
        ) as client:
            previous: dict = {}
            iteration = 0
            while True:
                payloads = await client.metrics()
                now = time.monotonic()
                iteration += 1
                if not args.no_clear:
                    # ANSI clear-screen + home, like top/watch.
                    print("\x1b[2J\x1b[H", end="")
                print(
                    f"repro top — {args.shards} shard(s) @ {host}:{port} "
                    f"(poll {iteration}, every {args.interval:g}s)"
                )
                print("\n".join(_render_top_table(payloads, previous, now)))
                sys.stdout.flush()
                if args.iterations and iteration >= args.iterations:
                    return
                await asyncio.sleep(args.interval)

    try:
        asyncio.run(watch())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core.engine import simulate
    from .core.metrics import evaluate
    from .core.platform import Platform
    from .core.trace import render_ascii_gantt
    from .schedulers.base import create_scheduler
    from .workloads.release import all_at_zero

    platform = Platform.from_times(args.comm, args.comp)
    tasks = all_at_zero(args.tasks)
    scheduler = create_scheduler(args.scheduler)
    schedule = simulate(scheduler, platform, tasks, expose_task_count=True)
    metrics = evaluate(schedule)
    print(f"scheduler : {scheduler.name}")
    print(f"platform  : {platform!r}")
    print(f"makespan  : {metrics.makespan:.3f}")
    print(f"sum-flow  : {metrics.sum_flow:.3f}")
    print(f"max-flow  : {metrics.max_flow:.3f}")
    print()
    print(render_ascii_gantt(schedule))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("scenario", "demo") and len(args.comm) != len(args.comp):
        parser.error("--comm and --comp must have the same length")
    handlers = {
        "campaign": _cmd_campaign,
        "scenario": _cmd_scenario,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "top": _cmd_top,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
