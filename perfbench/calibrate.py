#!/usr/bin/env python3
"""Measure a workload's latency-versus-offered-rate curve on the current commit.

This is how the frozen rates and limits in ``perfbench/workloads.py`` were
chosen (``busy`` near half of the throughput a slow spell of the host
saturates at, ``light`` near a third of it); it is not part of a
benchmark run.  From the checkout root::

    python3 perfbench/calibrate.py --workload unique-small --seconds 5 \\
        --rates 60 120 180 240 300 600
"""

from __future__ import annotations

import argparse
import asyncio
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path.cwd() / "src"))

from perfbench import run, workloads  # noqa: E402
from perfbench.procs import ServerProcess  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0, help="length of each rate step")
    parser.add_argument("--rates", type=float, nargs="+", required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    source = workloads.RequestSource(workload, args.seed)
    work = run.ROOT / run.WORK_DIR / f"calibrate-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        template = None
        if workload is workloads.HOT_REPEAT:
            template = work / "journaled"
            run.journal_popular(source, template)
        plan = run.in_order([
            (f"r{rate:g}", rate) + source.phase(rate, round(rate * args.seconds), f"r{rate:g}")
            for rate in sorted(args.rates)
        ])
        with ServerProcess(run.ROOT, run.fresh_state(template, work / "state")) as server:
            server.start_and_probe(source.probe())
            phases = asyncio.run(
                run.drive(server.host, server.port, server.pid, plan, workload.p99_limit_ms)
            )
        for phase in phases:
            answered = [r for r in phase.result.received if r is not None]
            span = max(answered) - min(phase.result.due) if answered else 0.0
            print(f"{phase.name}: completed {len(answered) / span if span else 0.0:.1f} req/s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
