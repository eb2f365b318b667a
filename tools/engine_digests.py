#!/usr/bin/env python
"""Committed digests of the reference engine's decisions, one line per case.

``tests/golden/engine_digests.jsonl`` holds, for every case this module
builds, a readable case id, the reference engine's makespan, sum-flow and
max-flow, and ``content_hash([trace_rows, metrics])`` of the run.  An engine
change that moves one task of one case moves that case's digest, so the
``git diff`` of a regenerated file is the per-case list of what moved, old
and new metrics side by side.

The cases, in file order:

* ``grid/<scenario>/<seed>/<scheduler>`` — the seven paper heuristics on
  every built-in scenario, 5 seeds, 40 tasks on :data:`GRID_PLATFORM`;
* ``hidden/<scenario>/<seed>/<scheduler>`` — the static and
  degrading-worker grid at 2 seeds and 30 tasks with
  ``expose_task_count=False`` (the SLJF/SLJFWC planning horizon);
* ``random/<index>/<scheduler>`` — ``random_cases(60, seed=0)``;
* ``golden/<scenario>/<scheduler>`` — static, degrading-worker and
  node-failure at 25 tasks, rng seed 7;
* ``shape/<shape>/<scheduler>`` — a mixed vectorized/fallback batch,
  five (workers x tasks) shapes from 1x1 to 3x60, and staggered releases.

Every backend in :data:`BACKENDS` must reproduce every committed digest.
Each family runs as one ``run_batch`` (the grid is one 280-job batch), so
the array kernel is checked on its batched path::

    PYTHONPATH=src python tools/engine_digests.py          # check
    PYTHONPATH=src python tools/engine_digests.py --write  # regenerate

The check exits 1 and lists each case that moved, is missing from the file,
or is in the file but no longer built.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (path bootstrap above)

from repro._hashing import content_hash  # noqa: E402
from repro.core.kernel import KernelJob, KernelResult, create_kernel  # noqa: E402
from repro.core.platform import Platform  # noqa: E402
from repro.core.task import TaskSet  # noqa: E402
from repro.scenarios import available_scenarios, create_scenario  # noqa: E402
from repro.schedulers.base import PAPER_HEURISTICS  # noqa: E402
from repro.workloads.release import all_at_zero  # noqa: E402

__all__ = [
    "BACKENDS",
    "DIGEST_FILE",
    "FALLBACK_SCHEDULERS",
    "GRID_PLATFORM",
    "check",
    "digest_line",
    "digest_lines",
    "families",
    "grid_cases",
    "main",
    "random_cases",
    "render",
]

#: The committed digests.
DIGEST_FILE = Path(__file__).resolve().parent.parent / "tests" / "golden" / "engine_digests.jsonl"

#: The backends that must reproduce every digest; ``reference`` writes them.
BACKENDS = ("reference", "array")

#: The fixed 4-worker heterogeneous platform of the grid and golden cases.
GRID_PLATFORM = Platform.from_times([0.05, 0.09, 0.07, 0.12], [0.6, 1.1, 0.9, 1.4])

#: Deterministic non-vectorized schedulers: every one exercises the array
#: backend's per-job delegation to the reference engine.  RANDOM is excluded
#: on purpose — its decisions draw from a per-instance stream, so two
#: independent runs are not comparable case material.
FALLBACK_SCHEDULERS = ("RR-STRICT", "RRC-STRICT", "RRP-STRICT", "GREEDY-COMM", "SINGLE")

Case = Tuple[str, KernelJob]


def grid_cases(
    schedulers: Sequence[str] = tuple(PAPER_HEURISTICS),
    scenarios: Optional[Sequence[str]] = None,
    seeds: int = 5,
    n_tasks: int = 40,
) -> List[KernelJob]:
    """Every (scenario x seed x scheduler) job on :data:`GRID_PLATFORM`, in
    that nesting order.

    Scenario instances (task releases and platform timeline) are derived per
    (scenario, seed) and shared by all schedulers of that combination, the
    same discipline the campaign layer uses.
    """
    names = sorted(available_scenarios()) if scenarios is None else list(scenarios)
    jobs: List[KernelJob] = []
    for scenario_name in names:
        scenario = create_scenario(scenario_name)
        for seed in range(seeds):
            rng = np.random.default_rng(1_000 + seed)
            instance = scenario.build(GRID_PLATFORM, n_tasks, rng)
            for scheduler in schedulers:
                jobs.append(
                    KernelJob(
                        scheduler,
                        GRID_PLATFORM,
                        instance.tasks,
                        timeline=instance.timeline,
                    )
                )
    return jobs


def random_cases(n_cases: int, seed: int = 0) -> List[KernelJob]:
    """A seeded randomized corpus of ``n_cases`` kernel jobs.

    Each case draws its platform shape (1-6 workers), its heterogeneity,
    its bag size (1-60 tasks), a scenario, a scheduler (one in six draws a
    non-vectorized fallback scheduler) and the ``expose_task_count`` flag
    from one deterministic stream, so a corpus is reproducible from
    ``(n_cases, seed)`` alone.
    """
    rng = np.random.default_rng(987_000 + seed)
    scenario_names = sorted(available_scenarios())
    vectorized = list(PAPER_HEURISTICS)
    jobs: List[KernelJob] = []
    for _ in range(n_cases):
        n_workers = int(rng.integers(1, 7))
        comm = rng.uniform(0.02, 0.4, size=n_workers).round(4)
        comp = rng.uniform(0.3, 2.5, size=n_workers).round(4)
        platform = Platform.from_times(comm.tolist(), comp.tolist())
        n_tasks = int(rng.integers(1, 61))
        scenario = create_scenario(scenario_names[int(rng.integers(len(scenario_names)))])
        instance = scenario.build(platform, n_tasks, rng)
        if rng.integers(6) == 0:
            scheduler = FALLBACK_SCHEDULERS[int(rng.integers(len(FALLBACK_SCHEDULERS)))]
        else:
            scheduler = vectorized[int(rng.integers(len(vectorized)))]
        jobs.append(
            KernelJob(
                scheduler,
                platform,
                instance.tasks,
                timeline=instance.timeline,
                expose_task_count=bool(rng.integers(2)),
            )
        )
    return jobs


def _grid_ids(family: str, scenarios: Sequence[str], seeds: int) -> List[str]:
    """Case ids of :func:`grid_cases` over the paper heuristics, in its order."""
    return [
        f"{family}/{scenario}/{seed}/{name}"
        for scenario in scenarios
        for seed in range(seeds)
        for name in PAPER_HEURISTICS
    ]


def _shape_cases() -> List[Case]:
    """Fixed batch shapes: fallback and vectorized jobs mixed, job sizes from
    one worker and one task up, and releases staggered in time."""
    two_workers = Platform.from_times([0.1, 0.3], [0.8, 1.6])
    cases = [
        (f"shape/mixed/{name}", KernelJob(name, two_workers, all_at_zero(12)))
        for name in ("LS", "RR-STRICT", "SRPT", "GREEDY-COMM", "SLJFWC")
    ]
    for m, n in [(1, 1), (2, 7), (5, 23), (3, 60), (6, 2)]:
        platform = Platform.from_times(
            [0.05 + 0.03 * j for j in range(m)], [0.5 + 0.2 * j for j in range(m)]
        )
        cases += [
            (f"shape/{m}x{n}/{name}", KernelJob(name, platform, all_at_zero(n)))
            for name in ("LS", "SRPT")
        ]
    three_workers = Platform.from_times([0.2, 0.4, 0.1], [1.0, 0.7, 1.9])
    staggered = TaskSet.from_releases([0.0, 0.0, 0.5, 0.5, 0.5, 2.0, 7.5, 7.5])
    cases += [
        (f"shape/staggered/{name}", KernelJob(name, three_workers, staggered))
        for name in ("LS", "SRPT", "RR", "SLJF")
    ]
    return cases


def families() -> Dict[str, List[Case]]:
    """Every case as ``(case id, job)``, grouped into one batch per family."""
    scenarios = sorted(available_scenarios())
    hidden_scenarios = ["static", "degrading-worker"]
    hidden_jobs = grid_cases(scenarios=hidden_scenarios, seeds=2, n_tasks=30)
    golden: List[Case] = []
    for scenario in ("static", "degrading-worker", "node-failure"):
        instance = create_scenario(scenario).build(
            GRID_PLATFORM, 25, np.random.default_rng(7)
        )
        golden += [
            (
                f"golden/{scenario}/{name}",
                KernelJob(name, GRID_PLATFORM, instance.tasks, timeline=instance.timeline),
            )
            for name in PAPER_HEURISTICS
        ]
    return {
        "grid": list(zip(_grid_ids("grid", scenarios, 5), grid_cases())),
        "hidden": [
            (case_id, replace(job, expose_task_count=False))
            for case_id, job in zip(_grid_ids("hidden", hidden_scenarios, 2), hidden_jobs)
        ],
        "random": [
            (f"random/{index}/{job.scheduler}", job)
            for index, job in enumerate(random_cases(60, seed=0))
        ],
        "golden": golden,
        "shape": _shape_cases(),
    }


def digest_line(case_id: str, result: KernelResult) -> Dict[str, object]:
    """One line of the file: the case id, three metrics and the run's digest."""
    metrics = result.metrics
    return {
        "case": case_id,
        "makespan": metrics["makespan"],
        "sum_flow": metrics["sum_flow"],
        "max_flow": metrics["max_flow"],
        "digest": content_hash([result.trace(), metrics]),
    }


def digest_lines(backend: str) -> List[Dict[str, object]]:
    """Run every case through ``backend``, one ``run_batch`` per family."""
    kernel = create_kernel(backend)
    lines: List[Dict[str, object]] = []
    for cases in families().values():
        results = kernel.run_batch([job for _, job in cases])
        lines += [digest_line(case_id, result) for (case_id, _), result in zip(cases, results)]
    return lines


def render(lines: Sequence[Dict[str, object]]) -> str:
    """The file's text: one JSON object per line, in case order."""
    return "".join(json.dumps(line) + "\n" for line in lines)


def check(lines: Sequence[Dict[str, object]], path: Path = DIGEST_FILE) -> List[Tuple[str, str]]:
    """``(case id, what differs)`` for every case ``lines`` and the file at
    ``path`` disagree on; an empty list means every digest holds."""
    committed = {}
    if path.exists():
        for text in path.read_text(encoding="utf-8").splitlines():
            entry = json.loads(text)
            committed[entry["case"]] = entry
    problems: List[Tuple[str, str]] = []
    for line in lines:
        case_id = line["case"]
        old = committed.pop(case_id, None)
        if old is None:
            problems.append((case_id, "missing from the file"))
        elif old != line:
            moved = [
                f"{key} {old.get(key)!r} -> {value!r}"
                for key, value in line.items()
                if key not in ("case", "digest") and old.get(key) != value
            ]
            problems.append(
                (case_id, "moved: " + ("; ".join(moved) or "same makespan, sum-flow and max-flow"))
            )
    problems += [(case_id, "in the file but no longer built") for case_id in committed]
    return problems


def main(argv=None) -> int:
    """CLI entry point: check every backend against the file, or rewrite it."""
    parser = argparse.ArgumentParser(
        description=f"Check or regenerate the engine digests in {DIGEST_FILE.name}."
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite the file from the reference engine (default: check every backend)",
    )
    args = parser.parse_args(argv)

    if args.write:
        lines = digest_lines("reference")
        DIGEST_FILE.write_text(render(lines), encoding="utf-8")
        print(f"wrote {len(lines)} case(s) to {DIGEST_FILE}")
        return 0
    failed = False
    for backend in BACKENDS:
        lines = digest_lines(backend)
        problems = check(lines, DIGEST_FILE)
        status = "FAIL" if problems else "ok"
        print(f"{backend}: {len(lines)} case(s), {len(problems)} differ [{status}]")
        for case_id, detail in problems:
            print(f"  {case_id}: {detail}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
