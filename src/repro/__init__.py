"""repro — reproduction of Pineau, Robert & Vivien (IPPS 2006).

"The impact of heterogeneity on master-slave on-line scheduling": a one-port
master-slave scheduling library with the paper's seven on-line heuristics,
the nine competitive-ratio lower-bound adversary games of Table 1, a
simulated MPI cluster substrate and the experiment harness regenerating
Figures 1 and 2.

The convenience names below and the five subpackage attributes resolve on
first access (see :mod:`repro._lazy`), so importing one submodule, as every
``repro serve`` shard does, loads only what that submodule needs.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Decision",
    "Objective",
    "OnePortEngine",
    "PAPER_HEURISTICS",
    "Platform",
    "PlatformKind",
    "Schedule",
    "SchedulerView",
    "Task",
    "TaskSet",
    "Worker",
    "__version__",
    "available_schedulers",
    "core",
    "create_scheduler",
    "evaluate",
    "identical_tasks",
    "makespan",
    "max_flow",
    "scenarios",
    "schedulers",
    "service",
    "simulate",
    "sum_flow",
    "theory",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "core": ".core",
    "scenarios": ".scenarios",
    "schedulers": ".schedulers",
    "service": ".service",
    "theory": ".theory",
    "Decision": ".core.engine",
    "OnePortEngine": ".core.engine",
    "SchedulerView": ".core.engine",
    "simulate": ".core.engine",
    "Objective": ".core.metrics",
    "evaluate": ".core.metrics",
    "makespan": ".core.metrics",
    "max_flow": ".core.metrics",
    "sum_flow": ".core.metrics",
    "Platform": ".core.platform",
    "PlatformKind": ".core.platform",
    "Worker": ".core.platform",
    "Schedule": ".core.schedule",
    "Task": ".core.task",
    "TaskSet": ".core.task",
    "identical_tasks": ".core.task",
    "PAPER_HEURISTICS": ".schedulers.base",
    "available_schedulers": ".schedulers.base",
    "create_scheduler": ".schedulers.base",
})
