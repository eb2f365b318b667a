"""On-line scheduling policies and off-line references.

The seven heuristics compared in Section 4 of the paper are registered under
their paper names (``SRPT``, ``LS``, ``RR``, ``RRC``, ``RRP``, ``SLJF``,
``SLJFWC``) and can be instantiated with :func:`create_scheduler`.  The
names below resolve on first access (see :mod:`repro._lazy`), and the
registry imports a policy's module the first time that policy is created,
so listing or checking scheduler names loads no heuristic.
"""

from .._lazy import lazy_exports

__all__ = [
    "FixedAssignmentScheduler",
    "GreedyCommunicationScheduler",
    "ListScheduler",
    "MAX_BRUTE_FORCE_TASKS",
    "OfflineSolution",
    "OnlineScheduler",
    "OrderedAssignmentScheduler",
    "PAPER_HEURISTICS",
    "RandomScheduler",
    "RoundRobin",
    "RoundRobinComm",
    "RoundRobinComp",
    "SLJFScheduler",
    "SLJFWCScheduler",
    "SRPTScheduler",
    "SingleWorkerScheduler",
    "StrictRoundRobin",
    "StrictRoundRobinComm",
    "StrictRoundRobinComp",
    "available_schedulers",
    "backward_plan",
    "create_scheduler",
    "enumerate_schedule_values",
    "optimal_schedule",
    "optimal_value",
    "optimal_values",
    "register_scheduler",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "OnlineScheduler": ".base",
    "PAPER_HEURISTICS": ".base",
    "available_schedulers": ".base",
    "create_scheduler": ".base",
    "register_scheduler": ".base",
    "GreedyCommunicationScheduler": ".list_scheduling",
    "ListScheduler": ".list_scheduling",
    "MAX_BRUTE_FORCE_TASKS": ".offline",
    "OfflineSolution": ".offline",
    "OrderedAssignmentScheduler": ".offline",
    "enumerate_schedule_values": ".offline",
    "optimal_schedule": ".offline",
    "optimal_value": ".offline",
    "optimal_values": ".offline",
    "FixedAssignmentScheduler": ".random_policy",
    "RandomScheduler": ".random_policy",
    "SingleWorkerScheduler": ".random_policy",
    "RoundRobin": ".round_robin",
    "RoundRobinComm": ".round_robin",
    "RoundRobinComp": ".round_robin",
    "StrictRoundRobin": ".round_robin",
    "StrictRoundRobinComm": ".round_robin",
    "StrictRoundRobinComp": ".round_robin",
    "SLJFScheduler": ".sljf",
    "SLJFWCScheduler": ".sljf",
    "backward_plan": ".sljf",
    "SRPTScheduler": ".srpt",
})
