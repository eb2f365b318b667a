"""Scheduler protocol and registry.

All on-line scheduling policies implement :class:`OnlineScheduler`: a pure
decision procedure that, given an immutable :class:`~repro.core.engine.
SchedulerView`, returns a :class:`~repro.core.engine.Decision`.  Policies keep
whatever private state they like between calls (round-robin cursors, planned
assignments, ...) but never touch engine internals — this is what allows the
same policies to run on the theoretical engine, on the simulated MPI cluster,
and inside the adversary games of :mod:`repro.theory`.

The registry maps the short names used throughout the paper (``SRPT``,
``LS``, ``RR``, ``RRC``, ``RRP``, ``SLJF``, ``SLJFWC``) to factories so the
experiment harness and the CLI can instantiate policies from configuration
strings.  A built-in entry is the ``"module:Class"`` path of its policy,
imported by the first :func:`create_scheduler` of that name, so reading
the names (the service's request check, the CLI's ``choices``) imports
neither the engine nor any heuristic.
"""

from __future__ import annotations

import abc
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..exceptions import SchedulingError

if TYPE_CHECKING:
    from ..core.engine import Decision, SchedulerView
    from ..core.platform import Platform

__all__ = [
    "OnlineScheduler",
    "register_scheduler",
    "create_scheduler",
    "available_schedulers",
    "PAPER_HEURISTICS",
]


class OnlineScheduler(abc.ABC):
    """Base class for every on-line scheduling policy.

    Subclasses must set :attr:`name` (a short identifier used in reports) and
    implement :meth:`decide`.  :meth:`reset` is called by the engine exactly
    once before a run; subclasses overriding it must call ``super().reset``.
    """

    #: Short identifier, e.g. ``"SRPT"``; subclasses must override.
    name: str = "abstract"

    #: True for policies that need to know the total task count in advance
    #: (the paper calls these "initially built to work with off-line models").
    requires_task_count: bool = False

    def __init__(self) -> None:
        self.platform: Optional[Platform] = None
        self.n_tasks_hint: Optional[int] = None

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Prepare the policy for a fresh run on ``platform``."""
        self.platform = platform
        self.n_tasks_hint = n_tasks_hint

    @abc.abstractmethod
    def decide(self, view: SchedulerView) -> Decision:
        """Return the next decision for the state described by ``view``.

        The engine only calls this when the master's port is free and at
        least one released task is unassigned, so ``view.next_pending`` is
        never ``None`` and returning ``Decision.assign`` is always legal
        with respect to the port.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
#: Name -> factory, or the ``"module:Class"`` path a built-in policy is
#: imported from when it is created.
_REGISTRY: Dict[str, Union[str, Callable[[], OnlineScheduler]]] = {
    "SRPT": "repro.schedulers.srpt:SRPTScheduler",
    "LS": "repro.schedulers.list_scheduling:ListScheduler",
    "RR": "repro.schedulers.round_robin:RoundRobin",
    "RRC": "repro.schedulers.round_robin:RoundRobinComm",
    "RRP": "repro.schedulers.round_robin:RoundRobinComp",
    "SLJF": "repro.schedulers.sljf:SLJFScheduler",
    "SLJFWC": "repro.schedulers.sljf:SLJFWCScheduler",
    "RR-STRICT": "repro.schedulers.round_robin:StrictRoundRobin",
    "RRC-STRICT": "repro.schedulers.round_robin:StrictRoundRobinComm",
    "RRP-STRICT": "repro.schedulers.round_robin:StrictRoundRobinComp",
    "RANDOM": "repro.schedulers.random_policy:RandomScheduler",
    "GREEDY-COMM": "repro.schedulers.list_scheduling:GreedyCommunicationScheduler",
    "SINGLE": "repro.schedulers.random_policy:SingleWorkerScheduler",
}

#: The seven heuristics compared in Section 4 of the paper, in the order of
#: the figures (SRPT is the normalisation reference and comes first).
PAPER_HEURISTICS: List[str] = ["SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"]


def register_scheduler(name: str, factory: Callable[[], OnlineScheduler]) -> None:
    """Register a scheduler factory under a (case-insensitive) name."""
    key = name.upper()
    if key in _REGISTRY:
        raise SchedulingError(f"scheduler {name!r} is already registered")
    _REGISTRY[key] = factory


def create_scheduler(name: str) -> OnlineScheduler:
    """Instantiate a registered scheduler by name."""
    try:
        factory = _REGISTRY[name.upper()]
    except KeyError as exc:
        raise SchedulingError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc
    if isinstance(factory, str):
        module, _, attribute = factory.partition(":")
        factory = getattr(import_module(module), attribute)
    return factory()


def available_schedulers() -> List[str]:
    """Names of every registered scheduler, sorted."""
    return sorted(_REGISTRY)
