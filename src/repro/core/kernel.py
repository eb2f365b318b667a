"""Simulation-kernel interface: backends that turn jobs into schedules.

The one-port engine (:mod:`repro.core.engine`) is the repo's semantic
reference, but it executes one run at a time through a pure-Python event
loop.  This module extracts the *narrow waist* every caller actually needs —
submit a bag of tasks + a platform + an optional scenario timeline, get back
the completed schedule, its canonical trace and its metrics — so that
alternative execution strategies can be swapped in behind one interface:

* :class:`ReferenceKernel` (``"reference"``) — one
  :class:`~repro.core.engine.OnePortEngine` run per job.  Always available,
  always authoritative, and the only engine the CLI and the service run.
* ``ArrayKernel`` (``"array"``, :mod:`repro.core.kernel_array`) — a numpy
  struct-of-arrays backend that simulates a whole *batch* of jobs in one
  vectorized lockstep pass.  It is reached only through
  :func:`create_kernel` and
  ``repro.campaigns.runner.run_campaign(engine_backend=...)``; no
  command-line flag selects it.

Backend parity contract
-----------------------
Every backend must be **trace-equal** to the reference engine: for any
supported job, the produced :class:`~repro.core.schedule.TaskRecord` rows —
compared exactly, float bit for float bit — and therefore the metrics must
be identical to what :func:`repro.core.engine.simulate` produces.  The
contract is enforced through the committed engine digests
(``tests/golden/engine_digests.jsonl``, checked by
``tools/engine_digests.py`` and ``tests/test_engine_digests.py``): every
backend must reproduce each case's digest of trace rows and metrics.  A
backend that cannot honour it for some job must delegate that job to the
reference engine rather than approximate.

Adding a backend: subclass :class:`SimulationKernel`, implement
:meth:`~SimulationKernel.run_batch`, and call :func:`register_backend` with
a factory.  Factories are lazy so optional backends only import when used.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..exceptions import SchedulingError
from .engine import OnePortEngine
from .metrics import evaluate
from .platform import Platform
from .schedule import Schedule
from .task import TaskSet

__all__ = [
    "DEFAULT_BACKEND",
    "KernelJob",
    "KernelResult",
    "SimulationKernel",
    "ReferenceKernel",
    "register_backend",
    "create_kernel",
    "available_backends",
    "trace_rows",
]

#: The default backend: the event-driven reference engine.
DEFAULT_BACKEND = "reference"


def trace_rows(schedule: Schedule) -> List[List[float]]:
    """Canonical trace of a schedule: one row per task, in send order.

    Rows are ``[task_id, worker_id, release, send_start, send_end,
    compute_start, compute_end]`` ordered by ``(send_start, task_id)`` — the
    exact comparison unit of the committed engine digests.  Two schedules
    are *trace-equal* iff these rows are equal with exact float comparison
    (no tolerance).
    """
    return [
        [
            record.task_id,
            record.worker_id,
            record.release,
            record.send_start,
            record.send_end,
            record.compute_start,
            record.compute_end,
        ]
        for record in schedule.records
    ]


@dataclass(frozen=True)
class KernelJob:
    """One simulation to run: scheduler + platform + task bag (+ timeline).

    Attributes
    ----------
    scheduler:
        Registry name of the scheduling policy (case-insensitive; resolved
        through :func:`repro.schedulers.base.create_scheduler`).
    platform:
        The master-slave platform.
    tasks:
        The task bag; must be non-empty (an empty bag has no schedule to
        return and no metrics to evaluate).
    timeline:
        Optional :class:`~repro.scenarios.events.PlatformTimeline` making
        the platform dynamic.  Trivial (event-less) timelines are treated
        exactly like ``None``, mirroring the engine.
    expose_task_count:
        Whether the scheduler sees ``n_total`` (the off-line knowledge used
        by SLJF/SLJFWC).  Defaults to True — the setting of every campaign
        cell and service request.
    """

    scheduler: str
    platform: Platform
    tasks: TaskSet
    timeline: Optional[object] = None
    expose_task_count: bool = True

    def __post_init__(self) -> None:
        if len(self.tasks) == 0:
            raise SchedulingError("a kernel job needs at least one task")
        if self.timeline is not None and self.timeline.n_workers != len(self.platform):
            raise SchedulingError(
                f"timeline was compiled for {self.timeline.n_workers} worker(s) "
                f"but the platform has {len(self.platform)}"
            )


class KernelResult:
    """What a kernel returns for one job: metrics plus the full schedule.

    ``metrics`` is always materialised eagerly (it is what the service and
    campaign layers consume).  The schedule itself may be *lazy*: a batched
    backend can return a ``schedule_factory`` instead of a built
    :class:`~repro.core.schedule.Schedule`, deferring the cost of
    materialising thousands of :class:`~repro.core.schedule.TaskRecord`
    objects until somebody actually asks for the trace.  Either way the
    parity contract holds: the materialised schedule must be trace-equal to
    the reference engine's, and ``metrics`` must equal
    ``evaluate(schedule).as_dict()`` bit for bit.
    """

    def __init__(
        self,
        schedule: Optional[Schedule] = None,
        metrics: Optional[Dict[str, float]] = None,
        schedule_factory: Optional[Callable[[], Schedule]] = None,
    ) -> None:
        if schedule is None and schedule_factory is None:
            raise SchedulingError(
                "KernelResult needs a schedule or a schedule_factory"
            )
        self._schedule = schedule
        self._factory = schedule_factory
        #: Scalar metrics, exactly ``evaluate(schedule).as_dict()``.
        self.metrics: Dict[str, float] = dict(metrics) if metrics else {}

    @property
    def schedule(self) -> Schedule:
        """The completed schedule (materialised on first access)."""
        if self._schedule is None:
            assert self._factory is not None
            self._schedule = self._factory()
            self._factory = None
        return self._schedule

    def trace(self) -> List[List[float]]:
        """The schedule's canonical trace rows (see :func:`trace_rows`)."""
        return trace_rows(self.schedule)


class SimulationKernel(abc.ABC):
    """A simulation backend: maps :class:`KernelJob` batches to results.

    Subclasses implement :meth:`run_batch`; how much of the batch is
    actually executed together is the backend's business, but results must
    come back aligned with the input jobs and honour the parity contract in
    the module docstring.
    """

    #: Registry name of the backend (e.g. ``"reference"``, ``"array"``).
    name: str = "abstract"

    @abc.abstractmethod
    def run_batch(self, jobs: Sequence[KernelJob]) -> List[KernelResult]:
        """Simulate every job; results aligned with ``jobs``."""

    def run(self, job: KernelJob) -> KernelResult:
        """Simulate a single job (a batch of one)."""
        return self.run_batch([job])[0]


class ReferenceKernel(SimulationKernel):
    """The authoritative backend: one engine run per job, no batching."""

    name = "reference"

    def run_batch(self, jobs: Sequence[KernelJob]) -> List[KernelResult]:
        """Run each job through :class:`~repro.core.engine.OnePortEngine`."""
        return [self._run_one(job) for job in jobs]

    @staticmethod
    def _run_one(job: KernelJob) -> KernelResult:
        from ..schedulers.base import create_scheduler

        engine = OnePortEngine(
            job.platform,
            job.tasks,
            expose_task_count=job.expose_task_count,
            timeline=job.timeline,
        )
        schedule = engine.run(create_scheduler(job.scheduler))
        return KernelResult(schedule=schedule, metrics=evaluate(schedule).as_dict())


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
_BACKENDS: Dict[str, Callable[[], SimulationKernel]] = {}


def register_backend(name: str, factory: Callable[[], SimulationKernel]) -> None:
    """Register a kernel backend factory under a (case-insensitive) name."""
    key = name.lower()
    if key in _BACKENDS:
        raise SchedulingError(f"kernel backend {name!r} is already registered")
    _BACKENDS[key] = factory


def create_kernel(name: str = DEFAULT_BACKEND) -> SimulationKernel:
    """Instantiate a registered kernel backend by name."""
    try:
        factory = _BACKENDS[name.lower()]
    except KeyError as exc:
        raise SchedulingError(
            f"unknown engine backend {name!r}; available: {available_backends()}"
        ) from exc
    return factory()


def available_backends() -> List[str]:
    """Names of every registered kernel backend, sorted."""
    return sorted(_BACKENDS)


def _array_kernel() -> SimulationKernel:
    """Lazy factory for the numpy struct-of-arrays backend."""
    from .kernel_array import ArrayKernel

    return ArrayKernel()


register_backend("reference", ReferenceKernel)
register_backend("array", _array_kernel)
