"""Schedule representation and feasibility validation.

A *schedule* is the complete record of one simulated execution: for every
task, which worker ran it, when the master started and finished sending it,
and when the worker started and finished computing it.

The validator re-checks, independently of the engine, that a schedule obeys
the model of Section 2 of the paper:

1. every task is sent after its release date;
2. the master sends at most one task at a time (one-port model);
3. each send to worker ``j`` lasts exactly ``c_j`` (times the task's
   communication factor);
4. a worker computes at most one task at a time, computation starts no
   earlier than the task's arrival, and lasts exactly ``p_j`` (times the
   task's computation factor).

Dynamic platforms: when the schedule carries a
:class:`~repro.scenarios.events.PlatformTimeline`, rules 3 and 4 price each
send/computation at the speeds in effect **when it started** (the timeline's
inclusive lookup — the exact expressions the engine itself prices with), and
a fifth rule applies: no computation may *start* at an instant where its
worker is unavailable (computations started earlier may run across an
outage; sends to unavailable workers are legal, the data waits in the
worker's queue).

Having this independent checker lets the test-suite verify any scheduling
policy — including the exhaustive off-line search — against the ground rules
rather than against the engine's own bookkeeping.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, TYPE_CHECKING,
)

from ..exceptions import InfeasibleScheduleError, SchedulingError
from .platform import Platform
from .task import Task, TaskSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.events import PlatformTimeline

__all__ = ["TaskRecord", "Schedule"]

#: Absolute tolerance for floating-point feasibility comparisons.
_FEAS_ATOL = 1e-9

#: Schedule order of the records: ``(send_start, task_id)``.
_SEND_ORDER = itemgetter(3, 0)


class TaskRecord(NamedTuple):
    """The execution record of a single task: a plain tuple of its seven
    fields, which the engine builds positionally with ``tuple.__new__``."""

    task_id: int
    worker_id: int
    release: float
    send_start: float
    send_end: float
    compute_start: float
    compute_end: float

    @property
    def completion(self) -> float:
        """Completion time :math:`C_i` of the task."""
        return self.compute_end

    @property
    def flow(self) -> float:
        """Response time (flow) :math:`C_i - r_i` of the task."""
        return self.compute_end - self.release

    @property
    def comm_duration(self) -> float:
        """Duration of the task's communication interval."""
        return self.send_end - self.send_start

    @property
    def comp_duration(self) -> float:
        """Duration of the task's computation interval."""
        return self.compute_end - self.compute_start

    @property
    def queue_wait(self) -> float:
        """Time spent waiting in the worker's input queue before computing."""
        return self.compute_start - self.send_end


class Schedule:
    """An immutable collection of :class:`TaskRecord` plus the originating
    platform, task set, and (for dynamic platforms) the scenario timeline
    the run was priced against."""

    def __init__(
        self,
        platform: Platform,
        tasks: TaskSet,
        records: Iterable[TaskRecord],
        timeline: Optional["PlatformTimeline"] = None,
    ) -> None:
        self.platform = platform
        self.tasks = tasks
        #: The platform timeline the schedule executed under, or ``None``
        #: for the static model.  Trivial timelines are normalised away so
        #: static scenarios validate through the classic path.
        self.timeline = timeline if timeline is not None and len(timeline) else None
        self._records: List[TaskRecord] = sorted(records, key=_SEND_ORDER)
        self._by_task: Dict[int, TaskRecord] = {}
        for record in self._records:
            if record.task_id in self._by_task:
                raise SchedulingError(
                    f"task {record.task_id} appears twice in the schedule"
                )
            self._by_task[record.task_id] = record

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self._records)

    def __getitem__(self, task_id: int) -> TaskRecord:
        try:
            return self._by_task[task_id]
        except KeyError as exc:
            raise SchedulingError(f"task {task_id} is not in the schedule") from exc

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._by_task

    # -- accessors ----------------------------------------------------------
    @property
    def records(self) -> Tuple[TaskRecord, ...]:
        """All task records, ordered by send start time."""
        return tuple(self._records)

    @property
    def is_complete(self) -> bool:
        """True when every task of the task set has a record."""
        return len(self._records) == len(self.tasks)

    def records_for_worker(self, worker_id: int) -> List[TaskRecord]:
        """Execution records on one worker, ordered by compute start time."""
        return sorted(
            (r for r in self._records if r.worker_id == worker_id),
            key=lambda r: (r.compute_start, r.task_id),
        )

    def worker_task_counts(self) -> Dict[int, int]:
        """Number of tasks executed per worker (0 for unused workers)."""
        counts = {w.worker_id: 0 for w in self.platform}
        for record in self._records:
            counts[record.worker_id] += 1
        return counts

    def completion_times(self) -> Dict[int, float]:
        """``{task_id: completion time}`` over every record."""
        return {r.task_id: r.compute_end for r in self._records}

    # -- feasibility --------------------------------------------------------
    def validate(self, atol: float = _FEAS_ATOL) -> None:
        """Raise :class:`InfeasibleScheduleError` if the schedule breaks the
        one-port master-slave model; return silently otherwise."""
        if not self.is_complete:
            missing = set(self.tasks.task_ids) - set(self._by_task)
            raise InfeasibleScheduleError(f"schedule is missing tasks {sorted(missing)}")

        # Per-task local constraints.
        timeline = self.timeline
        for record in self._records:
            task = self.tasks.by_id(record.task_id)
            worker = self.platform[record.worker_id]
            if record.send_start < task.release - atol:
                raise InfeasibleScheduleError(
                    f"task {task.task_id} sent at {record.send_start} before its "
                    f"release {task.release}"
                )
            if timeline is None:
                expected_comm = worker.comm_time(task.comm_factor)
            else:
                # Dynamic pricing: the speeds in effect when the send started
                # (same inclusive-lookup expression the engine priced with).
                expected_comm = timeline.effective_comm_time(
                    worker, task.comm_factor, record.send_start
                )
            if abs(record.comm_duration - expected_comm) > atol:
                raise InfeasibleScheduleError(
                    f"task {task.task_id} communication lasts {record.comm_duration}, "
                    f"expected {expected_comm} on worker {worker.worker_id}"
                )
            if record.compute_start < record.send_end - atol:
                raise InfeasibleScheduleError(
                    f"task {task.task_id} starts computing at {record.compute_start} "
                    f"before its data arrives at {record.send_end}"
                )
            if timeline is None:
                expected_comp = worker.comp_time(task.comp_factor)
            else:
                expected_comp = timeline.effective_comp_time(
                    worker, task.comp_factor, record.compute_start
                )
                if not timeline.available(record.worker_id, record.compute_start):
                    raise InfeasibleScheduleError(
                        f"task {task.task_id} starts computing at "
                        f"{record.compute_start} while worker {worker.worker_id} "
                        "is unavailable"
                    )
            if abs(record.comp_duration - expected_comp) > atol:
                raise InfeasibleScheduleError(
                    f"task {task.task_id} computation lasts {record.comp_duration}, "
                    f"expected {expected_comp} on worker {worker.worker_id}"
                )

        # One-port constraint: communication intervals must not overlap.
        sends = sorted(self._records, key=lambda r: (r.send_start, r.send_end))
        for earlier, later in zip(sends, sends[1:]):
            if later.send_start < earlier.send_end - atol:
                raise InfeasibleScheduleError(
                    "one-port violation: sends of tasks "
                    f"{earlier.task_id} ([{earlier.send_start}, {earlier.send_end}]) and "
                    f"{later.task_id} ([{later.send_start}, {later.send_end}]) overlap"
                )

        # Per-worker execution: computation intervals must not overlap.
        for worker in self.platform:
            runs = self.records_for_worker(worker.worker_id)
            for earlier, later in zip(runs, runs[1:]):
                if later.compute_start < earlier.compute_end - atol:
                    raise InfeasibleScheduleError(
                        f"worker {worker.worker_id} computes tasks "
                        f"{earlier.task_id} and {later.task_id} simultaneously"
                    )

    def is_feasible(self, atol: float = _FEAS_ATOL) -> bool:
        """Boolean wrapper around :meth:`validate`."""
        try:
            self.validate(atol=atol)
        except InfeasibleScheduleError:
            return False
        return True
