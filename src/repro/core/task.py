"""Task model for master-slave on-line scheduling.

The paper studies *identical* tasks: every task requires the same
communication volume and the same amount of computation.  Heterogeneity
therefore lives entirely in the platform (per-worker ``c_j`` and ``p_j``).
To support the robustness experiment of Figure 2 — where the matrix sent at
each round is perturbed by up to 10 % — each task optionally carries a
``comm_factor`` and a ``comp_factor`` that scale the platform's base costs.
For the theoretical model both factors are exactly ``1.0``.

A :class:`TaskSet` is an ordered collection of tasks sorted by release time,
which is the order in which the master discovers them on-line.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

from .._sums import left_sum
from ..exceptions import TaskError

__all__ = ["Task", "TaskSet", "identical_tasks"]

_INF = math.inf
_tuple_new = tuple.__new__


class _TaskFields(NamedTuple):
    """Field layout of :class:`Task`, which subclasses it because a
    ``NamedTuple`` body may not define ``__new__``."""

    release: float
    task_id: int
    comm_factor: float = 1.0
    comp_factor: float = 1.0


def _release_error(release: float) -> TaskError:
    return TaskError(f"release time must be finite and non-negative, got {release}")


class Task(_TaskFields):
    """A single unit-size task: a plain tuple ``(release, task_id,
    comm_factor, comp_factor)``.

    Parameters
    ----------
    release:
        Time :math:`r_i` at which the task becomes available on the master.
        Unknown to the scheduler before that time.
    task_id:
        Unique non-negative integer identifier.  Identifiers double as the
        FIFO tie-break order used by the paper's list-scheduling strategy.
    comm_factor:
        Multiplier applied to the worker's base communication time ``c_j``.
        ``1.0`` for the identical-task model.
    comp_factor:
        Multiplier applied to the worker's base computation time ``p_j``.
        ``1.0`` for the identical-task model.

    Tasks compare as tuples.  Ordering is by ``(release, task_id)``, the
    FIFO order used throughout the paper: identifiers are unique within a
    :class:`TaskSet`, so the size factors never decide an order.  ``==`` and
    ``hash`` cover every field, so two tasks differing only in their size
    factors are different tasks.
    """

    __slots__ = ()

    def __new__(
        cls,
        release: float,
        task_id: int,
        comm_factor: float = 1.0,
        comp_factor: float = 1.0,
    ) -> "Task":
        if task_id < 0:
            raise TaskError(f"task_id must be non-negative, got {task_id}")
        if not 0.0 <= release < _INF:
            raise _release_error(release)
        if not 0.0 < comm_factor < _INF:
            raise TaskError(
                f"comm_factor must be positive and finite, got {comm_factor}"
            )
        if not 0.0 < comp_factor < _INF:
            raise TaskError(
                f"comp_factor must be positive and finite, got {comp_factor}"
            )
        return _tuple_new(cls, (release, task_id, comm_factor, comp_factor))

    @property
    def is_identical(self) -> bool:
        """True when the task follows the identical-task model of the paper."""
        return self.comm_factor == 1.0 and self.comp_factor == 1.0

    def perturbed(self, comm_factor: float, comp_factor: float) -> "Task":
        """Return a copy of the task with new size factors."""
        return Task(self.release, self.task_id, comm_factor, comp_factor)


class TaskSet:
    """An ordered, validated collection of tasks.

    Tasks are stored sorted by ``(release, task_id)``; iteration follows that
    order.  The collection is immutable after construction.
    """

    def __init__(self, tasks: Iterable[Task]):
        ordered = sorted(tasks)
        seen = set()
        for task in ordered:
            if task.task_id in seen:
                raise TaskError(f"duplicate task_id {task.task_id}")
            seen.add(task.task_id)
        self._tasks: List[Task] = ordered
        self._by_id = {t.task_id: t for t in ordered}

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TaskSet(n={len(self)}, span=[{self.first_release}, {self.last_release}])"

    # -- accessors ----------------------------------------------------------
    def by_id(self, task_id: int) -> Task:
        """Return the task with the given identifier."""
        try:
            return self._by_id[task_id]
        except KeyError as exc:
            raise TaskError(f"unknown task_id {task_id}") from exc

    @property
    def task_ids(self) -> List[int]:
        """Task identifiers in FIFO order."""
        return [t.task_id for t in self._tasks]

    @property
    def releases(self) -> List[float]:
        """Release times in FIFO order."""
        return [t.release for t in self._tasks]

    @property
    def first_release(self) -> float:
        """Release time of the earliest task."""
        if not self._tasks:
            raise TaskError("empty task set has no first release")
        return self._tasks[0].release

    @property
    def last_release(self) -> float:
        """Release time of the latest task."""
        if not self._tasks:
            raise TaskError("empty task set has no last release")
        return self._tasks[-1].release

    @property
    def total_release_time(self) -> float:
        """Sum of all release dates (the constant linking sum-flow and the sum
        of completion times: :math:`\\sum C_i = \\sum (C_i - r_i) + \\sum r_i`)."""
        return left_sum(t.release for t in self._tasks)

    @property
    def all_identical(self) -> bool:
        """True when every task follows the identical-task model."""
        return all(t.is_identical for t in self._tasks)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_releases(cls, releases: Sequence[float]) -> "TaskSet":
        """Build a set of identical tasks from a list of release times.

        Task identifiers are assigned in release order starting at 0, ties
        keeping their input order.  The tasks come out already sorted by
        ``(release, task_id)`` with distinct ids and identity factors, so the
        constructor's sort and duplicate scan are skipped and only the
        releases are checked, in one loop, before the tuples are built.
        """
        # Equal releases are interchangeable, so numbering the sorted values
        # gives the same tasks as numbering a stable sort of the input.
        ordered = sorted([float(release) for release in releases])
        for release in ordered:
            if not 0.0 <= release < _INF:
                raise _release_error(release)
        tasks = [
            _tuple_new(Task, (release, rank, 1.0, 1.0))
            for rank, release in enumerate(ordered)
        ]
        task_set = cls.__new__(cls)
        task_set._tasks = tasks
        task_set._by_id = dict(enumerate(tasks))
        return task_set

    def with_factors(
        self,
        comm_factors: Optional[Sequence[float]] = None,
        comp_factors: Optional[Sequence[float]] = None,
    ) -> "TaskSet":
        """Return a new task set whose tasks carry the given size factors.

        Factor sequences are matched positionally against the release order.
        ``None`` keeps the existing factors.
        """
        n = len(self)
        if comm_factors is not None and len(comm_factors) != n:
            raise TaskError("comm_factors length does not match the task count")
        if comp_factors is not None and len(comp_factors) != n:
            raise TaskError("comp_factors length does not match the task count")
        new_tasks = []
        for idx, task in enumerate(self._tasks):
            cf = float(comm_factors[idx]) if comm_factors is not None else task.comm_factor
            pf = float(comp_factors[idx]) if comp_factors is not None else task.comp_factor
            new_tasks.append(task.perturbed(cf, pf))
        return TaskSet(new_tasks)


def identical_tasks(n: int, release: float = 0.0, interarrival: float = 0.0) -> TaskSet:
    """Convenience constructor for ``n`` identical tasks.

    Parameters
    ----------
    n:
        Number of tasks.
    release:
        Release time of the first task.
    interarrival:
        Constant gap between consecutive release times.  ``0`` releases the
        whole bag at once (the bag-of-tasks setting of Section 4).
    """
    if n < 0:
        raise TaskError(f"task count must be non-negative, got {n}")
    releases = [release + i * interarrival for i in range(n)]
    return TaskSet.from_releases(releases)
