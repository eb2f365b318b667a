"""Off-line reference schedules for small instances.

The lower-bound proofs of Section 3 all compare an on-line algorithm against
"the optimal schedule, which we determine off-line, i.e. with a complete
knowledge of the problem instance".  This module provides that reference:

* :func:`enumerate_schedule_values` — exact brute force over every
  (assignment, send order) pair for small instances, relying on the fact
  that, once the assignment and the send order are fixed, sending each task
  as early as possible is dominant for all three objectives (delaying a send
  can only push completions later).
* :func:`optimal_value` / :func:`optimal_schedule` — the best value /
  schedule found by the brute force for one objective.
* :class:`OrderedAssignmentScheduler` — replays an explicit (order,
  assignment) pair through the regular engine, so that the off-line optimum
  is *also* expressed as an engine run and checked by the same feasibility
  validator as every heuristic.

The brute force is exponential (``m^n · n!``) and guarded by a size limit;
the proofs only ever need 2–4 tasks on 2–3 workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.engine import Decision, SchedulerView, simulate
from ..core.metrics import Objective
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..core.task import TaskSet
from ..exceptions import SchedulingError
from .base import OnlineScheduler

__all__ = [
    "OfflineSolution",
    "OrderedAssignmentScheduler",
    "enumerate_schedule_values",
    "optimal_value",
    "optimal_values",
    "optimal_schedule",
    "MAX_BRUTE_FORCE_TASKS",
]

#: Hard limit on the brute-force instance size (``n! · m^n`` blows up fast).
MAX_BRUTE_FORCE_TASKS = 8


@dataclass(frozen=True)
class OfflineSolution:
    """One candidate off-line schedule in compact form."""

    #: task ids in the order the master sends them
    order: Tuple[int, ...]
    #: worker id per task id
    assignment: Dict[int, int]
    makespan: float
    max_flow: float
    sum_flow: float

    def value(self, objective: Objective) -> float:
        """The given objective's value on this solution."""
        if objective is Objective.MAKESPAN:
            return self.makespan
        if objective is Objective.MAX_FLOW:
            return self.max_flow
        if objective is Objective.SUM_FLOW:
            return self.sum_flow
        raise SchedulingError(f"unknown objective {objective}")


def _evaluate_candidate(
    platform: Platform,
    tasks: TaskSet,
    order: Sequence[int],
    assignment: Dict[int, int],
) -> Tuple[float, float, float]:
    """Objectives of the eager schedule for a fixed order and assignment."""
    channel = 0.0
    ready = [0.0] * platform.n_workers
    makespan = 0.0
    max_flow = 0.0
    sum_flow = 0.0
    for task_id in order:
        task = tasks.by_id(task_id)
        worker = platform[assignment[task_id]]
        send_start = max(channel, task.release)
        send_end = send_start + worker.comm_time(task.comm_factor)
        channel = send_end
        completion = max(ready[worker.worker_id], send_end) + worker.comp_time(
            task.comp_factor
        )
        ready[worker.worker_id] = completion
        flow = completion - task.release
        makespan = max(makespan, completion)
        max_flow = max(max_flow, flow)
        sum_flow += flow
    return makespan, max_flow, sum_flow


def enumerate_schedule_values(
    platform: Platform,
    tasks: TaskSet,
    max_tasks: int = MAX_BRUTE_FORCE_TASKS,
) -> Iterable[OfflineSolution]:
    """Yield every eager (order, assignment) candidate for a small instance."""
    n = len(tasks)
    if n == 0:
        raise SchedulingError("cannot enumerate schedules of an empty task set")
    if n > max_tasks:
        raise SchedulingError(
            f"brute force limited to {max_tasks} tasks, got {n}; "
            "use a heuristic for larger instances"
        )
    task_ids = tasks.task_ids
    worker_ids = list(range(platform.n_workers))
    for order in itertools.permutations(task_ids):
        for combo in itertools.product(worker_ids, repeat=n):
            assignment = dict(zip(task_ids, combo))
            mk, mf, sf = _evaluate_candidate(platform, tasks, order, assignment)
            yield OfflineSolution(
                order=tuple(order),
                assignment=assignment,
                makespan=mk,
                max_flow=mf,
                sum_flow=sf,
            )


def optimal_value(
    platform: Platform,
    tasks: TaskSet,
    objective: Objective,
    max_tasks: int = MAX_BRUTE_FORCE_TASKS,
) -> float:
    """The optimal off-line objective value of a small instance."""
    return min(
        sol.value(objective)
        for sol in enumerate_schedule_values(platform, tasks, max_tasks=max_tasks)
    )


def optimal_values(
    platform: Platform,
    tasks: TaskSet,
    max_tasks: int = MAX_BRUTE_FORCE_TASKS,
) -> Dict[Objective, float]:
    """Optimal off-line value of all three objectives (optimised jointly per
    objective — the optima may be reached by different schedules)."""
    best = {obj: math.inf for obj in Objective}
    for sol in enumerate_schedule_values(platform, tasks, max_tasks=max_tasks):
        for obj in Objective:
            best[obj] = min(best[obj], sol.value(obj))
    return best


def optimal_schedule(
    platform: Platform,
    tasks: TaskSet,
    objective: Objective,
    max_tasks: int = MAX_BRUTE_FORCE_TASKS,
) -> Tuple[Schedule, float]:
    """Return an optimal off-line :class:`Schedule` (validated by the engine)
    and its objective value."""
    best_solution: Optional[OfflineSolution] = None
    best_value = math.inf
    for sol in enumerate_schedule_values(platform, tasks, max_tasks=max_tasks):
        value = sol.value(objective)
        if value < best_value - 1e-15:
            best_value = value
            best_solution = sol
    assert best_solution is not None
    replay = OrderedAssignmentScheduler(
        tasks, best_solution.order, best_solution.assignment
    )
    schedule = simulate(replay, platform, tasks)
    return schedule, best_value


class OrderedAssignmentScheduler(OnlineScheduler):
    """Replay an explicit send order and task→worker assignment eagerly.

    The scheduler sends the next task of ``order`` as soon as the port is
    free and the task is released.  While that task is not yet released it
    returns :meth:`Decision.wait` and is consulted again by the engine once
    the release is processed.  This turns any off-line solution into a
    normal engine run so it can be validated and traced like the heuristics.

    The view shows only the pending head, so the replay knows ``tasks``
    itself: task *k* is released once ``view.n_released`` exceeds its rank in
    the set's FIFO order.  The clock cannot tell: a consultation at ``t`` may
    follow a completion dated ``t`` and precede a release dated ``t``.
    """

    name = "ORDERED"

    def __init__(
        self, tasks: TaskSet, order: Sequence[int], assignment: Dict[int, int]
    ) -> None:
        super().__init__()
        self.order = list(order)
        self.assignment = dict(assignment)
        rank = {task.task_id: index for index, task in enumerate(tasks)}
        unknown = [task_id for task_id in self.order if task_id not in rank]
        if unknown:
            raise SchedulingError(f"order names unknown task(s) {unknown}")
        #: per position of ``order``: the task's FIFO rank + 1, the
        #: ``n_released`` from which it is pending
        self._released_at = [rank[task_id] + 1 for task_id in self.order]
        self._cursor = 0

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Validate the assignment against the platform, rewind the cursor."""
        super().reset(platform, n_tasks_hint)
        self._cursor = 0
        for task_id, worker_id in self.assignment.items():
            if not 0 <= worker_id < platform.n_workers:
                raise SchedulingError(
                    f"assignment of task {task_id} targets unknown worker {worker_id}"
                )

    def decide(self, view: SchedulerView) -> Decision:
        """Replay the planned order, falling back to FIFO beyond it."""
        if self._cursor >= len(self.order):
            # Tasks outside the explicit order fall back to FIFO/first worker.
            return Decision.assign(view.next_pending.task_id, 0)
        if view.n_released < self._released_at[self._cursor]:
            # The next task of the prescribed order is not released yet: hold
            # the port, since the engine consults again after each release.
            return Decision.wait()
        next_task_id = self.order[self._cursor]
        self._cursor += 1
        return Decision.assign(next_task_id, self.assignment[next_task_id])
