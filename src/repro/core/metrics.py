"""Objective functions and schedule statistics.

The paper evaluates schedules with three objective functions (Section 2):

* **makespan** — :math:`\\max_i C_i`, the total execution time;
* **max-flow** — :math:`\\max_i (C_i - r_i)`, the maximum response time;
* **sum-flow** — :math:`\\sum_i (C_i - r_i)`, the sum of response times,
  equivalent to the sum of completion times up to the constant
  :math:`\\sum_i r_i`.

:func:`evaluate` computes all three at once plus a handful of secondary
statistics (worker utilisation, master port utilisation, queueing delay)
used by the experiment reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

from .._sums import left_sum
from ..exceptions import SchedulingError
from .schedule import Schedule

__all__ = [
    "Objective",
    "makespan",
    "max_flow",
    "sum_flow",
    "mean_flow",
    "sum_completion",
    "objective_value",
    "ScheduleMetrics",
    "evaluate",
]


class Objective(enum.Enum):
    """The three objective functions of the paper."""

    MAKESPAN = "makespan"
    MAX_FLOW = "max-flow"
    SUM_FLOW = "sum-flow"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _require_non_empty(schedule: Schedule) -> None:
    if len(schedule) == 0:
        raise SchedulingError("cannot evaluate an empty schedule")


def makespan(schedule: Schedule) -> float:
    """Total execution time :math:`\\max_i C_i`."""
    _require_non_empty(schedule)
    return max(record.completion for record in schedule)


def max_flow(schedule: Schedule) -> float:
    """Maximum response time :math:`\\max_i (C_i - r_i)`."""
    _require_non_empty(schedule)
    return max(record.flow for record in schedule)


def sum_flow(schedule: Schedule) -> float:
    """Sum of response times :math:`\\sum_i (C_i - r_i)`."""
    _require_non_empty(schedule)
    return left_sum(record.flow for record in schedule)


def mean_flow(schedule: Schedule) -> float:
    """Average response time."""
    _require_non_empty(schedule)
    return sum_flow(schedule) / len(schedule)


def sum_completion(schedule: Schedule) -> float:
    """Sum of completion times :math:`\\sum_i C_i` (= sum-flow + :math:`\\sum r_i`)."""
    _require_non_empty(schedule)
    return left_sum(record.completion for record in schedule)


_OBJECTIVE_FUNCTIONS: Dict[Objective, Callable[[Schedule], float]] = {
    Objective.MAKESPAN: makespan,
    Objective.MAX_FLOW: max_flow,
    Objective.SUM_FLOW: sum_flow,
}


def objective_value(schedule: Schedule, objective: Objective) -> float:
    """Value of a single objective on a schedule."""
    try:
        return _OBJECTIVE_FUNCTIONS[objective](schedule)
    except KeyError as exc:  # pragma: no cover - exhaustive enum
        raise SchedulingError(f"unknown objective {objective}") from exc


@dataclass(frozen=True)
class ScheduleMetrics:
    """All objectives plus secondary statistics for one schedule."""

    n_tasks: int
    makespan: float
    max_flow: float
    sum_flow: float
    mean_flow: float
    sum_completion: float
    #: Fraction of [0, makespan] during which the master's port was sending.
    master_utilisation: float
    #: Per-worker fraction of [0, makespan] spent computing.
    worker_utilisation: Mapping[int, float]
    #: Per-worker number of executed tasks.
    worker_task_counts: Mapping[int, int]
    #: Average time tasks spent waiting in a worker input queue.
    mean_queue_wait: float

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the scalar metrics (used by reports)."""
        return {
            "n_tasks": float(self.n_tasks),
            "makespan": self.makespan,
            "max_flow": self.max_flow,
            "sum_flow": self.sum_flow,
            "mean_flow": self.mean_flow,
            "sum_completion": self.sum_completion,
            "master_utilisation": self.master_utilisation,
            "mean_queue_wait": self.mean_queue_wait,
        }

    def value(self, objective: Objective) -> float:
        """The metric corresponding to one of the paper's objectives."""
        if objective is Objective.MAKESPAN:
            return self.makespan
        if objective is Objective.MAX_FLOW:
            return self.max_flow
        if objective is Objective.SUM_FLOW:
            return self.sum_flow
        raise SchedulingError(f"unknown objective {objective}")


def evaluate(schedule: Schedule) -> ScheduleMetrics:
    """Compute every metric of interest for a schedule.

    One pass over the records in schedule order.  Maxima keep the first
    largest value, as :func:`max` does, and every sum is a left fold with
    ``+=`` in record order, the same bytes as :func:`~repro._sums.left_sum`
    and so as :func:`sum_flow`/:func:`sum_completion`.
    """
    _require_non_empty(schedule)
    worker_busy: Dict[int, float] = {w.worker_id: 0.0 for w in schedule.platform}
    worker_counts: Dict[int, int] = {w.worker_id: 0 for w in schedule.platform}
    first = next(iter(schedule))
    total = first.compute_end
    peak_flow = first.compute_end - first.release
    flow_sum = completion_sum = comm_busy = queue_wait = 0.0
    for record in schedule:
        _, worker_id, release, send_start, send_end, compute_start, compute_end = record
        flow = compute_end - release
        if compute_end > total:
            total = compute_end
        if flow > peak_flow:
            peak_flow = flow
        flow_sum += flow
        completion_sum += compute_end
        comm_busy += send_end - send_start
        queue_wait += compute_start - send_end
        worker_busy[worker_id] += compute_end - compute_start
        worker_counts[worker_id] += 1
    n_tasks = len(schedule)
    worker_util = {
        wid: (busy / total if total > 0 else 0.0) for wid, busy in worker_busy.items()
    }
    return ScheduleMetrics(
        n_tasks=n_tasks,
        makespan=total,
        max_flow=peak_flow,
        sum_flow=flow_sum,
        mean_flow=flow_sum / n_tasks,
        sum_completion=completion_sum,
        master_utilisation=comm_busy / total if total > 0 else 0.0,
        worker_utilisation=worker_util,
        worker_task_counts=worker_counts,
        mean_queue_wait=queue_wait / n_tasks,
    )
