"""List Scheduling (LS) and the greedy communication-aware variant.

Section 4.1:

    "LS: List Scheduling can be viewed as the static version of SRPT.  It
    uses its knowledge of the system and sends a task as soon as possible to
    the slave that would finish it first, according to the current load
    estimation (the number of tasks already waiting for execution on the
    slave)."

LS therefore differs from SRPT in two ways: it sends *as soon as the port is
free* (pipelining communication with computation), and it chooses the target
by minimising the *estimated completion time* of the task given each worker's
current backlog.  Under the FIFO-per-worker execution model that estimate is
exact (see :meth:`repro.core.engine.WorkerView.estimated_completion`), which
is why LS coincides with the optimal FIFO list-scheduling strategy on fully
homogeneous platforms (the strategy the introduction of the paper proves
optimal for all three objectives).

:class:`GreedyCommunicationScheduler` is a simple additional baseline (not in
the paper) that only looks at communication times; it is useful in tests and
ablations to isolate how much of LS's advantage comes from modelling the
compute backlog.
"""

from __future__ import annotations

from ..core.engine import Decision, SchedulerView
from .base import OnlineScheduler

_INF = float("inf")

__all__ = ["ListScheduler", "GreedyCommunicationScheduler", "list_schedule"]


def list_schedule(view: SchedulerView) -> Decision:
    """Send the FIFO task to the worker that would finish it first.

    Workers come in id order and only a strictly earlier completion
    replaces the best one, so ties go to the smallest worker id.
    """
    task = view.next_pending
    now = view.now
    comm_factor = task.comm_factor
    comp_factor = task.comp_factor
    best_id = 0
    best = _INF
    for worker in view.workers:
        completion = worker.estimated_completion(now, comm_factor, comp_factor)
        if completion < best:
            best = completion
            best_id = worker.worker_id
    return Decision.assign(task.task_id, best_id)


class ListScheduler(OnlineScheduler):
    """Send the FIFO task ASAP to the worker minimising its completion time."""

    name = "LS"

    def decide(self, view: SchedulerView) -> Decision:
        """Send the FIFO task to the worker minimising its completion time."""
        return list_schedule(view)


class GreedyCommunicationScheduler(OnlineScheduler):
    """Send ASAP to the worker with the smallest communication time among the
    least-loaded workers.

    Used as an ablation baseline: it keeps the master's port as busy as LS
    but ignores processor speeds, so it behaves well only on
    computation-homogeneous platforms.
    """

    name = "GREEDY-COMM"

    def decide(self, view: SchedulerView) -> Decision:
        """Send the FIFO task to the cheapest link among least-loaded workers."""
        task = view.next_pending
        min_backlog = min(w.backlog for w in view.workers)
        candidates = [w for w in view.workers if w.backlog == min_backlog]
        best = min(candidates, key=lambda w: (w.c, w.worker_id))
        return Decision.assign(task.task_id, best.worker_id)
