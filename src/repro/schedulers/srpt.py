"""SRPT — Shortest Remaining Processing Time, specialised to identical tasks.

Section 4.1 of the paper describes the behaviour of SRPT in the
identical-task, no-preemption setting:

    "it sends a task to the fastest free slave; if no slave is currently
    free, it waits for the first slave to finish its task, and then sends it
    a new one."

Consequences of that definition, which this implementation reproduces:

* A slave is *free* when it has no assigned-but-unfinished work at all (not
  computing, nothing queued, nothing in flight).
* Because SRPT refuses to send ahead of need, it never overlaps a slave's
  computation with the communication of that slave's next task — this lack of
  pipelining is exactly why the static heuristics beat it on homogeneous
  platforms in Figure 1(a).
* "Fastest" is measured by the computation time ``p_j`` (ties broken by the
  smaller communication time, then by index).
"""

from __future__ import annotations

from ..core.engine import Decision, SchedulerView
from .base import OnlineScheduler

__all__ = ["SRPTScheduler"]


class SRPTScheduler(OnlineScheduler):
    """Send the next task to the fastest currently-free slave; otherwise wait."""

    name = "SRPT"

    def decide(self, view: SchedulerView) -> Decision:
        """Send the FIFO task to the fastest free worker, else wait."""
        # Workers come in id order and only a strictly smaller (p, c)
        # replaces the best one, so ties go to the smallest worker id.
        best = None
        for worker in view.workers:
            if worker.backlog == 0 and (
                best is None
                or worker.p < best.p
                or (worker.p == best.p and worker.c < best.c)
            ):
                best = worker
        if best is None:
            # No free worker: wait for the next natural event — the earliest
            # of which that can change anything is a worker completing its
            # task.
            return Decision.wait()
        return Decision.assign(view.next_pending.task_id, best.worker_id)
