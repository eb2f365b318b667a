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
        free = view.free_workers
        if not free:
            # Wait for the next natural event — the earliest of which that can
            # change anything is a worker completing its task.
            return Decision.wait()
        fastest = min(free, key=lambda w: (w.p, w.c, w.worker_id))
        return Decision.assign(view.next_pending.task_id, fastest.worker_id)
