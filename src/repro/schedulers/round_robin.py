"""The three Round-Robin heuristics of Section 4.1 (RR, RRC, RRP).

The paper defines them by their *prescribed ordering* of the slaves:

* **RR** — ordered by increasing ``p_j + c_j``;
* **RRC** — ordered by increasing ``c_j``;
* **RRP** — ordered by increasing ``p_j``.

What the paper does not pin down is the dispatch rule built on top of that
ordering.  Two readings are possible and both are implemented here:

``StrictRoundRobin*``
    Pure cyclic dispatch: task ``k`` goes to the ``(k mod m)``-th slave of the
    prescribed order, sent as soon as the master's port is free.  After many
    tasks every slave receives the same count, so the three orderings become
    indistinguishable — which contradicts the published Figure 1(b)/(c),
    where RRC (resp. RRP) is clearly worse than the other round-robins on
    platforms with heterogeneous processors (resp. links).

``RoundRobin*`` (default, used by the experiment harness)
    Bounded-backlog priority dispatch: whenever the port is free, send the
    next task to the first slave *in the prescribed order* whose backlog of
    unfinished tasks is below a small bound (default 2: one computing plus
    one buffered, which preserves communication/computation pipelining).  If
    every slave is saturated, wait.  Fast slaves drain their backlog sooner
    and therefore receive more tasks, so the ordering genuinely matters: an
    ordering oblivious to the heterogeneous resource keeps feeding the wrong
    slaves first, reproducing the qualitative behaviour of Figure 1.

The choice is recorded in ``docs/SCHEDULERS.md`` (RR) and checked by
``tests/test_paper_claims.py``, where the bounded reading beats the strict
one on communication-homogeneous platforms.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import Decision, SchedulerView
from ..core.platform import Platform
from ..exceptions import SchedulingError
from .base import OnlineScheduler

__all__ = [
    "BoundedRoundRobinBase",
    "RoundRobin",
    "RoundRobinComm",
    "RoundRobinComp",
    "StrictRoundRobinBase",
    "StrictRoundRobin",
    "StrictRoundRobinComm",
    "StrictRoundRobinComp",
]


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------
def _ordering(platform: Platform, key: str) -> List[int]:
    if key == "turnaround":
        return platform.order_by_turnaround()
    if key == "comm":
        return platform.order_by_comm()
    if key == "comp":
        return platform.order_by_comp()
    raise SchedulingError(f"unknown round-robin ordering key {key!r}")


# ---------------------------------------------------------------------------
# Bounded-backlog variants (used in the Figure 1 / Figure 2 experiments)
# ---------------------------------------------------------------------------
class BoundedRoundRobinBase(OnlineScheduler):
    """Common machinery for the bounded-backlog round-robin family."""

    #: ordering key: "turnaround" (RR), "comm" (RRC) or "comp" (RRP)
    ordering_key: str = "turnaround"

    def __init__(self, max_backlog: int = 2) -> None:
        super().__init__()
        if max_backlog < 1:
            raise SchedulingError("max_backlog must be at least 1")
        self.max_backlog = max_backlog
        self._order: List[int] = []

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Compute the prescribed worker ordering for this platform."""
        super().reset(platform, n_tasks_hint)
        self._order = _ordering(platform, self.ordering_key)

    def decide(self, view: SchedulerView) -> Decision:
        """Send the FIFO task to the first under-backlog worker in order."""
        workers = view.workers
        max_backlog = self.max_backlog
        for worker_id in self._order:
            if workers[worker_id].backlog < max_backlog:
                return Decision.assign(view.next_pending.task_id, worker_id)
        # Every slave already holds its allowed backlog: wait for a completion.
        return Decision.wait()


class RoundRobin(BoundedRoundRobinBase):
    """RR — prescribed order by increasing ``p_j + c_j``."""

    name = "RR"
    ordering_key = "turnaround"


class RoundRobinComm(BoundedRoundRobinBase):
    """RRC — prescribed order by increasing ``c_j``."""

    name = "RRC"
    ordering_key = "comm"


class RoundRobinComp(BoundedRoundRobinBase):
    """RRP — prescribed order by increasing ``p_j``."""

    name = "RRP"
    ordering_key = "comp"


# ---------------------------------------------------------------------------
# Strict cyclic variants (ablation)
# ---------------------------------------------------------------------------
class StrictRoundRobinBase(OnlineScheduler):
    """Pure cyclic dispatch over the prescribed ordering, sent ASAP."""

    ordering_key: str = "turnaround"

    def __init__(self) -> None:
        super().__init__()
        self._order: List[int] = []
        self._cursor = 0

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Compute the prescribed ordering and rewind the cyclic cursor."""
        super().reset(platform, n_tasks_hint)
        self._order = _ordering(platform, self.ordering_key)
        self._cursor = 0

    def decide(self, view: SchedulerView) -> Decision:
        """Assign the FIFO task to the next worker of the cycle."""
        task = view.next_pending
        worker_id = self._order[self._cursor % len(self._order)]
        self._cursor += 1
        return Decision.assign(task.task_id, worker_id)


class StrictRoundRobin(StrictRoundRobinBase):
    """Strict cyclic RR (order by ``p_j + c_j``)."""

    name = "RR-STRICT"
    ordering_key = "turnaround"


class StrictRoundRobinComm(StrictRoundRobinBase):
    """Strict cyclic RRC (order by ``c_j``)."""

    name = "RRC-STRICT"
    ordering_key = "comm"


class StrictRoundRobinComp(StrictRoundRobinBase):
    """Strict cyclic RRP (order by ``p_j``)."""

    name = "RRP-STRICT"
    ordering_key = "comp"
