"""SLJF and SLJFWC — "Scheduling the Last Job First" heuristics.

Section 4.1 of the paper introduces the two heuristics designed by the same
authors in their companion report [23] (LIP RR-2005-31, not publicly
archived):

    "SLJF: Scheduling the Last Job First [...] is optimal to minimise the
    makespan on a communication-homogeneous platform, as soon as it knows
    the total number of tasks, even with release dates.  As its name says,
    it calculates, before scheduling the first task, the assignment of all
    tasks, starting with the last one."

    "SLJFWC: Scheduling the Last Job First With Communication is a variant
    of SLJF conceived to work on processor-homogeneous platforms."

    "[...] at the beginning, we start to compute the assignment of a certain
    number of tasks (the greater this number, the better the final
    assignment), and start to send the first tasks to their assigned
    processors.  Once the last assignment is done, we continue to send the
    remaining tasks, each task being sent to the processor that would finish
    it the earliest."

Because [23] is unavailable, this module re-derives both heuristics from the
properties stated above (the substitution is documented in
``docs/SCHEDULERS.md``, SLJF):

Backward planning
-----------------
Think of the schedule in *reverse time*, measured backwards from the end of
the execution.  In reverse time a task's computation interval comes first and
its communication interval afterwards (forward, the send precedes the
computation), and the one-port constraint still serialises the communication
intervals.  Both heuristics walk the tasks from the **last to the first**,
greedily placing each one on the worker that lets the whole reversed prefix
finish earliest:

* **SLJF** ignores communications (its target platforms have identical
  links): placing a task on worker ``j`` costs ``b_j + p_j`` where ``b_j`` is
  the compute time already stacked on ``j`` in reverse time.  The resulting
  per-worker task counts balance ``n_j · p_j``, which is the optimal bag
  partition on communication-homogeneous platforms.  The pure greedy pass
  can leave a very slow worker without any task when the balanced load
  stays below a single ``p_j``; on long horizons (``n >= 3m``) the plan
  then *primes* every unused worker with one of the earliest tasks (see
  below), because with serialised sends the first tasks flow through the
  port anyway and an otherwise idle worker computing one of them can only
  absorb load.
* **SLJFWC** additionally serialises the reversed communications on the
  master port (reverse-time port pointer ``B``): placing a task on ``j``
  costs ``max(b_j + p_j, B) + c_j``, i.e. the reverse-time instant at which
  its *send* would complete.  This is the natural "with communication"
  extension and favours cheap links on computation-homogeneous platforms.

The backward pass fixes *how many* tasks each worker should receive (its
quota).  Dispatching then follows the "last job first" intent in forward
time: whenever the port is free, the next FIFO task goes to the quota-holding
worker that is **closest to running out of work** (ties broken towards the
largest remaining planned work), so every worker is kept busy while the
planned last jobs naturally land on the fast processors at the end of the
run.  Tasks beyond the planned horizon fall back to the plain
list-scheduling rule, exactly as Section 4.1 prescribes.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.engine import Decision, SchedulerView
from ..core.platform import Platform
from ..exceptions import SchedulingError
from .base import OnlineScheduler
from .list_scheduling import list_schedule

__all__ = ["backward_plan", "SLJFScheduler", "SLJFWCScheduler"]

#: Planning horizon used when the total task count is not exposed to the
#: heuristic.  The paper notes "the greater this number, the better the final
#: assignment"; 1000 covers the full experimental workload of Section 4.
DEFAULT_LOOKAHEAD = 1000


def backward_plan(
    platform: Platform, n_tasks: int, with_communication: bool
) -> List[int]:
    """Plan worker assignments for ``n_tasks`` identical tasks, last job first.

    Returns a list ``plan`` of worker ids such that ``plan[k]`` is the target
    of the ``k``-th task *in FIFO order* (``k = 0`` is the first task sent).

    Parameters
    ----------
    platform:
        The target platform.
    n_tasks:
        Number of tasks to plan (the heuristic's lookahead).
    with_communication:
        ``False`` for SLJF (ignore ``c_j``), ``True`` for SLJFWC (serialise
        the reversed sends on the master port).
    """
    if n_tasks < 0:
        raise SchedulingError(f"cannot plan a negative number of tasks ({n_tasks})")
    m = platform.n_workers
    comm = platform.comm_times
    comp = platform.comp_times
    backward_load = [0.0] * m          # b_j: reverse-time compute stack per worker
    backward_port = 0.0                # B: reverse-time port availability
    reversed_assignment: List[int] = []  # worker of the last task first

    for _ in range(n_tasks):
        # Minimise (cost, tie, j) lexicographically; j grows, so only a
        # strictly smaller (cost, tie) replaces the best one.
        best_j = -1
        best_cost = best_tie = float("inf")
        for j in range(m):
            compute_end = backward_load[j] + comp[j]
            if with_communication:
                cost = max(compute_end, backward_port) + comm[j]
                tie = compute_end
            else:
                cost = compute_end
                tie = comm[j]
            if cost < best_cost or (cost == best_cost and tie < best_tie):
                best_cost = cost
                best_tie = tie
                best_j = j
        backward_load[best_j] += comp[best_j]
        if with_communication:
            backward_port = max(backward_load[best_j], backward_port) + comm[best_j]
        reversed_assignment.append(best_j)

    reversed_assignment.reverse()
    plan = reversed_assignment
    if not with_communication and n_tasks >= 3 * m:
        # Only long horizons are primed: with just a handful of tasks the
        # greedy partition already is the makespan-optimal one, and forcing
        # a very slow worker into it could dominate the whole schedule.
        _prime_unused_workers(platform, plan)
    return plan


def _prime_unused_workers(platform: Platform, plan: List[int]) -> None:
    """Give every worker the greedy pass skipped one of the earliest tasks.

    The master's sends are serialised on the one port, so the first tasks of
    a long run leave the master early no matter what; routing one of them to
    an otherwise idle worker keeps the whole platform busy without delaying
    any later send.  (SLJFWC keeps its right to skip prohibitively expensive
    links, so only the communication-oblivious plan is primed.)

    Each unused worker — slowest first, so the workers needing the longest
    head start receive the earliest tasks — takes over the earliest planned
    task of the currently most-loaded worker.  Donors always keep at least
    one task; priming stops when no worker has two tasks to spare.
    """
    m = platform.n_workers
    counts = [0] * m
    for worker_id in plan:
        counts[worker_id] += 1
    unused = sorted(
        (j for j in range(m) if counts[j] == 0),
        key=lambda j: (-platform[j].p, j),
    )
    for j in unused:
        donor = max(range(m), key=lambda k: (counts[k], -k))
        if counts[donor] < 2:
            break
        position = plan.index(donor)
        counts[donor] -= 1
        plan[position] = j
        counts[j] = 1


class _PlannedScheduler(OnlineScheduler):
    """Shared dispatcher for the SLJF family.

    The plan is computed lazily at the first decision (so the platform is
    known) over ``n_total`` tasks when the engine exposes the count, or over
    ``lookahead`` tasks otherwise.  Once the plan is exhausted the policy
    degrades to list scheduling, per Section 4.1.
    """

    with_communication: bool = False
    requires_task_count = True

    def __init__(self, lookahead: int = DEFAULT_LOOKAHEAD) -> None:
        super().__init__()
        if lookahead < 0:
            raise SchedulingError("lookahead must be non-negative")
        self.lookahead = lookahead
        self._plan: Optional[List[int]] = None
        self._quota: Optional[List[int]] = None

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Build the backward plan (quotas) for this platform and horizon."""
        super().reset(platform, n_tasks_hint)
        self._plan = None
        self._quota = None

    def _ensure_plan(self, view: SchedulerView) -> None:
        if self._plan is not None:
            return
        horizon = view.n_total if view.n_total is not None else self.n_tasks_hint
        if horizon is None:
            horizon = self.lookahead
        assert self.platform is not None
        self._plan = backward_plan(self.platform, horizon, self.with_communication)
        quota = [0] * self.platform.n_workers
        for worker_id in self._plan:
            quota[worker_id] += 1
        self._quota = quota

    def decide(self, view: SchedulerView) -> Decision:
        """Dispatch by remaining quota; list-schedule beyond the plan."""
        self._ensure_plan(view)
        quota = self._quota
        assert quota is not None
        # Feed the quota-holding worker that will run out of planned work
        # first (smallest ready time), breaking ties towards the largest
        # remaining planned work, then the smallest id: this realises the
        # backward plan while keeping every worker busy and the port
        # pipelined.  Workers come in id order and only a strictly smaller
        # (idle, weight) replaces the best one.
        now = view.now
        best = None
        for worker in view.workers:
            remaining = quota[worker.worker_id]
            if remaining > 0:
                idle = worker.ready_time - now
                if idle < 0.0:
                    idle = 0.0
                weight = -remaining * worker.p
                if (
                    best is None
                    or idle < best_idle
                    or (idle == best_idle and weight < best_weight)
                ):
                    best, best_idle, best_weight = worker, idle, weight
        if best is None:
            # Plan exhausted: "each task being sent to the processor that would
            # finish it the earliest" — i.e. list scheduling.
            return list_schedule(view)
        quota[best.worker_id] -= 1
        return Decision.assign(view.next_pending.task_id, best.worker_id)


class SLJFScheduler(_PlannedScheduler):
    """Scheduling the Last Job First (communication-oblivious planning)."""

    name = "SLJF"
    with_communication = False


class SLJFWCScheduler(_PlannedScheduler):
    """Scheduling the Last Job First With Communication."""

    name = "SLJFWC"
    with_communication = True
