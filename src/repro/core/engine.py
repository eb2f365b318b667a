"""Event-driven one-port master-slave simulation engine.

This module is the substrate on which every other piece of the reproduction
runs: the seven heuristics of Section 4, the off-line brute-force reference,
and the adversary games behind the nine lower-bound theorems all execute the
very same engine, so the theory and the experiments share one definition of
what a schedule *is*.

Model (Section 2 of the paper)
------------------------------
* The master owns a single outgoing port: at any instant it is sending at
  most one task (the *one-port* model).  Sending one task to worker
  :math:`P_j` occupies the port for :math:`c_j` time units.
* A worker may receive a task while computing another one; received tasks
  wait in the worker's input queue and are executed in arrival order, each
  taking :math:`p_j` time units.
* Tasks arrive on-line: the scheduler discovers task *i* only at its release
  time :math:`r_i`.

Scheduler protocol
------------------
The engine consults the scheduler at every *decision point* — any event after
which the master's port is free and at least one released task is still
unassigned.  The scheduler sees an immutable :class:`SchedulerView` and
returns a :class:`Decision`:

* :meth:`Decision.assign` — start sending the given task to the given worker
  immediately;
* :meth:`Decision.wait_until` — do nothing, but wake the scheduler up again
  at the given time even if no other event occurs (this is how deliberately
  delaying strategies, e.g. the candidate algorithms in the lower-bound
  proofs, are expressed);
* :meth:`Decision.wait` — do nothing until the next natural event.

Returning ``wait`` while no future event exists raises
:class:`~repro.exceptions.SchedulingStalledError` instead of hanging.

Dynamic platforms (scenario timelines)
--------------------------------------
The engine optionally takes a :class:`~repro.scenarios.events.
PlatformTimeline` describing how the platform changes during the run (worker
slowdown, downtime, recovery, elastic join).  Each timeline event is queued
as a ``PLATFORM_EVENT`` and applied at the existing completions-first
tie-break (after same-time completions, before same-time releases).  The
re-pricing contract is:

* work **started** at time ``t`` is priced with the speeds in effect after
  every timeline event with ``time <= t`` — the engine asks the timeline
  directly, and :meth:`Schedule.validate` re-checks with the very same
  expressions;
* work **in flight** when an event fires keeps its original duration;
* a worker that is unavailable does not *start* computations (queued tasks
  wait for the matching ``WorkerUp``/``WorkerJoin``); the master may still
  send to it;
* :attr:`WorkerView.ready_time` becomes an *estimate* under the
  rates-persist assumption (current speeds last forever, unavailable
  workers resume immediately) — it is re-priced at every platform event.

Schedulers need no changes: they keep seeing ``c``/``p`` on each
:class:`WorkerView`, which now carry the *effective* values at the decision
point.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from ..exceptions import (
    InvalidDecisionError,
    SchedulingError,
    SchedulingStalledError,
)
from .events import EventKind, EventQueue
from .platform import Platform, Worker
from .schedule import Schedule, TaskRecord
from .task import Task, TaskSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.events import PlatformTimeline
    from ..schedulers.base import OnlineScheduler

__all__ = [
    "Decision",
    "WorkerView",
    "SchedulerView",
    "OnePortEngine",
    "simulate",
]


#: Event kinds as module constants: the run loop compares them by identity.
_COMPUTE_COMPLETE = EventKind.COMPUTE_COMPLETE
_SEND_COMPLETE = EventKind.SEND_COMPLETE
_PLATFORM_EVENT = EventKind.PLATFORM_EVENT
_TASK_RELEASE = EventKind.TASK_RELEASE
_WAKEUP = EventKind.WAKEUP

#: Decision kinds, shared by :class:`Decision` and the engine's dispatch.
_ASSIGN = "assign"
_WAIT = "wait"
_WAIT_UNTIL = "wait-until"

_NAN = math.nan
_tuple_new = tuple.__new__


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------
class Decision(NamedTuple):
    """What a scheduler wants the engine to do at a decision point.

    Use the class-method constructors rather than instantiating directly.
    """

    kind: str
    task_id: int = -1
    worker_id: int = -1
    until: float = _NAN

    ASSIGN = _ASSIGN
    WAIT = _WAIT
    WAIT_UNTIL = _WAIT_UNTIL

    @classmethod
    def assign(cls, task_id: int, worker_id: int) -> "Decision":
        """Send ``task_id`` to ``worker_id`` starting now."""
        return _tuple_new(cls, (_ASSIGN, task_id, worker_id, _NAN))

    @classmethod
    def wait(cls) -> "Decision":
        """Do nothing until the next natural event."""
        return _tuple_new(cls, (_WAIT, -1, -1, _NAN))

    @classmethod
    def wait_until(cls, time: float) -> "Decision":
        """Do nothing, but guarantee a wake-up at ``time``."""
        return _tuple_new(cls, (_WAIT_UNTIL, -1, -1, float(time)))

    @property
    def is_assignment(self) -> bool:
        """True when the decision starts a send."""
        return self.kind == _ASSIGN


# ---------------------------------------------------------------------------
# Scheduler-facing views
# ---------------------------------------------------------------------------
class WorkerView(NamedTuple):
    """What a scheduler may know about one worker at a decision point.

    All quantities are computable by a real on-line master: they only involve
    the worker's parameters *as currently observed* and the tasks the master
    itself already assigned to it.  On dynamic platforms ``c`` and ``p`` are
    the effective values at the decision point (the base times divided by
    the current speed multipliers) and ``ready_time`` is an estimate under
    the rates-persist assumption.
    """

    worker_id: int
    c: float
    p: float
    #: Time at which the worker will have finished every task already
    #: assigned to it (including tasks still being sent).  Equals ``now`` or
    #: earlier when the worker is idle with nothing in flight.  Exact on
    #: static platforms; a rates-persist estimate on dynamic ones.
    ready_time: float
    #: Number of assigned-but-not-yet-completed tasks (in flight + queued +
    #: the one currently computing).
    backlog: int
    #: Number of tasks already completed by this worker.
    completed: int
    #: False while the worker is down (or has not joined the platform yet);
    #: an unavailable worker accepts sends but does not start computations.
    available: bool = True

    @property
    def is_free(self) -> bool:
        """True when nothing is assigned to the worker (SRPT's notion of a
        *free slave*)."""
        return self.backlog == 0

    def estimated_completion(
        self, send_start: float, comm_factor: float = 1.0, comp_factor: float = 1.0
    ) -> float:
        """Completion time of a hypothetical task sent at ``send_start``.

        This is exact under the FIFO-per-worker execution model: the task
        arrives at ``send_start + c`` and starts computing when both it has
        arrived and the worker has drained its current backlog.
        """
        arrival = send_start + self.c * comm_factor
        return max(arrival, self.ready_time) + self.p * comp_factor


class SchedulerView(NamedTuple):
    """Immutable snapshot handed to the scheduler at a decision point."""

    now: float
    #: Released, not-yet-assigned tasks in FIFO order (release, then id).
    pending: Tuple[Task, ...]
    workers: Tuple[WorkerView, ...]
    #: True when the master's port is free (always true at decision points,
    #: kept for completeness so views can also be built for inspection).
    channel_free: bool
    #: Time at which the port frees (== ``now`` when it is free).
    channel_free_at: float
    #: Number of tasks released so far (assigned or not).
    n_released: int
    #: Number of tasks whose computation has completed.
    n_completed: int
    #: Total number of tasks in the instance if the engine was told to expose
    #: it (off-line knowledge used by SLJF/SLJFWC), ``None`` otherwise.
    n_total: Optional[int] = None

    def worker(self, worker_id: int) -> WorkerView:
        """The view of one worker, by id."""
        return self.workers[worker_id]

    @property
    def free_workers(self) -> Tuple[WorkerView, ...]:
        """Workers with an empty backlog."""
        return tuple(w for w in self.workers if w.is_free)

    @property
    def next_pending(self) -> Optional[Task]:
        """The first pending task in FIFO order, or ``None``."""
        return self.pending[0] if self.pending else None


# ---------------------------------------------------------------------------
# Internal mutable worker state
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class _WorkerState:
    worker: Worker
    #: exact time at which all currently assigned work will be finished
    #: (rates-persist estimate on dynamic platforms)
    ready_time: float = 0.0
    #: tasks assigned (in flight, queued or computing) but not completed
    backlog: int = 0
    completed: int = 0
    #: arrival queue: (task_id, arrival_time) for tasks received, not started
    queue: List[Tuple[int, float]] = field(default_factory=list)
    #: (task_id, finish_time) of the task currently computing, if any
    computing: Optional[Tuple[int, float]] = None
    #: (task_id, send_end) of the task currently being sent to this worker,
    #: if any (at most one globally under the one-port model); used by the
    #: platform-event re-pricing pass
    inflight: Optional[Tuple[int, float]] = None
    #: effective unit communication/computation times shown to schedulers
    #: (equal to the worker's base c/p on static platforms; updated at every
    #: platform event on dynamic ones)
    eff_c: float = 0.0
    eff_p: float = 0.0
    #: False while the worker is down or has not joined yet
    available: bool = True
    #: the last view built; every mutation of a field above that the view
    #: shows (ready_time, backlog, completed, eff_c, eff_p, available) must
    #: reset it to None
    cached_view: Optional[WorkerView] = None

    def __post_init__(self) -> None:
        self.eff_c = self.worker.c
        self.eff_p = self.worker.p

    def view(self, now: float) -> WorkerView:
        # A view shows ``max(ready_time, now)`` for a busy worker and ``now``
        # for an idle one, so an unchanged worker's last view stays exact for
        # as long as its ready time has not fallen behind the clock: busy
        # views are reused across instants, idle ones within one instant.
        view = self.cached_view
        if view is not None and view[3] >= now:
            return view
        ready = self.ready_time
        view = self.cached_view = _tuple_new(
            WorkerView,
            (
                self.worker.worker_id,
                self.eff_c,
                self.eff_p,
                (now if now > ready else ready) if self.backlog else now,
                self.backlog,
                self.completed,
                self.available,
            ),
        )
        return view


@dataclass(slots=True)
class _PartialRecord:
    task_id: int
    worker_id: int
    release: float
    send_start: float
    send_end: float
    compute_start: float = math.nan
    compute_end: float = math.nan


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class OnePortEngine:
    """Run an on-line scheduler over a platform and a task set.

    Parameters
    ----------
    platform:
        The master-slave platform.
    tasks:
        The task set (release dates may be in the future; the scheduler only
        sees released tasks).
    expose_task_count:
        When true the scheduler view carries ``n_total = len(tasks)``; this is
        the extra off-line knowledge required by SLJF/SLJFWC (Section 4.1
        explains that these heuristics plan a prefix of known size).
    max_events:
        Safety valve against run-away schedulers; the default is generous
        (every task generates exactly three model events plus wake-ups).
    timeline:
        Optional :class:`~repro.scenarios.events.PlatformTimeline` making
        the platform dynamic (see the module docstring for the re-pricing
        contract).  A trivial (event-less) timeline is equivalent to
        ``None`` and takes the exact static fast path.
    """

    def __init__(
        self,
        platform: Platform,
        tasks: TaskSet,
        expose_task_count: bool = False,
        max_events: Optional[int] = None,
        timeline: Optional["PlatformTimeline"] = None,
    ) -> None:
        if timeline is not None and timeline.is_trivial:
            timeline = None
        if timeline is not None and timeline.n_workers != len(platform):
            raise SchedulingError(
                f"timeline was compiled for {timeline.n_workers} worker(s) "
                f"but the platform has {len(platform)}"
            )
        self.platform = platform
        self.tasks = tasks
        self.expose_task_count = expose_task_count
        self._timeline = timeline
        self._n_tasks = n_tasks = len(tasks)
        self._n_total = n_tasks if expose_task_count else None
        n_platform_events = len(timeline.events) if timeline is not None else 0
        self.max_events = (
            max_events
            if max_events is not None
            else 100 * max(n_tasks, 1) + 1000 + n_platform_events
        )

        self.now = 0.0
        self.channel_free_at = 0.0
        self._events = EventQueue()
        self._workers: List[_WorkerState] = [
            _WorkerState(worker=w) for w in platform.workers
        ]
        self._pending: List[Task] = []          # released, unassigned, FIFO
        self._records: Dict[int, _PartialRecord] = {}
        self._n_released = 0
        self._n_completed = 0
        self._n_assigned = 0

        if timeline is not None:
            for state in self._workers:
                worker_id = state.worker.worker_id
                state.available = timeline.available(worker_id, 0.0)
                state.eff_c = timeline.effective_comm_time(state.worker, 1.0, 0.0)
                state.eff_p = timeline.effective_comp_time(state.worker, 1.0, 0.0)
            for index, event in enumerate(timeline.events):
                self._events.push(
                    event.time,
                    EventKind.PLATFORM_EVENT,
                    task_id=index,
                    worker_id=event.worker_id,
                )

        for task in tasks:
            self._events.push(task.release, EventKind.TASK_RELEASE, task_id=task.task_id)

    # -- views ---------------------------------------------------------------
    def view(self) -> SchedulerView:
        """Build the immutable snapshot handed to the scheduler.

        On dynamic platforms the per-worker speeds/availability are synced
        from the timeline first: a consultation can fall inside an exact
        timestamp tie, after a same-time completion but before the queued
        ``PLATFORM_EVENT`` entry pops, and the scheduler must still see the
        state its assignment would be priced with (timeline-inclusive at
        ``now``).
        """
        now = self.now
        if self._timeline is not None:
            for state in self._workers:
                if self._sync_worker_state(state):
                    self._reprice_worker(state)
        free_at = self.channel_free_at
        return _tuple_new(
            SchedulerView,
            (
                now,
                tuple(self._pending),
                tuple([state.view(now) for state in self._workers]),
                free_at <= now,
                free_at if free_at > now else now,
                self._n_released,
                self._n_completed,
                self._n_total,
            ),
        )

    # -- main loop -----------------------------------------------------------
    def run(self, scheduler: "OnlineScheduler") -> Schedule:
        """Execute the scheduler until every task has completed."""
        n_tasks = self._n_tasks
        scheduler.reset(self.platform, n_tasks_hint=self._n_total)
        processed = 0
        max_events = self.max_events
        events = self._events

        while self._n_completed < n_tasks:
            # 1. consult the scheduler if a decision is possible
            if self._pending and self.channel_free_at <= self.now + 1e-15:
                self._maybe_consult(scheduler)

            # 2. advance to the next event
            if not events:
                raise SchedulingStalledError(
                    "scheduler declined to act and no future event exists; "
                    f"{len(self._pending)} task(s) remain unassigned"
                )
            time, kind, _sequence, task_id, worker_id = events.pop()
            processed += 1
            if processed > max_events:
                raise SchedulingError(
                    f"simulation exceeded {max_events} events; "
                    "the scheduler is probably requesting wake-ups in a loop"
                )
            if time > self.now:
                self.now = time
            elif time < self.now - 1e-12:
                raise SchedulingError("event queue went back in time")

            if kind is _TASK_RELEASE:
                self._on_release(task_id)
            elif kind is _SEND_COMPLETE:
                self._on_send_complete(task_id, worker_id)
            elif kind is _COMPUTE_COMPLETE:
                self._on_compute_complete(task_id, worker_id)
            elif kind is _PLATFORM_EVENT:
                self._on_platform_event(task_id)
            elif kind is not _WAKEUP:  # a wake-up only triggers a consultation
                raise SchedulingError(f"unknown event kind {kind}")

        records = [
            TaskRecord(
                task_id=r.task_id,
                worker_id=r.worker_id,
                release=r.release,
                send_start=r.send_start,
                send_end=r.send_end,
                compute_start=r.compute_start,
                compute_end=r.compute_end,
            )
            for r in self._records.values()
        ]
        return Schedule(self.platform, self.tasks, records, timeline=self._timeline)

    # -- scheduler consultation ----------------------------------------------
    def _maybe_consult(self, scheduler: "OnlineScheduler") -> None:
        """Ask the scheduler for decisions while it can and wants to act."""
        guard = 0
        while self.channel_free_at <= self.now + 1e-15 and self._pending:
            guard += 1
            if guard > self._n_tasks + 10:
                raise SchedulingError(
                    "scheduler returned more assignments than possible in one instant"
                )
            decision = scheduler.decide(self.view())
            if decision is None:
                return  # same as Decision.wait()
            if not isinstance(decision, Decision):
                raise InvalidDecisionError(
                    f"scheduler returned {type(decision).__name__}, expected Decision"
                )
            kind, task_id, worker_id, until = decision
            if kind == _WAIT:
                return
            if kind == _WAIT_UNTIL:
                if not math.isfinite(until) or until < self.now - 1e-12:
                    raise InvalidDecisionError(
                        f"wake-up time {until} is in the past (now={self.now})"
                    )
                self._events.push(max(until, self.now), EventKind.WAKEUP)
                return
            # assignment
            self._start_send(task_id, worker_id)
            # After an assignment the port is busy, so the loop exits naturally.

    # -- dynamic-platform pricing ----------------------------------------------
    # Work started at time `now` is priced through the timeline (inclusive
    # lookup at `now`), never through cached per-worker state: during an
    # exact timestamp tie the triggering completion may be processed before
    # the PLATFORM_EVENT entry pops, and the timeline is the only source
    # that is already consistent.  Schedule.validate() uses the very same
    # expressions, so engine and validator can never disagree.  Without a
    # timeline the hot paths price inline with Worker.comm_time/comp_time's
    # own expressions (``c * comm_factor``, ``p * comp_factor``).
    def _comp_duration(self, worker: Worker, task: Task) -> float:
        if self._timeline is None:
            return worker.p * task.comp_factor
        return self._timeline.effective_comp_time(worker, task.comp_factor, self.now)

    def _reprice_worker(self, state: _WorkerState) -> None:
        """Recompute a worker's ready-time estimate after a platform event.

        The estimate assumes current rates persist and an unavailable worker
        resumes immediately; the in-progress computation keeps its original
        finish time (in-flight work is never re-priced).
        """
        state.cached_view = None
        if state.backlog == 0:
            state.ready_time = self.now
            return
        t = state.computing[1] if state.computing is not None else self.now
        for task_id, _arrival in state.queue:
            t += self._comp_duration(state.worker, self.tasks.by_id(task_id))
        if state.inflight is not None:
            task_id, send_end = state.inflight
            t = max(t, send_end) + self._comp_duration(
                state.worker, self.tasks.by_id(task_id)
            )
        state.ready_time = t

    def _sync_worker_state(self, state: _WorkerState) -> bool:
        """Pull a worker's speeds/availability from the timeline at ``now``.

        Inclusive lookup at ``now`` lands on the state after *all* events
        dated ``now``, so several same-instant events converge in one step
        (later applications are no-ops).  Returns True when anything
        changed (the cached view is cleared in that case).
        """
        timeline = self._timeline
        worker_id = state.worker.worker_id
        available = timeline.available(worker_id, self.now)
        eff_c = timeline.effective_comm_time(state.worker, 1.0, self.now)
        eff_p = timeline.effective_comp_time(state.worker, 1.0, self.now)
        if (
            available == state.available
            and eff_c == state.eff_c
            and eff_p == state.eff_p
        ):
            return False
        state.available = available
        state.eff_c = eff_c
        state.eff_p = eff_p
        state.cached_view = None
        return True

    def _on_platform_event(self, index: int) -> None:
        """Apply one timeline event: sync speeds/availability, re-price."""
        event = self._timeline.events[index]
        state = self._workers[event.worker_id]
        if self._sync_worker_state(state):
            self._reprice_worker(state)
        if state.available and state.computing is None and state.queue:
            self._start_next_computation(event.worker_id)

    # -- event handlers --------------------------------------------------------
    def _on_release(self, task_id: int) -> None:
        task = self.tasks.by_id(task_id)
        pending = self._pending
        # Releases pop in (release, id) order, so the task almost always
        # belongs at the end; insort keeps FIFO order in the other cases.
        last = pending[-1] if pending else None
        if last is None or last.release < task.release or (
            last.release == task.release and last.task_id < task.task_id
        ):
            pending.append(task)
        else:
            insort(pending, task)
        self._n_released += 1

    def _start_send(self, task_id: int, worker_id: int) -> None:
        # FIFO schedulers almost always pick the head of the pending list, so
        # check it first before scanning.
        pending = self._pending
        if pending and pending[0].task_id == task_id:
            pending_index = 0
        else:
            for pending_index, candidate in enumerate(pending):
                if candidate.task_id == task_id:
                    break
            else:
                raise InvalidDecisionError(
                    f"task {task_id} is not pending "
                    f"(pending: {[t.task_id for t in pending]})"
                )
        if not 0 <= worker_id < len(self._workers):
            raise InvalidDecisionError(f"unknown worker {worker_id}")
        task = self.tasks.by_id(task_id)
        worker_state = self._workers[worker_id]
        worker = worker_state.worker

        send_start = self.now
        timeline = self._timeline
        if timeline is None:
            send_end = send_start + worker.c * task.comm_factor
            compute = worker.p * task.comp_factor
        else:
            send_end = send_start + timeline.effective_comm_time(
                worker, task.comm_factor, send_start
            )
            compute = timeline.effective_comp_time(worker, task.comp_factor, send_start)
        self.channel_free_at = send_end

        # exact incremental ready-time update (FIFO execution on the worker);
        # on dynamic platforms this prices the future computation at today's
        # rate — the estimate is corrected at the next platform event
        ready = worker_state.ready_time
        worker_state.ready_time = (send_end if send_end > ready else ready) + compute
        worker_state.backlog += 1
        worker_state.inflight = (task_id, send_end)
        worker_state.cached_view = None

        del pending[pending_index]
        self._records[task_id] = _PartialRecord(
            task_id, worker_id, task.release, send_start, send_end
        )
        self._n_assigned += 1
        self._events.push(send_end, EventKind.SEND_COMPLETE, task_id, worker_id)

    def _on_send_complete(self, task_id: int, worker_id: int) -> None:
        state = self._workers[worker_id]
        state.inflight = None
        state.queue.append((task_id, self.now))
        if state.computing is None:
            self._start_next_computation(worker_id)

    def _start_next_computation(self, worker_id: int) -> None:
        state = self._workers[worker_id]
        if state.computing is not None or not state.queue:
            return
        timeline = self._timeline
        if timeline is not None and not timeline.available(worker_id, self.now):
            # Downed (or not-yet-joined) workers hold their queue; the
            # matching WorkerUp/WorkerJoin platform event re-kicks them.
            return
        task_id, _arrival = state.queue.pop(0)
        task = self.tasks.by_id(task_id)
        start = self.now
        finish = start + self._comp_duration(state.worker, task)
        state.computing = (task_id, finish)
        record = self._records[task_id]
        record.compute_start = start
        record.compute_end = finish
        self._events.push(finish, EventKind.COMPUTE_COMPLETE, task_id, worker_id)

    def _on_compute_complete(self, task_id: int, worker_id: int) -> None:
        state = self._workers[worker_id]
        if state.computing is None or state.computing[0] != task_id:
            raise SchedulingError(
                f"worker {worker_id} completed task {task_id} it was not computing"
            )
        state.computing = None
        state.backlog -= 1
        state.completed += 1
        state.cached_view = None
        self._n_completed += 1
        self._start_next_computation(worker_id)


def simulate(
    scheduler: "OnlineScheduler",
    platform: Platform,
    tasks: TaskSet,
    expose_task_count: bool = False,
    timeline: Optional["PlatformTimeline"] = None,
) -> Schedule:
    """Convenience wrapper: build an engine, run ``scheduler``, return the schedule."""
    engine = OnePortEngine(
        platform, tasks, expose_task_count=expose_task_count, timeline=timeline
    )
    return engine.run(scheduler)
