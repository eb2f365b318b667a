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
unassigned.  The scheduler sees an immutable :class:`SchedulerView` (the
clock, the pending head, the workers and counters) and returns a
:class:`Decision`.  Every heuristic sends the head, so the view shows no
other pending task; a policy that plans its own order (the off-line replay)
holds the task set itself:

* :meth:`Decision.assign` — start sending the given task to the given worker
  immediately;
* :meth:`Decision.wait_until` — do nothing, but wake the scheduler up again
  at the given time even if no other event occurs (this is how deliberately
  delaying strategies, e.g. the candidate algorithms in the lower-bound
  proofs, are expressed);
* :meth:`Decision.wait` — do nothing until the next natural event.

Returning ``wait`` while no future event exists raises
:class:`~repro.exceptions.SchedulingStalledError` instead of hanging.

Events
------
Compute completions, platform events and wake-ups live in an
:class:`~repro.core.events.EventQueue`.  Sends and releases do not.  The
port carries one send at a time, so in-flight sends end in the order they
started and wait in a FIFO ``deque`` beside the heap (two are in flight
only at an exact tie, when a consultation after a same-instant compute
completion starts a send before the old send's completion is processed).
The task set is sorted, so the run loop releases it through a cursor.  The
loop merges the FIFO's head, the heap's head and the cursor in the
queue's own ``(time, kind, sequence)`` order (see :mod:`repro.core.events`):
a send completion keeps its rank between compute completions and platform
events.  After a release, every later release that comes before the next
other event is taken in the same step while the port stays busy, since no
consultation can fall between them.  Each release still counts against
``max_events``.

Each task's :class:`~repro.core.schedule.TaskRecord` is built once, when
its computation starts: in-flight work is never re-priced, so all seven
fields are known then.

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
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop as _heappop
from typing import List, NamedTuple, Optional, Tuple, TYPE_CHECKING

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
_INF = math.inf
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
    #: The first released, not-yet-assigned task in FIFO order (release,
    #: then id), or ``None`` when nothing is pending.
    next_pending: Optional[Task]
    workers: Tuple[WorkerView, ...]
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
    #: arrival queue: one ``(task, send_start, send_end)`` entry per task
    #: received and not started, in arrival order; the task's record is
    #: built from its entry when its computation starts
    queue: "deque[Tuple[Task, float, float]]" = field(default_factory=deque)
    #: (task_id, finish_time) of the task currently computing, if any
    computing: Optional[Tuple[int, float]] = None
    #: the ``(task, send_start, send_end)`` entry of the newest send to this
    #: worker, cleared by the next send completion on it; used by the
    #: platform-event re-pricing pass
    inflight: Optional[Tuple[Task, float, float]] = None
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
        self._events = EventQueue()
        self._workers: List[_WorkerState] = [
            _WorkerState(worker=w) for w in platform.workers
        ]
        self._bag: List[Task] = list(tasks)     # (release, id) order
        self._pending: "deque[Task]" = deque()  # released, unassigned, FIFO
        self._records: List[TaskRecord] = []    # one per started computation
        self._n_released = 0
        self._n_completed = 0

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
        # A view shows ``max(ready_time, now)`` for a busy worker and ``now``
        # for an idle one, so an unchanged worker's last view stays exact for
        # as long as its ready time has not fallen behind the clock: busy
        # views are reused across instants, idle ones within one instant.
        views = []
        for state in self._workers:
            view = state.cached_view
            if view is None or view[3] < now:
                ready = state.ready_time
                view = state.cached_view = _tuple_new(
                    WorkerView,
                    (
                        state.worker.worker_id,
                        state.eff_c,
                        state.eff_p,
                        (now if now > ready else ready) if state.backlog else now,
                        state.backlog,
                        state.completed,
                        state.available,
                    ),
                )
            views.append(view)
        pending = self._pending
        return _tuple_new(
            SchedulerView,
            (
                now,
                pending[0] if pending else None,
                tuple(views),
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
        decide = scheduler.decide
        view = self.view
        max_events = self.max_events
        timeline = self._timeline
        events = self._events
        push = events.push
        heap = events._heap
        workers = self._workers
        n_workers = len(workers)
        pending = self._pending
        records = self._records
        bag = self._bag
        n_bag = len(bag)
        cursor = 0  # index in the bag of the next task to release
        # In-flight sends, oldest first: (send_end, worker_id, entry).  The
        # port carries one send at a time, so their ends come in start order
        # (for any send longer than the port's 1e-15 tolerance below, as in
        # the array kernel's FIFO); two are in flight only at an exact tie,
        # when a consultation after a same-instant compute completion starts
        # a send before the old send's completion is processed.
        sends: "deque[Tuple[float, int, Tuple[Task, float, float]]]" = deque()
        channel_free_at = 0.0
        now = self.now
        n_completed = 0
        processed = 0

        while n_completed < n_tasks:
            # 1. consult the scheduler while the port is free and a task is
            # pending; it may assign, wait, or ask for a wake-up.
            if pending and channel_free_at <= now + 1e-15:
                self.now = now
                self._n_released = cursor
                self._n_completed = n_completed
                guard = 0
                while True:
                    guard += 1
                    if guard > n_tasks + 10:
                        raise SchedulingError(
                            "scheduler returned more assignments than possible "
                            "in one instant"
                        )
                    decision = decide(view())
                    if decision is None:
                        break  # same as Decision.wait()
                    if not isinstance(decision, Decision):
                        raise InvalidDecisionError(
                            f"scheduler returned {type(decision).__name__}, "
                            "expected Decision"
                        )
                    kind, task_id, worker_id, until = decision
                    if kind == _WAIT:
                        break
                    if kind == _WAIT_UNTIL:
                        if not math.isfinite(until) or until < now - 1e-12:
                            raise InvalidDecisionError(
                                f"wake-up time {until} is in the past (now={now})"
                            )
                        push(max(until, now), _WAKEUP)
                        break
                    # An assignment.  FIFO schedulers almost always pick the
                    # pending head, so check it before scanning.
                    task = pending[0]
                    index = 0
                    if task.task_id != task_id:
                        for index, task in enumerate(pending):
                            if task.task_id == task_id:
                                break
                        else:
                            raise InvalidDecisionError(
                                f"task {task_id} is not pending ({len(pending)} "
                                f"pending, head {pending[0].task_id})"
                            )
                    if not 0 <= worker_id < n_workers:
                        raise InvalidDecisionError(f"unknown worker {worker_id}")
                    state = workers[worker_id]
                    worker = state.worker
                    if timeline is None:
                        send_end = now + worker.c * task.comm_factor
                        compute = worker.p * task.comp_factor
                    else:
                        send_end = now + timeline.effective_comm_time(
                            worker, task.comm_factor, now
                        )
                        compute = timeline.effective_comp_time(
                            worker, task.comp_factor, now
                        )
                    if not 0.0 <= send_end < _INF:
                        raise SchedulingError(
                            f"event time must be finite and >= 0, got {send_end}"
                        )
                    # exact incremental ready-time update (FIFO execution on
                    # the worker); on dynamic platforms this prices the future
                    # computation at today's rate — the estimate is corrected
                    # at the next platform event
                    ready = state.ready_time
                    state.ready_time = (send_end if send_end > ready else ready) + compute
                    state.backlog += 1
                    state.inflight = entry = (task, now, send_end)
                    state.cached_view = None
                    if index:
                        del pending[index]
                    else:
                        pending.popleft()
                    sends.append((send_end, worker_id, entry))
                    channel_free_at = send_end
                    if not pending or channel_free_at > now + 1e-15:
                        break

            # 2. advance to the next event.  Releases come from the bag's
            # cursor, sends from the in-flight FIFO and every other event
            # from the heap; they are merged in the (time, kind) order of
            # repro.core.events.  ``time``/``kind`` is the earlier of the
            # FIFO's and the heap's heads.
            if heap:
                head = heap[0]
                time = head[0]
                kind = head[1]
                if sends:
                    send_end = sends[0][0]
                    if send_end < time or (
                        send_end == time and kind is not _COMPUTE_COMPLETE
                    ):
                        time = send_end
                        kind = _SEND_COMPLETE
            elif sends:
                time = sends[0][0]
                kind = _SEND_COMPLETE
            else:
                time = _INF
                kind = None
            if cursor < n_bag:
                release = bag[cursor].release
                if release < time or (release == time and kind is _WAKEUP):
                    # Take this release and every later one that still comes
                    # before ``time`` while the port stays busy: no
                    # consultation can fall between them.
                    while True:
                        processed += 1
                        if processed > max_events:
                            raise SchedulingError(
                                f"simulation exceeded {max_events} events; the "
                                "scheduler is probably requesting wake-ups in a loop"
                            )
                        if release > now:
                            now = release
                        elif release < now - 1e-12:
                            raise SchedulingError("event queue went back in time")
                        # The bag is in (release, id) order, so appending
                        # keeps the pending deque FIFO.
                        pending.append(bag[cursor])
                        cursor += 1
                        if cursor == n_bag or channel_free_at <= now + 1e-15:
                            break
                        release = bag[cursor].release
                        if not (release < time or (release == time and kind is _WAKEUP)):
                            break
                    continue
            elif kind is None:
                raise SchedulingStalledError(
                    "scheduler declined to act and no future event exists; "
                    f"{len(pending)} task(s) remain unassigned"
                )

            processed += 1
            if processed > max_events:
                raise SchedulingError(
                    f"simulation exceeded {max_events} events; "
                    "the scheduler is probably requesting wake-ups in a loop"
                )
            if time > now:
                now = time
            elif time < now - 1e-12:
                raise SchedulingError("event queue went back in time")

            if kind is _SEND_COMPLETE:
                _send_end, worker_id, entry = sends.popleft()
                state = workers[worker_id]
                state.inflight = None
                state.queue.append(entry)
                if state.computing is not None:
                    continue
            else:
                _time, kind, _sequence, task_id, worker_id = _heappop(heap)
                if kind is _COMPUTE_COMPLETE:
                    state = workers[worker_id]
                    computing = state.computing
                    if computing is None or computing[0] != task_id:
                        raise SchedulingError(
                            f"worker {worker_id} completed task {task_id} "
                            "it was not computing"
                        )
                    state.computing = None
                    state.backlog -= 1
                    state.completed += 1
                    state.cached_view = None
                    n_completed += 1
                elif kind is _PLATFORM_EVENT:
                    # Apply one timeline event: sync the worker's speeds and
                    # availability, re-price its estimate, and start its next
                    # task below if it is idle (a WorkerUp/WorkerJoin re-kicks
                    # a held queue).
                    self.now = now
                    state = workers[worker_id]
                    if self._sync_worker_state(state):
                        self._reprice_worker(state)
                    if state.computing is not None:
                        continue
                elif kind is _WAKEUP:  # a wake-up only triggers a consultation
                    continue
                else:
                    raise SchedulingError(f"unknown event kind {kind}")

            # 3. ``state``'s worker is idle: start its next queued task (a
            # down or not-yet-joined worker holds its queue until the
            # matching WorkerUp/WorkerJoin platform event).
            queue = state.queue
            if queue and (timeline is None or timeline.available(worker_id, now)):
                task, send_start, send_end = queue.popleft()
                if timeline is None:
                    finish = now + state.worker.p * task.comp_factor
                else:
                    finish = now + timeline.effective_comp_time(
                        state.worker, task.comp_factor, now
                    )
                task_id = task.task_id
                state.computing = (task_id, finish)
                records.append(
                    _tuple_new(
                        TaskRecord,
                        (task_id, worker_id, task.release, send_start, send_end, now, finish),
                    )
                )
                push(finish, _COMPUTE_COMPLETE, task_id, worker_id)

        self.now = now
        self._n_released = cursor
        self._n_completed = n_completed
        return Schedule(self.platform, self.tasks, records, timeline=self._timeline)

    # -- dynamic-platform pricing ----------------------------------------------
    # Work started at time `now` is priced through the timeline (inclusive
    # lookup at `now`), never through cached per-worker state: during an
    # exact timestamp tie the triggering completion may be processed before
    # the PLATFORM_EVENT entry pops, and the timeline is the only source
    # that is already consistent.  Schedule.validate() uses the very same
    # expressions, so engine and validator can never disagree.  Without a
    # timeline the hot paths price inline with Worker.comm_time/comp_time's
    # own expressions (``c * comm_factor``, ``p * comp_factor``).
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
        price = self._timeline.effective_comp_time
        worker, now = state.worker, self.now
        t = state.computing[1] if state.computing is not None else now
        for task, _send_start, _send_end in state.queue:
            t += price(worker, task.comp_factor, now)
        if state.inflight is not None:
            task, _send_start, send_end = state.inflight
            t = max(t, send_end) + price(worker, task.comp_factor, now)
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
