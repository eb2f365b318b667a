"""Discrete-event machinery for the one-port master-slave engine.

The engine is event driven: simulated time jumps from decision point to
decision point.  Only five event kinds exist in the model:

* ``TASK_RELEASE`` — a task becomes known to the master;
* ``SEND_COMPLETE`` — the master's port frees and the task arrives in the
  target worker's input queue;
* ``COMPUTE_COMPLETE`` — a worker finishes executing a task;
* ``PLATFORM_EVENT`` — the platform changes (worker speed change, downtime,
  recovery or elastic join) according to a scenario's
  :class:`~repro.scenarios.events.PlatformTimeline`;
* ``WAKEUP`` — a scheduler explicitly asked to be re-consulted at a given
  time (used by deliberately-delaying strategies such as the adversary
  branches of the lower-bound proofs).

Events are totally ordered by ``(time, priority, sequence)``; the priority
encodes the convention that at equal times the engine first learns about
completions, then platform changes, then releases, then wake-ups.

Neither releases nor sends enter the :class:`EventQueue`.  The task set
is already sorted by ``(release, task_id)``, so the engine walks it with a
cursor; the master's one port carries one send at a time, so in-flight
sends end in start order and the engine keeps them in a FIFO.  The engine
merges the cursor, the FIFO's head and the queue's head in the order
above: a send completion goes first when it is earlier than the queue's
head, or at the head's time and the head is not a ``COMPUTE_COMPLETE``; a
release goes first when it is earlier than the earlier of the two heads,
or at that head's time and that head is a ``WAKEUP``.  That is exactly where ``SEND_COMPLETE``
and ``TASK_RELEASE`` entries would sort, because each kind would be pushed
in that same order, so the processing order is the total order above.

The engine consults the scheduler after every event that leaves the
master's port free with a task pending, also between two events of the
same instant.  A consultation at time *t* therefore sees the events that
precede it in that order, not every event dated *t*: a bag of tasks
released at 0 is offered to the scheduler first with one task released
(SLJF on two workers with ``all_at_zero(5)`` is first consulted with
``n_released == 1``), and the other releases at 0 reach it at later
consultations.  Releases that arrive while the port is busy cannot meet a
consultation, so the engine takes them in one step, each still counted
as an event.  Processing completions before platform events is what
guarantees that a platform event landing exactly on a
``SEND_COMPLETE``/``COMPUTE_COMPLETE`` timestamp can never alter in-flight
durations (they were fixed when the send/computation started).
"""

from __future__ import annotations

import enum
import itertools
from heapq import heappop as _heappop, heappush as _heappush
from typing import Iterator, List, NamedTuple, Optional

from ..exceptions import SchedulingError

__all__ = ["EventKind", "Event", "EventQueue"]

_INF = float("inf")
_tuple_new = tuple.__new__


class EventKind(enum.IntEnum):
    """Kinds of simulation events, ordered by same-time processing priority."""

    COMPUTE_COMPLETE = 0
    SEND_COMPLETE = 1
    PLATFORM_EVENT = 2
    TASK_RELEASE = 3
    WAKEUP = 4


class _EventFields(NamedTuple):
    """Field layout of :class:`Event`, which subclasses it because a
    ``NamedTuple`` body may not define ``__new__``."""

    time: float
    kind: EventKind
    sequence: int = 0
    task_id: int = -1
    worker_id: int = -1


class Event(_EventFields):
    """A single simulation event: a plain tuple ``(time, kind, sequence,
    task_id, worker_id)``.

    Tuples compare in C, so the heap orders events by ``(time, kind,
    sequence)`` without a per-comparison Python call; the sequence number
    is unique within a queue, so ``task_id``/``worker_id`` never decide an
    order.  ``task_id`` and ``worker_id`` are ``-1`` when not applicable
    (wake-ups).
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        kind: EventKind,
        sequence: int = 0,
        task_id: int = -1,
        worker_id: int = -1,
    ) -> "Event":
        if not 0.0 <= time < _INF:
            raise SchedulingError(f"event time must be finite and >= 0, got {time}")
        return _tuple_new(cls, (time, kind, sequence, task_id, worker_id))


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The queue assigns a monotonically increasing sequence number to each
    pushed event so that events with identical time and kind are processed in
    insertion order — this keeps the simulation fully deterministic.  The
    engine's run loop reads and pops the heap list ``_heap`` directly (one
    method call fewer per event); every event still enters through
    :meth:`push`.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over pending events in an unspecified order (heap order)."""
        return iter(list(self._heap))

    def push(
        self,
        time: float,
        kind: EventKind,
        task_id: int = -1,
        worker_id: int = -1,
    ) -> Event:
        """Create an event and insert it into the queue.

        Raises :class:`~repro.exceptions.SchedulingError` when ``time`` is
        NaN, infinite or negative (the same check as :class:`Event`, made
        here without a second constructor call).
        """
        if not 0.0 <= time < _INF:
            raise SchedulingError(f"event time must be finite and >= 0, got {time}")
        event = _tuple_new(Event, (time, kind, next(self._counter), task_id, worker_id))
        _heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SchedulingError("pop from an empty event queue")
        return _heappop(self._heap)

    def peek(self) -> Optional[Event]:
        """Return the earliest event without removing it, or ``None``."""
        return self._heap[0] if self._heap else None

    @property
    def next_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None
