"""Unit tests for the event queue (:mod:`repro.core.events`)."""

from __future__ import annotations

import math

import pytest

from repro.core.events import Event, EventKind, EventQueue
from repro.exceptions import SchedulingError


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            Event(time=-1.0, kind=EventKind.WAKEUP)

    def test_non_finite_time_rejected(self):
        with pytest.raises(SchedulingError):
            Event(time=float("inf"), kind=EventKind.WAKEUP)

    def test_ordering_by_time(self):
        early = Event(time=1.0, kind=EventKind.WAKEUP, sequence=0)
        late = Event(time=2.0, kind=EventKind.WAKEUP, sequence=1)
        assert early < late

    def test_same_time_ordering_by_kind(self):
        # At equal times completions are processed before releases, releases
        # before wake-ups.  The engine consults between two of them, so a
        # consultation at t sees only the events dated t that sort before it
        # (see the repro.core.events docstring).
        compute = Event(time=1.0, kind=EventKind.COMPUTE_COMPLETE, sequence=5)
        send = Event(time=1.0, kind=EventKind.SEND_COMPLETE, sequence=4)
        release = Event(time=1.0, kind=EventKind.TASK_RELEASE, sequence=3)
        wakeup = Event(time=1.0, kind=EventKind.WAKEUP, sequence=2)
        assert sorted([wakeup, release, send, compute]) == [compute, send, release, wakeup]


class TestEventQueue:
    def test_push_pop_fifo_on_ties(self):
        queue = EventQueue()
        first = queue.push(1.0, EventKind.WAKEUP)
        second = queue.push(1.0, EventKind.WAKEUP)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_earliest_first(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.WAKEUP, task_id=5)
        queue.push(1.0, EventKind.WAKEUP, task_id=1)
        queue.push(3.0, EventKind.WAKEUP, task_id=3)
        assert [queue.pop().task_id for _ in range(3)] == [1, 3, 5]

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, EventKind.WAKEUP)
        assert queue
        assert len(queue) == 1

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.WAKEUP)
        assert queue.peek().time == 2.0
        assert len(queue) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None

    def test_next_time(self):
        queue = EventQueue()
        assert queue.next_time is None
        queue.push(4.0, EventKind.WAKEUP)
        assert queue.next_time == 4.0

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_event_payload_preserved(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.SEND_COMPLETE, task_id=7, worker_id=2)
        event = queue.pop()
        assert event.task_id == 7
        assert event.worker_id == 2
        assert event.kind is EventKind.SEND_COMPLETE

    def test_iteration_returns_pending_events(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.WAKEUP)
        queue.push(2.0, EventKind.WAKEUP)
        assert len(list(queue)) == 2


class TestEventTimeChecks:
    """``push`` validates the time itself: it builds events without calling
    :class:`Event`'s constructor, and outside input (request platforms with
    overflowing costs) reaches it."""

    BAD_TIMES = [math.nan, math.inf, -math.inf, -1.0, -5e-324]

    @pytest.mark.parametrize("time", BAD_TIMES)
    def test_push_rejects_bad_times(self, time):
        queue = EventQueue()
        with pytest.raises(SchedulingError, match="finite and >= 0"):
            queue.push(time, EventKind.SEND_COMPLETE, task_id=0, worker_id=0)
        assert len(queue) == 0

    @pytest.mark.parametrize("time", BAD_TIMES)
    def test_event_constructor_rejects_bad_times(self, time):
        with pytest.raises(SchedulingError, match="finite and >= 0"):
            Event(time, EventKind.WAKEUP)

    def test_rejected_push_leaves_the_queue_usable(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.WAKEUP, task_id=1)
        with pytest.raises(SchedulingError):
            queue.push(math.inf, EventKind.WAKEUP)
        queue.push(0.5, EventKind.WAKEUP, task_id=2)
        assert [queue.pop().task_id for _ in range(2)] == [2, 1]

    def test_zero_and_largest_finite_time_accepted(self):
        queue = EventQueue()
        queue.push(0.0, EventKind.WAKEUP)
        queue.push(1.7976931348623157e308, EventKind.WAKEUP)
        assert len(queue) == 2


class TestEventAsTuple:
    def test_event_is_a_tuple_of_its_fields(self):
        event = Event(1.5, EventKind.SEND_COMPLETE, 3, 7, 2)
        assert tuple(event) == (1.5, EventKind.SEND_COMPLETE, 3, 7, 2)
        assert event.time == 1.5 and event.sequence == 3
        assert event.task_id == 7 and event.worker_id == 2

    def test_event_defaults(self):
        event = Event(2.0, EventKind.WAKEUP)
        assert (event.sequence, event.task_id, event.worker_id) == (0, -1, -1)

    def test_event_is_immutable(self):
        event = Event(1.0, EventKind.WAKEUP)
        with pytest.raises(AttributeError):
            event.time = 2.0

    def test_pushed_events_are_events(self):
        queue = EventQueue()
        pushed = queue.push(1.0, EventKind.TASK_RELEASE, task_id=4)
        assert type(pushed) is Event
        assert queue.peek() is pushed
        assert list(queue) == [pushed]
