"""Unit tests for the one-port engine (:mod:`repro.core.engine`).

The hand-computed scenarios mirror the schedule expressions used throughout
the Section 3 proofs (e.g. two tasks on the same slave complete at
``max(c + 2p, 2c + p)``), so the engine's semantics are pinned to the
paper's model rather than to its own implementation.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.engine import Decision, OnePortEngine, simulate
from repro.core.platform import Platform
from repro.core.task import TaskSet
from repro.exceptions import (
    InvalidDecisionError,
    SchedulingError,
    SchedulingStalledError,
)
from repro.schedulers.base import PAPER_HEURISTICS, OnlineScheduler, create_scheduler
from repro.schedulers.random_policy import FixedAssignmentScheduler
from repro.workloads.release import all_at_zero


class DelayingScheduler(OnlineScheduler):
    """Waits until a fixed time before assigning everything to worker 0."""

    name = "DELAY"

    def __init__(self, until: float) -> None:
        super().__init__()
        self.until = until

    def decide(self, view):
        if view.now < self.until:
            return Decision.wait_until(self.until)
        return Decision.assign(view.next_pending.task_id, 0)


class StallingScheduler(OnlineScheduler):
    """Always refuses to act (used to exercise the stall detection) and
    records ``(now, n_released)`` at each consultation."""

    name = "STALL"

    def __init__(self) -> None:
        super().__init__()
        self.consulted = []

    def decide(self, view):
        self.consulted.append((view.now, view.n_released))
        return Decision.wait()


class BadWorkerScheduler(OnlineScheduler):
    name = "BAD-WORKER"

    def decide(self, view):
        return Decision.assign(view.next_pending.task_id, 99)


class BadTaskScheduler(OnlineScheduler):
    name = "BAD-TASK"

    def decide(self, view):
        return Decision.assign(12345, 0)


class NotADecisionScheduler(OnlineScheduler):
    name = "BAD-TYPE"

    def decide(self, view):
        return "send it somewhere"


class PastWakeupScheduler(OnlineScheduler):
    name = "PAST-WAKEUP"

    def decide(self, view):
        return Decision.wait_until(view.now - 5.0)


class FreeWorkerScheduler(OnlineScheduler):
    """Sends the FIFO task to worker 0 once it is free, waiting otherwise,
    and records ``(now, n_released, n_completed)`` at each consultation.

    With ``wake_at`` set it first waits until that time."""

    name = "FREE-WORKER"

    def __init__(self, wake_at: float = 0.0) -> None:
        super().__init__()
        self.wake_at = wake_at
        self.consulted = []

    def decide(self, view):
        self.consulted.append((view.now, view.n_released, view.n_completed))
        if view.now < self.wake_at:
            return Decision.wait_until(self.wake_at)
        if not view.worker(0).is_free:
            return Decision.wait()
        return Decision.assign(view.next_pending.task_id, 0)


class TestBasicSemantics:
    def test_single_task_completion(self):
        platform = Platform.from_times([1.0], [3.0])
        schedule = simulate(FixedAssignmentScheduler([0]), platform, all_at_zero(1))
        record = schedule[0]
        assert record.send_start == pytest.approx(0.0)
        assert record.send_end == pytest.approx(1.0)
        assert record.compute_start == pytest.approx(1.0)
        assert record.compute_end == pytest.approx(4.0)  # c + p

    def test_two_tasks_same_worker_pipeline(self):
        # Completion of the second task is max(c + 2p, 2c + p): the slave
        # receives the second task while computing the first.
        platform = Platform.from_times([1.0], [3.0])
        schedule = simulate(FixedAssignmentScheduler([0, 0]), platform, all_at_zero(2))
        assert schedule[1].compute_end == pytest.approx(max(1 + 2 * 3, 2 * 1 + 3))

    def test_two_tasks_same_worker_communication_bound(self):
        # When p < c the slave idles between tasks: completion is 2c + p.
        platform = Platform.from_times([2.0], [0.5])
        schedule = simulate(FixedAssignmentScheduler([0, 0]), platform, all_at_zero(2))
        assert schedule[1].compute_end == pytest.approx(2 * 2.0 + 0.5)

    def test_one_port_serialises_sends(self):
        platform = Platform.from_times([1.0, 1.0], [3.0, 7.0])
        schedule = simulate(FixedAssignmentScheduler([0, 1]), platform, all_at_zero(2))
        assert schedule[0].send_end <= schedule[1].send_start + 1e-12
        # Theorem 1's case analysis: makespan max(c+p1, 2c+p2) = 9.
        assert max(r.compute_end for r in schedule) == pytest.approx(9.0)

    def test_release_dates_respected(self):
        platform = Platform.from_times([1.0], [1.0])
        tasks = TaskSet.from_releases([0.0, 5.0])
        schedule = simulate(FixedAssignmentScheduler([0, 0]), platform, tasks)
        assert schedule[1].send_start >= 5.0

    def test_task_size_factors_scale_costs(self):
        platform = Platform.from_times([1.0], [2.0])
        tasks = all_at_zero(1).with_factors(comm_factors=[2.0], comp_factors=[0.5])
        schedule = simulate(FixedAssignmentScheduler([0]), platform, tasks)
        record = schedule[0]
        assert record.send_end - record.send_start == pytest.approx(2.0)
        assert record.compute_end - record.compute_start == pytest.approx(1.0)

    def test_fifo_queue_on_worker(self):
        # Three tasks on one slave execute in arrival order.
        platform = Platform.from_times([0.5], [2.0])
        schedule = simulate(FixedAssignmentScheduler([0, 0, 0]), platform, all_at_zero(3))
        runs = schedule.records_for_worker(0)
        assert [r.task_id for r in runs] == [0, 1, 2]
        assert runs[2].compute_end == pytest.approx(0.5 + 3 * 2.0)

    def test_schedule_is_feasible(self, run_and_validate, heterogeneous_platform):
        run_and_validate(
            FixedAssignmentScheduler([0, 1, 2, 3, 0, 1]),
            heterogeneous_platform,
            all_at_zero(6),
        )


class TestDelaysAndWakeups:
    def test_deliberate_delay_honoured(self):
        platform = Platform.from_times([1.0], [3.0])
        schedule = simulate(DelayingScheduler(until=2.0), platform, all_at_zero(1))
        assert schedule[0].send_start == pytest.approx(2.0)
        assert schedule[0].compute_end == pytest.approx(2.0 + 1.0 + 3.0)

    def test_wait_until_now_is_allowed(self):
        platform = Platform.from_times([1.0], [1.0])
        schedule = simulate(DelayingScheduler(until=0.0), platform, all_at_zero(2))
        assert schedule[0].send_start == pytest.approx(0.0)

    def test_past_wakeup_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        tasks = TaskSet.from_releases([10.0])
        with pytest.raises(InvalidDecisionError):
            simulate(PastWakeupScheduler(), platform, tasks)


class TestErrorHandling:
    @pytest.mark.parametrize(
        "releases, consulted",
        [
            ([0.0, 0.0], [(0.0, 1), (0.0, 2)]),
            ([0.0, 5.0], [(0.0, 1), (5.0, 2)]),
        ],
        ids=["bag", "spread"],
    )
    def test_stalled_scheduler_detected(self, releases, consulted):
        # The stall is raised once the last release has been offered.
        platform = Platform.from_times([1.0], [1.0])
        scheduler = StallingScheduler()
        with pytest.raises(SchedulingStalledError):
            simulate(scheduler, platform, TaskSet.from_releases(releases))
        assert scheduler.consulted == consulted

    def test_unknown_worker_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(InvalidDecisionError):
            simulate(BadWorkerScheduler(), platform, all_at_zero(1))

    def test_unknown_task_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(InvalidDecisionError):
            simulate(BadTaskScheduler(), platform, all_at_zero(1))

    def test_non_decision_return_rejected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(InvalidDecisionError):
            simulate(NotADecisionScheduler(), platform, all_at_zero(1))

    @pytest.mark.parametrize("max_events, enough", [(1, False), (5, False), (6, True)])
    def test_event_budget_guard(self, max_events, enough):
        # Two tasks make six events: each task's release, send completion
        # and compute completion.  Releases count although they never
        # enter the heap.
        platform = Platform.from_times([1.0], [1.0])
        engine = OnePortEngine(platform, all_at_zero(2), max_events=max_events)
        if enough:
            assert len(engine.run(FixedAssignmentScheduler([0, 0]))) == 2
        else:
            with pytest.raises(SchedulingError, match=f"exceeded {max_events} events"):
                engine.run(FixedAssignmentScheduler([0, 0]))


class TestSchedulerView:
    def test_view_exposes_task_count_only_when_asked(self):
        platform = Platform.from_times([1.0], [1.0])
        engine = OnePortEngine(platform, all_at_zero(3), expose_task_count=True)
        assert engine.view().n_total == 3
        engine = OnePortEngine(platform, all_at_zero(3), expose_task_count=False)
        assert engine.view().n_total is None

    def test_view_free_workers_and_ready_times(self):
        platform = Platform.from_times([1.0, 1.0], [2.0, 2.0])

        observations = []

        class Spy(OnlineScheduler):
            name = "SPY"

            def decide(self, view):
                observations.append(
                    (view.now, tuple(w.backlog for w in view.workers))
                )
                return Decision.assign(view.next_pending.task_id, 0)

        simulate(Spy(), platform, all_at_zero(2))
        # First decision: both workers free; second (at t=c): worker 0 busy.
        assert observations[0][1] == (0, 0)
        assert observations[1][1] == (1, 0)

    def test_estimated_completion_matches_engine(self):
        platform = Platform.from_times([1.0, 2.0], [3.0, 5.0])

        predictions = []

        class Predictor(OnlineScheduler):
            name = "PREDICT"

            def decide(self, view):
                task = view.next_pending
                target = view.workers[task.task_id % 2]
                predictions.append((task.task_id, target.estimated_completion(view.now)))
                return Decision.assign(task.task_id, target.worker_id)

        schedule = simulate(Predictor(), platform, all_at_zero(4))
        for task_id, predicted in predictions:
            assert schedule[task_id].compute_end == pytest.approx(predicted)

    def test_consultations_interleave_with_same_instant_releases(self):
        """Pin the consult order documented in :mod:`repro.core.events`.

        The engine consults after every event, also between two releases of
        the same instant, so SLJF's first look at a bag of five tasks shows
        one of them.  A change to batch same-instant events must update
        this test and that docstring together.
        """
        from repro.schedulers.base import create_scheduler

        scheduler = create_scheduler("SLJF")
        decide = scheduler.decide
        consulted = []

        def recording_decide(view):
            decision = decide(view)
            consulted.append(
                (
                    view.now,
                    view.n_released,
                    view.next_pending.task_id,
                    decision.task_id,
                    decision.worker_id,
                )
            )
            return decision

        scheduler.decide = recording_decide
        platform = Platform.from_times([1.0, 2.0], [3.0, 1.0])
        simulate(scheduler, platform, all_at_zero(5), expose_task_count=True)
        assert consulted == [
            (0.0, 1, 0, 0, 1),
            (2.0, 5, 1, 1, 0),
            (3.0, 5, 2, 2, 1),
            (5.0, 5, 3, 3, 1),
            (7.0, 5, 4, 4, 1),
        ]

    @staticmethod
    def _view_bytes_at_second_consultation(n_tasks):
        """Bytes a view holds when all but one of ``n_tasks`` are pending."""
        platform = Platform.from_times([1.0, 2.0], [3.0, 1.0])
        engine = OnePortEngine(platform, all_at_zero(n_tasks))
        measured = []

        class Measure(OnlineScheduler):
            name = "MEASURE"

            def decide(self, view):
                if view.n_released == n_tasks and not measured:
                    tracemalloc.start()
                    try:
                        before = tracemalloc.get_traced_memory()[0]
                        kept = engine.view()
                        measured.append(tracemalloc.get_traced_memory()[0] - before)
                    finally:
                        tracemalloc.stop()
                    assert kept.next_pending.task_id == 1
                return Decision.assign(view.next_pending.task_id, 0)

        engine.run(Measure())
        return measured[0]

    def test_a_view_does_not_grow_with_the_bag(self):
        # The second consultation comes after the first send completes, when
        # every task is released and only task 0 is assigned.
        assert self._view_bytes_at_second_consultation(
            20
        ) == self._view_bytes_at_second_consultation(20000)


class TestReleaseMergeOrder:
    """A release at the instant of a heap event is processed in the heap's
    ``(time, kind, sequence)`` order, although releases never enter the heap:
    completions and platform events first, then the release, then wake-ups.
    The platform-event case is in ``tests/test_engine_dynamic.py``."""

    @pytest.mark.parametrize(
        "wake_at, releases, first_at_2",
        [
            # A WAKEUP at 2 and a release at 2: the release goes first, so
            # the consultation the wake-up triggers already sees both tasks.
            (2.0, [0.0, 2.0], (2.0, 2, 0)),
            # Task 0 computes over [1, 2], task 1 waits for the free worker
            # and task 2 is released at 2: the COMPUTE_COMPLETE goes first,
            # so its consultation sees two releases and one completion.
            (0.0, [0.0, 1.0, 2.0], (2.0, 2, 1)),
        ],
        ids=["wakeup", "compute-complete"],
    )
    def test_release_at_the_instant_of_a_heap_event(
        self, wake_at, releases, first_at_2
    ):
        platform = Platform.from_times([1.0], [1.0])
        scheduler = FreeWorkerScheduler(wake_at)
        simulate(scheduler, platform, TaskSet.from_releases(releases))
        at_2 = [entry for entry in scheduler.consulted if entry[0] == 2.0]
        assert at_2[0] == first_at_2


def record_decisions(scheduler):
    """Wrap ``scheduler.decide`` to record ``(now, n_completed, backlogs,
    decision)`` at each consultation; returns the (growing) record list."""
    decide = scheduler.decide
    consulted = []

    def recording_decide(view):
        decision = decide(view)
        consulted.append(
            (
                view.now,
                view.n_completed,
                tuple(worker.backlog for worker in view.workers),
                decision,
            )
        )
        return decision

    scheduler.decide = recording_decide
    return consulted


class TestSameInstantCompletions:
    """In-flight sends are not heap entries, but a send completion keeps
    its place in the ``(time, kind)`` order: after a compute completion of
    the same instant, before a platform event, a release or a wake-up."""

    def test_compute_completion_is_processed_before_a_same_instant_send(self):
        # At t=2 worker 0 finishes task 0 and the send of task 1 to worker 1
        # ends.  The compute completion goes first, so SRPT sees worker 0
        # free and starts a second send while the first one is still in
        # flight; processed the other way round it would see both workers
        # busy and wait.
        scheduler = create_scheduler("SRPT")
        consulted = record_decisions(scheduler)
        schedule = simulate(
            scheduler, Platform.from_times([1.0, 1.0], [1.0, 1.0]), all_at_zero(3)
        )
        assert consulted == [
            (0.0, 0, (0, 0), Decision.assign(0, 0)),
            (1.0, 0, (1, 0), Decision.assign(1, 1)),
            (2.0, 1, (0, 1), Decision.assign(2, 0)),
        ]
        assert (schedule[2].send_start, schedule[1].send_end) == (2.0, 2.0)
        assert schedule[2].compute_end == 4.0


class TestConsultationCounts:
    """``decide`` calls per paper heuristic.  The engine consults after every
    event that leaves the port free with a task pending, and after no
    other: releases that arrive behind a busy port are taken together, and
    that must neither add nor drop a consultation.  Waiting heuristics
    (SRPT, the bounded round-robins) are consulted more often than there
    are tasks."""

    PLATFORM = Platform.from_times([0.2, 0.4, 0.3], [5.0, 3.0, 8.0])

    @pytest.mark.parametrize(
        "tasks, expected",
        [
            (
                all_at_zero(20),
                {"SRPT": 36, "LS": 20, "RR": 33, "RRC": 33, "RRP": 33, "SLJF": 20, "SLJFWC": 20},
            ),
            (
                TaskSet.from_releases([0.25 * (k // 2) for k in range(20)]),
                {"SRPT": 48, "LS": 20, "RR": 37, "RRC": 37, "RRP": 37, "SLJF": 20, "SLJFWC": 20},
            ),
        ],
        ids=["all-at-zero", "staggered"],
    )
    def test_decide_calls_per_heuristic(self, tasks, expected):
        counts = {}
        for name in PAPER_HEURISTICS:
            scheduler = create_scheduler(name)
            consulted = record_decisions(scheduler)
            simulate(scheduler, self.PLATFORM, tasks, expose_task_count=True)
            counts[name] = len(consulted)
        assert counts == expected
