"""Unit tests for the one-port engine (:mod:`repro.core.engine`).

The hand-computed scenarios mirror the schedule expressions used throughout
the Section 3 proofs (e.g. two tasks on the same slave complete at
``max(c + 2p, 2c + p)``), so the engine's semantics are pinned to the
paper's model rather than to its own implementation.
"""

from __future__ import annotations

import pytest

from repro.core.engine import Decision, OnePortEngine, simulate
from repro.core.platform import Platform
from repro.core.task import TaskSet
from repro.exceptions import (
    InvalidDecisionError,
    SchedulingError,
    SchedulingStalledError,
)
from repro.schedulers.base import OnlineScheduler
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
        return Decision.assign(self._fifo_task(view), 0)


class StallingScheduler(OnlineScheduler):
    """Always refuses to act (used to exercise the stall detection)."""

    name = "STALL"

    def decide(self, view):
        return Decision.wait()


class BadWorkerScheduler(OnlineScheduler):
    name = "BAD-WORKER"

    def decide(self, view):
        return Decision.assign(self._fifo_task(view), 99)


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
    def test_stalled_scheduler_detected(self):
        platform = Platform.from_times([1.0], [1.0])
        with pytest.raises(SchedulingStalledError):
            simulate(StallingScheduler(), platform, all_at_zero(2))

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

    def test_event_budget_guard(self):
        platform = Platform.from_times([1.0], [1.0])
        engine = OnePortEngine(platform, all_at_zero(2), max_events=1)
        with pytest.raises(SchedulingError):
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
                return Decision.assign(self._fifo_task(view), 0)

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
                (view.now, view.n_released, len(view.pending), decision.task_id, decision.worker_id)
            )
            return decision

        scheduler.decide = recording_decide
        platform = Platform.from_times([1.0, 2.0], [3.0, 1.0])
        simulate(scheduler, platform, all_at_zero(5), expose_task_count=True)
        assert consulted == [
            (0.0, 1, 1, 0, 1),
            (2.0, 5, 4, 1, 0),
            (3.0, 5, 3, 2, 1),
            (5.0, 5, 2, 3, 1),
            (7.0, 5, 1, 4, 1),
        ]
