"""Unit tests for the off-line brute-force reference (:mod:`repro.schedulers.offline`)."""

from __future__ import annotations

import math

import pytest

from repro.core.metrics import Objective, makespan, max_flow, sum_flow
from repro.core.platform import Platform
from repro.core.task import TaskSet
from repro.exceptions import SchedulingError
from repro.schedulers.offline import (
    OrderedAssignmentScheduler,
    enumerate_schedule_values,
    optimal_schedule,
    optimal_value,
    optimal_values,
)
from repro.workloads.release import all_at_zero


@pytest.fixture
def theorem1_platform():
    return Platform.from_times([1.0, 1.0], [3.0, 7.0])


class TestEnumeration:
    def test_candidate_count(self, theorem1_platform):
        tasks = all_at_zero(3)
        candidates = list(enumerate_schedule_values(theorem1_platform, tasks))
        assert len(candidates) == math.factorial(3) * 2 ** 3

    def test_size_guard(self, theorem1_platform):
        with pytest.raises(SchedulingError):
            list(enumerate_schedule_values(theorem1_platform, all_at_zero(9)))

    def test_empty_instance_rejected(self, theorem1_platform):
        with pytest.raises(SchedulingError):
            list(enumerate_schedule_values(theorem1_platform, TaskSet([])))

    def test_solution_value_accessor(self, theorem1_platform):
        solution = next(iter(enumerate_schedule_values(theorem1_platform, all_at_zero(1))))
        assert solution.value(Objective.MAKESPAN) == solution.makespan
        assert solution.value(Objective.SUM_FLOW) == solution.sum_flow
        assert solution.value(Objective.MAX_FLOW) == solution.max_flow


class TestOptimalValues:
    def test_single_task_optimum(self, theorem1_platform):
        # One task: best is c + p1 = 4 (Theorem 1 proof).
        tasks = all_at_zero(1)
        assert optimal_value(theorem1_platform, tasks, Objective.MAKESPAN) == pytest.approx(4.0)

    def test_theorem1_two_task_optimum(self, theorem1_platform):
        # Both tasks on P1: max(c + 2p1, 2c + p1) = 7 (Theorem 1 proof).
        tasks = TaskSet.from_releases([0.0, 1.0])
        assert optimal_value(theorem1_platform, tasks, Objective.MAKESPAN) == pytest.approx(7.0)

    def test_theorem1_three_task_optimum(self, theorem1_platform):
        # First task on P2, the two others on P1: makespan 8 (Theorem 1 proof).
        tasks = TaskSet.from_releases([0.0, 1.0, 2.0])
        assert optimal_value(theorem1_platform, tasks, Objective.MAKESPAN) == pytest.approx(8.0)

    def test_theorem6_sum_flow_optimum(self):
        # Theorem 6: p=3, c1=1, c2=2; i at 0, j,k,l at 2; optimal sum-flow 22.
        platform = Platform.from_times([1.0, 2.0], [3.0, 3.0])
        tasks = TaskSet.from_releases([0.0, 2.0, 2.0, 2.0])
        assert optimal_value(platform, tasks, Objective.SUM_FLOW) == pytest.approx(22.0)

    def test_all_objectives_at_once(self, theorem1_platform):
        tasks = TaskSet.from_releases([0.0, 1.0])
        values = optimal_values(theorem1_platform, tasks)
        assert values[Objective.MAKESPAN] == pytest.approx(7.0)
        assert values[Objective.SUM_FLOW] <= values[Objective.MAKESPAN] * 2
        for objective in Objective:
            assert values[objective] == pytest.approx(
                optimal_value(theorem1_platform, tasks, objective)
            )

    def test_optimum_never_beats_lower_bound(self, theorem1_platform):
        # Any schedule needs at least c + p_fastest for the last task.
        tasks = all_at_zero(4)
        value = optimal_value(theorem1_platform, tasks, Objective.MAKESPAN)
        assert value >= 1.0 + 3.0


class TestOptimalSchedule:
    def test_schedule_matches_reported_value(self, theorem1_platform):
        tasks = TaskSet.from_releases([0.0, 1.0, 2.0])
        schedule, value = optimal_schedule(theorem1_platform, tasks, Objective.MAKESPAN)
        schedule.validate()
        assert makespan(schedule) == pytest.approx(value)

    def test_schedule_is_feasible_for_all_objectives(self, theorem1_platform):
        tasks = TaskSet.from_releases([0.0, 0.5])
        for objective, metric in (
            (Objective.MAKESPAN, makespan),
            (Objective.SUM_FLOW, sum_flow),
            (Objective.MAX_FLOW, max_flow),
        ):
            schedule, value = optimal_schedule(theorem1_platform, tasks, objective)
            schedule.validate()
            assert metric(schedule) == pytest.approx(value)


class TestOrderedAssignmentScheduler:
    def test_respects_order_across_releases(self, theorem1_platform):
        # The prescribed order sends the late task first: the scheduler must
        # hold the port until its release.
        from repro.core.engine import simulate

        tasks = TaskSet.from_releases([0.0, 2.0])
        scheduler = OrderedAssignmentScheduler(
            tasks, order=[1, 0], assignment={0: 0, 1: 0}
        )
        schedule = simulate(scheduler, theorem1_platform, tasks)
        schedule.validate()
        assert schedule[1].send_start == pytest.approx(2.0)
        assert schedule[0].send_start >= schedule[1].send_end - 1e-12

    def test_waits_for_a_release_at_the_instant_a_send_completes(
        self, theorem1_platform
    ):
        # Task 0's send ends at t=1, the release date of task 2, which the
        # order names next.  The send completion is processed first, so the
        # consultation it triggers at t=1 sees task 2 not yet released: the
        # replay must wait for the release instead of naming a task that is
        # not pending.
        from repro.core.engine import simulate

        tasks = TaskSet.from_releases([0.0, 0.0, 1.0])
        scheduler = OrderedAssignmentScheduler(
            tasks, order=[0, 2, 1], assignment={0: 0, 1: 1, 2: 0}
        )
        schedule = simulate(scheduler, theorem1_platform, tasks)
        schedule.validate()
        assert [schedule[i].send_start for i in (0, 2, 1)] == [0.0, 1.0, 2.0]

    def test_unknown_task_in_order_rejected(self):
        with pytest.raises(SchedulingError, match="unknown task"):
            OrderedAssignmentScheduler(all_at_zero(2), order=[0, 7], assignment={})

    def test_unknown_worker_in_assignment_rejected(self, theorem1_platform):
        from repro.core.engine import simulate

        tasks = all_at_zero(1)
        scheduler = OrderedAssignmentScheduler(tasks, order=[0], assignment={0: 5})
        with pytest.raises(SchedulingError):
            simulate(scheduler, theorem1_platform, tasks)
