"""Unit tests for the task model (:mod:`repro.core.task`)."""

from __future__ import annotations

import math

import pytest

from repro.core.task import Task, TaskSet, identical_tasks
from repro.exceptions import TaskError


class TestTask:
    def test_defaults_are_identical_task(self):
        task = Task(release=0.0, task_id=0)
        assert task.comm_factor == 1.0
        assert task.comp_factor == 1.0
        assert task.is_identical

    def test_negative_id_rejected(self):
        with pytest.raises(TaskError):
            Task(release=0.0, task_id=-1)

    def test_negative_release_rejected(self):
        with pytest.raises(TaskError):
            Task(release=-0.5, task_id=0)

    def test_non_finite_release_rejected(self):
        with pytest.raises(TaskError):
            Task(release=math.inf, task_id=0)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_comm_factor_rejected(self, factor):
        with pytest.raises(TaskError):
            Task(release=0.0, task_id=0, comm_factor=factor)

    @pytest.mark.parametrize("factor", [0.0, -2.0, math.nan])
    def test_invalid_comp_factor_rejected(self, factor):
        with pytest.raises(TaskError):
            Task(release=0.0, task_id=0, comp_factor=factor)

    def test_ordering_follows_release_then_id(self):
        early = Task(release=0.0, task_id=5)
        late = Task(release=1.0, task_id=0)
        tie_low = Task(release=1.0, task_id=1)
        assert early < late
        assert late < tie_low

    def test_sorted_orders_by_release_then_id_whatever_the_factors(self):
        tasks = [
            Task(2.0, 0, comm_factor=0.5),
            Task(1.0, 3, comp_factor=4.0),
            Task(1.0, 1, comm_factor=9.0, comp_factor=9.0),
            Task(0.0, 2, comp_factor=0.1),
        ]
        assert [(t.release, t.task_id) for t in sorted(tasks)] == [
            (0.0, 2), (1.0, 1), (1.0, 3), (2.0, 0)
        ]

    def test_size_factors_take_part_in_equality_and_hash(self):
        task = Task(release=1.0, task_id=0)
        assert task == Task(1.0, 0, 1.0, 1.0)
        assert hash(task) == hash(Task(1.0, 0, 1.0, 1.0))
        assert task != task.perturbed(1.1, 1.0)
        assert task != task.perturbed(1.0, 0.9)
        assert len({task, task.perturbed(1.1, 1.0), task.perturbed(1.0, 0.9)}) == 3

    def test_perturbed_copy(self):
        task = Task(release=2.0, task_id=3)
        perturbed = task.perturbed(1.1, 0.9)
        assert perturbed.comm_factor == 1.1
        assert perturbed.comp_factor == 0.9
        assert perturbed.release == task.release
        assert perturbed.task_id == task.task_id
        assert not perturbed.is_identical


class TestTaskSet:
    def test_iteration_is_fifo_order(self):
        tasks = TaskSet(
            [Task(release=2.0, task_id=0), Task(release=0.0, task_id=1), Task(release=2.0, task_id=2)]
        )
        assert [t.task_id for t in tasks] == [1, 0, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TaskError):
            TaskSet([Task(release=0.0, task_id=1), Task(release=1.0, task_id=1)])

    def test_by_id_lookup(self):
        tasks = TaskSet.from_releases([0.0, 1.0, 2.0])
        assert tasks.by_id(2).release == 2.0
        with pytest.raises(TaskError):
            tasks.by_id(99)

    def test_contains(self):
        tasks = TaskSet.from_releases([0.0, 1.0])
        assert 0 in tasks
        assert 5 not in tasks

    def test_from_releases_sorts_and_renumbers(self):
        tasks = TaskSet.from_releases([3.0, 1.0, 2.0])
        assert tasks.releases == [1.0, 2.0, 3.0]
        assert tasks.task_ids == [0, 1, 2]

    def test_from_releases_builds_the_tasks_the_constructor_would(self):
        releases = [2.0, 0, 1.5, 0.0, 2.0]
        built = TaskSet.from_releases(releases)
        expected = TaskSet(Task(float(r), i) for i, r in enumerate(sorted(releases)))
        assert list(built) == list(expected)
        assert all(type(t) is Task and type(t.release) is float for t in built)
        assert [built.by_id(i) for i in range(5)] == list(expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_from_releases_rejects_invalid_releases(self, bad):
        with pytest.raises(TaskError, match="must be finite and non-negative"):
            TaskSet.from_releases([0.0, bad, 1.0])

    def test_total_release_time(self):
        tasks = TaskSet.from_releases([0.0, 1.5, 2.5])
        assert tasks.total_release_time == pytest.approx(4.0)

    def test_first_and_last_release(self):
        tasks = TaskSet.from_releases([5.0, 1.0, 3.0])
        assert tasks.first_release == 1.0
        assert tasks.last_release == 5.0

    def test_empty_set_has_no_first_release(self):
        tasks = TaskSet([])
        assert len(tasks) == 0
        with pytest.raises(TaskError):
            _ = tasks.first_release

    def test_all_identical_flag(self):
        tasks = TaskSet.from_releases([0.0, 0.0])
        assert tasks.all_identical
        perturbed = tasks.with_factors(comm_factors=[1.0, 1.2])
        assert not perturbed.all_identical

    def test_with_factors_positional_matching(self):
        tasks = TaskSet.from_releases([0.0, 1.0, 2.0])
        modified = tasks.with_factors(comm_factors=[1.1, 1.2, 1.3], comp_factors=[0.9, 0.8, 0.7])
        assert [t.comm_factor for t in modified] == [1.1, 1.2, 1.3]
        assert [t.comp_factor for t in modified] == [0.9, 0.8, 0.7]

    def test_with_factors_wrong_length_rejected(self):
        tasks = TaskSet.from_releases([0.0, 1.0])
        with pytest.raises(TaskError):
            tasks.with_factors(comm_factors=[1.0])
        with pytest.raises(TaskError):
            tasks.with_factors(comp_factors=[1.0, 1.0, 1.0])

    def test_equality(self):
        assert TaskSet.from_releases([0.0, 1.0]) == TaskSet.from_releases([0.0, 1.0])
        assert TaskSet.from_releases([0.0, 1.0]) != TaskSet.from_releases([0.0, 2.0])


class TestIdenticalTasks:
    def test_bag_of_tasks(self):
        tasks = identical_tasks(5)
        assert len(tasks) == 5
        assert all(t.release == 0.0 for t in tasks)

    def test_interarrival_spacing(self):
        tasks = identical_tasks(4, release=1.0, interarrival=0.5)
        assert tasks.releases == [1.0, 1.5, 2.0, 2.5]

    def test_zero_tasks_allowed(self):
        assert len(identical_tasks(0)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(TaskError):
            identical_tasks(-1)
