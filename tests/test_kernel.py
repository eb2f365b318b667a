"""Tests for the kernel interface layer (:mod:`repro.core.kernel`).

The committed engine digests (``tests/test_engine_digests.py``) prove
backend *parity*; these tests cover the interface itself: job validation,
the lazy result container, the backend registry, the reference backend's
equivalence with the plain :func:`repro.core.engine.simulate` entry point,
and two properties of the array backend that compare it only with itself.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.engine import simulate
from repro.core.kernel import (
    DEFAULT_BACKEND,
    KernelJob,
    KernelResult,
    ReferenceKernel,
    available_backends,
    create_kernel,
    register_backend,
    trace_rows,
)
from repro.core.metrics import evaluate
from repro.core.platform import Platform
from repro.core.task import TaskSet
from repro.exceptions import SchedulingError
from repro.scenarios.events import PlatformTimeline, SpeedChange
from repro.schedulers.base import create_scheduler

_spec = importlib.util.spec_from_file_location(
    "engine_digests", Path(__file__).resolve().parent.parent / "tools" / "engine_digests.py"
)
_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_digests)
grid_cases = _digests.grid_cases


@pytest.fixture()
def platform():
    return Platform.from_times([0.1, 0.3], [1.0, 1.5])


@pytest.fixture()
def tasks():
    return TaskSet.from_releases([0.0] * 8)


class TestKernelJob:
    def test_rejects_an_empty_task_bag(self, platform):
        with pytest.raises(SchedulingError):
            KernelJob("LS", platform, TaskSet.from_releases([]))

    def test_rejects_a_timeline_compiled_for_another_platform(self, platform, tasks):
        timeline = PlatformTimeline(
            3, [SpeedChange(1.0, 0, comm_speed=2.0, comp_speed=2.0)]
        )
        with pytest.raises(SchedulingError):
            KernelJob("LS", platform, tasks, timeline=timeline)

    def test_accepts_a_matching_timeline(self, platform, tasks):
        timeline = PlatformTimeline(
            2, [SpeedChange(1.0, 0, comm_speed=2.0, comp_speed=2.0)]
        )
        job = KernelJob("LS", platform, tasks, timeline=timeline)
        assert job.timeline is timeline

    def test_defaults_expose_the_task_count(self, platform, tasks):
        assert KernelJob("SLJF", platform, tasks).expose_task_count is True


class TestKernelResult:
    def test_needs_a_schedule_or_a_factory(self):
        with pytest.raises(SchedulingError):
            KernelResult(metrics={"makespan": 1.0})

    def test_factory_runs_once_and_is_then_dropped(self, platform, tasks):
        reference = ReferenceKernel().run(KernelJob("LS", platform, tasks))
        calls = []

        def factory():
            calls.append(1)
            return reference.schedule

        lazy = KernelResult(metrics=reference.metrics, schedule_factory=factory)
        assert calls == []  # nothing materialised yet
        assert lazy.schedule is reference.schedule
        assert lazy.trace() == reference.trace()
        assert calls == [1]  # trace() reused the materialised schedule

    def test_metrics_are_copied_in(self):
        metrics = {"makespan": 2.0}
        result = KernelResult(metrics=metrics, schedule_factory=lambda: None)
        metrics["makespan"] = -1.0
        assert result.metrics == {"makespan": 2.0}


class TestReferenceKernel:
    def test_matches_the_plain_simulate_entry_point(self, platform, tasks):
        result = ReferenceKernel().run(KernelJob("SRPT", platform, tasks))
        schedule = simulate(
            create_scheduler("SRPT"), platform, tasks, expose_task_count=True
        )
        assert result.trace() == trace_rows(schedule)
        assert result.metrics == evaluate(schedule).as_dict()

    def test_run_is_a_batch_of_one(self, platform, tasks):
        kernel = ReferenceKernel()
        jobs = [KernelJob("LS", platform, tasks), KernelJob("SRPT", platform, tasks)]
        batched = kernel.run_batch(jobs)
        assert [r.trace() for r in batched] == [kernel.run(j).trace() for j in jobs]


class TestRegistry:
    def test_both_builtin_backends_are_registered(self):
        assert available_backends() == ["array", "reference"]
        assert DEFAULT_BACKEND == "reference"

    def test_lookup_is_case_insensitive(self):
        assert isinstance(create_kernel("Reference"), ReferenceKernel)

    def test_unknown_backend_raises_with_the_available_names(self):
        with pytest.raises(SchedulingError, match="array"):
            create_kernel("nope")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(SchedulingError):
            register_backend("REFERENCE", ReferenceKernel)


def test_array_metrics_match_its_own_materialised_schedule():
    # The lazy KernelResult contract: eagerly-computed metrics must equal
    # evaluate() of the schedule the factory later materialises.
    jobs = grid_cases(scenarios=["node-failure"], seeds=2, n_tasks=30)
    for result in create_kernel("array").run_batch(jobs):
        assert result.metrics == evaluate(result.schedule).as_dict()


def test_single_job_run_equals_batched_run():
    (job,) = grid_cases(
        schedulers=["LS"], scenarios=["flash-crowd"], seeds=1, n_tasks=25
    )
    kernel = create_kernel("array")
    single = kernel.run(job)
    (batched,) = kernel.run_batch([job])
    assert single.metrics == batched.metrics
    assert single.trace() == batched.trace()
