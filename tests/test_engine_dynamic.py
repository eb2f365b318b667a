"""Engine behaviour on dynamic platforms (scenario timelines).

The re-pricing contract under test (see ``docs/ARCHITECTURE.md``,
"Scenario timelines"):

* work *started* at time ``t`` is priced at the speeds in effect after every
  timeline event with ``time <= t``;
* a platform event landing exactly on a ``SEND_COMPLETE``/
  ``COMPUTE_COMPLETE`` timestamp never changes in-flight durations;
* unavailable workers accept sends but do not start computations;
* ``Schedule.validate()`` accepts every engine-produced dynamic schedule and
  rejects tampered ones.
"""

from __future__ import annotations

import pytest

from repro.core.engine import Decision, OnePortEngine, simulate
from repro.core.platform import Platform
from repro.core.schedule import Schedule, TaskRecord
from repro.core.task import TaskSet, identical_tasks
from repro.exceptions import InfeasibleScheduleError, SchedulingError
from repro.scenarios import (
    PlatformTimeline,
    SpeedChange,
    WorkerDown,
    WorkerJoin,
    WorkerUp,
)
from repro.schedulers.base import OnlineScheduler
from repro.schedulers.random_policy import FixedAssignmentScheduler, SingleWorkerScheduler


def run_single_worker(platform, tasks, events):
    timeline = PlatformTimeline(len(platform), events)
    return simulate(SingleWorkerScheduler(0), platform, tasks, timeline=timeline)


class _ViewProbe(OnlineScheduler):
    """Records (now, effective p, available) per decision, assigns FIFO to 0."""

    name = "PROBE"

    def __init__(self):
        super().__init__()
        self.observations = []

    def decide(self, view):
        worker = view.worker(0)
        self.observations.append((view.now, worker.p, worker.available))
        return Decision.assign(view.next_pending.task_id, 0)


class TestEventAtCompletionBoundaries:
    """Platform events landing exactly on completion timestamps."""

    def test_event_at_send_complete_spares_inflight_send(self):
        # Send of task 0 covers [0, 1]; the comm slowdown fires exactly at
        # t=1.  The in-flight send keeps duration 1; the next send, started
        # at t=1, is priced at the new speed (duration 2).
        platform = Platform.from_times([1.0], [2.0])
        schedule = run_single_worker(
            platform,
            identical_tasks(2),
            [SpeedChange(1.0, 0, comm_speed=0.5)],
        )
        first, second = schedule[0], schedule[1]
        assert first.send_start == 0.0 and first.send_end == 1.0
        assert second.send_start == 1.0
        assert second.comm_duration == pytest.approx(2.0)
        schedule.validate()

    def test_event_at_compute_complete_spares_inflight_compute(self):
        # Task 0 computes over [0.5, 2.5]; the compute slowdown fires exactly
        # at t=2.5.  Task 0 keeps duration 2; task 1 starts computing at 2.5
        # and is priced at the new speed (duration 4).
        platform = Platform.from_times([0.5], [2.0])
        schedule = run_single_worker(
            platform,
            identical_tasks(2),
            [SpeedChange(2.5, 0, comp_speed=0.5)],
        )
        first, second = schedule[0], schedule[1]
        assert first.comp_duration == pytest.approx(2.0)
        assert second.compute_start == pytest.approx(2.5)
        assert second.comp_duration == pytest.approx(4.0)
        schedule.validate()

    def test_worker_down_at_compute_complete_blocks_next_start_only(self):
        # Worker goes down exactly when task 0 completes (t=2.5): the
        # completion happens, the queued task 1 waits for the recovery.
        platform = Platform.from_times([0.5], [2.0])
        schedule = run_single_worker(
            platform,
            identical_tasks(2),
            [WorkerDown(2.5, 0), WorkerUp(10.0, 0)],
        )
        first, second = schedule[0], schedule[1]
        assert first.compute_end == pytest.approx(2.5)
        assert first.comp_duration == pytest.approx(2.0)
        assert second.compute_start == pytest.approx(10.0)
        assert second.comp_duration == pytest.approx(2.0)
        schedule.validate()

    def test_inflight_compute_runs_across_an_outage(self):
        # Task 0 computes over [0.5, 2.5]; a mid-compute outage [1.0, 1.5]
        # neither interrupts nor stretches it.
        platform = Platform.from_times([0.5], [2.0])
        schedule = run_single_worker(
            platform,
            identical_tasks(1),
            [WorkerDown(1.0, 0), WorkerUp(1.5, 0)],
        )
        assert schedule[0].compute_start == pytest.approx(0.5)
        assert schedule[0].compute_end == pytest.approx(2.5)
        schedule.validate()

    def test_platform_event_at_a_release_goes_first(self):
        # Worker 0 is down over [0, 2] and task 1 is released at 2, the
        # instant of the WorkerUp.  The PLATFORM_EVENT goes first (heap
        # order), so the consultation it triggers sees one released task;
        # the release at 2 then finds the port busy sending task 0.
        platform = Platform.from_times([1.0], [1.0])
        consulted = []

        class WaitForWorker(OnlineScheduler):
            name = "WAIT-FOR-WORKER"

            def decide(self, view):
                worker = view.worker(0)
                consulted.append((view.now, view.n_released, worker.available))
                if not worker.available:
                    return Decision.wait()
                return Decision.assign(view.next_pending.task_id, 0)

        timeline = PlatformTimeline(1, [WorkerDown(0.0, 0), WorkerUp(2.0, 0)])
        tasks = TaskSet.from_releases([0.0, 2.0])
        simulate(WaitForWorker(), platform, tasks, timeline=timeline).validate()
        assert consulted == [(0.0, 1, False), (2.0, 1, True), (3.0, 2, True)]


class TestDynamicBehaviour:
    def test_speed_change_reprices_queued_work(self):
        # Task 0 computes over [0.25, 4.25]; the slowdown at t=3 lands mid-
        # compute, so task 0 keeps its priced duration while the queued
        # task 1 (which starts computing at 4.25, after the event) runs at
        # the degraded speed.
        platform = Platform.from_times([0.25], [4.0])
        schedule = run_single_worker(
            platform,
            identical_tasks(2),
            [SpeedChange(3.0, 0, comp_speed=0.5)],
        )
        first, second = schedule[0], schedule[1]
        assert first.comp_duration == pytest.approx(4.0)
        assert second.compute_start == pytest.approx(4.25)
        assert second.comp_duration == pytest.approx(8.0)
        schedule.validate()

    def test_views_show_effective_speeds(self):
        # Release task 1 after the slowdown: the scheduler's view must show
        # the degraded p at the second decision point.
        platform = Platform.from_times([0.1], [2.0])
        tasks = identical_tasks(2, release=0.0, interarrival=6.0)
        timeline = PlatformTimeline(1, [SpeedChange(3.0, 0, comp_speed=0.5)])
        probe = _ViewProbe()
        schedule = simulate(probe, platform, tasks, timeline=timeline)
        schedule.validate()
        (t0, p0, avail0), (t1, p1, avail1) = probe.observations
        assert (t0, p0, avail0) == (0.0, 2.0, True)
        assert (t1, p1, avail1) == (6.0, 4.0, True)

    def test_view_at_exact_tie_shows_post_event_speeds(self):
        # SEND_COMPLETE and the slowdown both land at t=1; the consultation
        # at t=1 happens before the PLATFORM_EVENT entry pops, yet the view
        # must already show the post-event p (the value the assignment made
        # at that instant is priced with).
        platform = Platform.from_times([1.0], [2.0])
        timeline = PlatformTimeline(1, [SpeedChange(1.0, 0, comp_speed=0.5)])
        probe = _ViewProbe()
        schedule = simulate(probe, platform, identical_tasks(2), timeline=timeline)
        schedule.validate()
        (t0, p0, _), (t1, p1, _) = probe.observations
        assert (t0, p0) == (0.0, 2.0)
        assert (t1, p1) == (1.0, 4.0)

    def test_worker_join_holds_queue_until_join_time(self):
        platform = Platform.from_times([0.5, 0.5], [1.0, 1.0])
        timeline = PlatformTimeline(2, [WorkerJoin(5.0, 1)])
        engine = OnePortEngine(
            platform, identical_tasks(2), timeline=timeline
        )
        view = engine.view()
        assert view.worker(1).available is False
        assert view.worker(0).available is True
        schedule = engine.run(FixedAssignmentScheduler([1, 0]))
        schedule.validate()
        late = schedule[0]       # sent to the not-yet-joined worker 1
        assert late.worker_id == 1
        assert late.send_end == pytest.approx(0.5)   # sends are not blocked
        assert late.compute_start == pytest.approx(5.0)
        early = schedule[1]
        assert early.worker_id == 0
        assert early.compute_start == pytest.approx(1.0)

    def test_trivial_timeline_is_static_fast_path(self):
        platform = Platform.from_times([0.2, 0.6], [1.0, 2.0])
        tasks = identical_tasks(8)
        timeline = PlatformTimeline(2, [])
        dynamic = simulate(SingleWorkerScheduler(0), platform, tasks, timeline=timeline)
        static = simulate(SingleWorkerScheduler(0), platform, tasks)
        assert dynamic.records == static.records
        assert dynamic.timeline is None

    def test_timeline_worker_count_mismatch_rejected(self):
        platform = Platform.from_times([0.2], [1.0])
        timeline = PlatformTimeline(3, [WorkerDown(1.0, 2), WorkerUp(2.0, 2)])
        with pytest.raises(SchedulingError):
            OnePortEngine(platform, identical_tasks(1), timeline=timeline)


class TestDynamicValidation:
    """`Schedule.validate()` must re-check dynamic pricing independently."""

    def _dynamic_schedule(self):
        platform = Platform.from_times([0.5], [2.0])
        timeline = PlatformTimeline(
            1, [WorkerDown(2.5, 0), WorkerUp(10.0, 0), SpeedChange(10.0, 0, comp_speed=0.5)]
        )
        schedule = simulate(
            SingleWorkerScheduler(0), platform, identical_tasks(2), timeline=timeline
        )
        return platform, timeline, schedule

    def test_engine_schedule_passes(self):
        _platform, _timeline, schedule = self._dynamic_schedule()
        schedule.validate()
        assert schedule.is_feasible()

    def _tampered(self, schedule, **overrides):
        records = list(schedule.records)
        target = records[1]
        records[1] = TaskRecord(
            task_id=target.task_id,
            worker_id=target.worker_id,
            release=target.release,
            send_start=overrides.get("send_start", target.send_start),
            send_end=overrides.get("send_end", target.send_end),
            compute_start=overrides.get("compute_start", target.compute_start),
            compute_end=overrides.get("compute_end", target.compute_end),
        )
        return Schedule(
            schedule.platform, schedule.tasks, records, timeline=schedule.timeline
        )

    def test_compute_start_inside_outage_rejected(self):
        _platform, _timeline, schedule = self._dynamic_schedule()
        bad = self._tampered(
            schedule, compute_start=5.0, compute_end=5.0 + schedule[1].comp_duration
        )
        with pytest.raises(InfeasibleScheduleError, match="unavailable"):
            bad.validate()

    def test_stale_pricing_rejected(self):
        # Task 1 computes after the t=10 slowdown, so its duration must be 4;
        # pretending it ran at the base speed must fail under the timeline.
        _platform, _timeline, schedule = self._dynamic_schedule()
        start = schedule[1].compute_start
        bad = self._tampered(schedule, compute_end=start + 2.0)
        with pytest.raises(InfeasibleScheduleError, match="computation lasts"):
            bad.validate()
