"""The engine's per-worker view cache against an uncached rebuild.

:class:`~repro.core.engine.OnePortEngine` keeps the last
:class:`~repro.core.engine.WorkerView` of every worker and hands it out
again while it is still exact, so every mutation of a field the view shows
must clear it.  These properties run all seven paper heuristics on random
platforms, with and without random platform timelines (speed changes,
outages, late joins), through a wrapping scheduler that rebuilds each
worker's view from the engine's worker state at the same instant, without
the cache, and requires the two to be equal.  A mutation that forgets to
clear the cache shows up as a stale view here.

Event and release times sit on a coarse grid so that releases,
completions and platform events often share an instant: the tie-break
order is where a stale cache would hide.
"""

from __future__ import annotations

from typing import List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import Decision, OnePortEngine, WorkerView
from repro.core.platform import Platform
from repro.core.task import TaskSet
from repro.scenarios.events import (
    PlatformEvent,
    PlatformTimeline,
    SpeedChange,
    WorkerDown,
    WorkerJoin,
    WorkerUp,
)
from repro.schedulers.base import PAPER_HEURISTICS, OnlineScheduler, create_scheduler

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

unit_time = st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
grid_time = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.5)
speed = st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0])

platforms = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.builds(
        Platform.from_times,
        st.lists(unit_time, min_size=m, max_size=m),
        st.lists(unit_time, min_size=m, max_size=m),
    )
)

task_sets = st.lists(grid_time, min_size=1, max_size=30).map(TaskSet.from_releases)


@st.composite
def timelines(draw, n_workers: int) -> PlatformTimeline:
    """Random events per worker; every outage ends, worker 0 never joins late."""
    events: List[PlatformEvent] = []
    for worker_id in range(n_workers):
        if worker_id > 0 and draw(st.booleans()):
            events.append(WorkerJoin(draw(grid_time), worker_id))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            events.append(
                SpeedChange(
                    draw(grid_time),
                    worker_id,
                    comm_speed=draw(st.none() | speed),
                    comp_speed=draw(speed),
                )
            )
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            down = draw(grid_time)
            events.append(WorkerDown(down, worker_id))
            events.append(WorkerUp(down + draw(st.sampled_from([0.0, 0.5, 1.0, 4.0])), worker_id))
    return PlatformTimeline(n_workers, events)


def uncached_view(state, now: float) -> WorkerView:
    """A worker's view rebuilt from its engine state, bypassing the cache."""
    return WorkerView(
        worker_id=state.worker.worker_id,
        c=state.eff_c,
        p=state.eff_p,
        ready_time=max(state.ready_time, now) if state.backlog else now,
        backlog=state.backlog,
        completed=state.completed,
        available=state.available,
    )


class CheckingScheduler(OnlineScheduler):
    """Delegates to a paper heuristic after checking every worker view."""

    def __init__(self, inner: OnlineScheduler, engine: OnePortEngine) -> None:
        super().__init__()
        self.inner = inner
        self.engine = engine
        self.name = inner.name
        self.views_checked = 0

    def reset(self, platform, n_tasks_hint=None) -> None:
        super().reset(platform, n_tasks_hint)
        self.inner.reset(platform, n_tasks_hint)

    def decide(self, view):
        assert view.now == self.engine.now
        states = self.engine._workers
        assert len(view.workers) == len(states)
        for worker_view, state in zip(view.workers, states):
            expected = uncached_view(state, view.now)
            assert worker_view == expected, (
                f"stale view of worker {state.worker.worker_id} at t={view.now}: "
                f"got {worker_view}, state says {expected}"
            )
            self.views_checked += 1
        return self.inner.decide(view)


def run_checked(platform: Platform, tasks: TaskSet, timeline=None) -> None:
    """Run every paper heuristic under the checking wrapper."""
    for name in PAPER_HEURISTICS:
        engine = OnePortEngine(platform, tasks, expose_task_count=True, timeline=timeline)
        checker = CheckingScheduler(create_scheduler(name), engine)
        schedule = engine.run(checker)
        assert schedule.is_complete
        assert checker.views_checked >= len(platform)


@_SETTINGS
@given(platform=platforms, tasks=task_sets)
def test_cached_views_match_uncached_rebuild_on_static_platforms(platform, tasks):
    run_checked(platform, tasks)


@_SETTINGS
@given(data=st.data(), platform=platforms, tasks=task_sets)
def test_cached_views_match_uncached_rebuild_under_timelines(data, platform, tasks):
    timeline = data.draw(timelines(len(platform)))
    run_checked(platform, tasks, timeline)


def test_busy_view_is_reused_until_the_worker_changes():
    # A busy worker's view does not depend on the clock, so the engine hands
    # out the same object until a mutation clears it.
    platform = Platform.from_times([1.0, 1.0], [10.0, 10.0])
    engine = OnePortEngine(platform, TaskSet.from_releases([0.0, 0.0, 0.0]))
    seen = []

    class Recorder(OnlineScheduler):
        name = "REC"

        def decide(self, view):
            seen.append(view.workers[0])
            task = view.next_pending
            return Decision.assign(task.task_id, 1 if len(seen) == 2 else 0)

    engine.run(Recorder())
    # t=0: idle view; t=1: worker 0 busy (task 0 sent), task 1 goes to
    # worker 1; t=2: worker 0 unchanged since t=1 -> the very same view.
    assert len(seen) == 3
    assert seen[1].backlog == 1
    assert seen[2] is seen[1]
