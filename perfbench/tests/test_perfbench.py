"""Self-tests of the benchmark's own arithmetic, generators and trace wrappers.

Run from the checkout root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import stats, workloads  # noqa: E402
from perfbench.tracing import Patcher, SpanRecorder, install  # noqa: E402


# -- percentile rule ------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.samples_beyond(999, 99.0) == 9
    assert stats.highest_supported_percentile(999) == 95.0
    assert stats.highest_supported_percentile(10000) == 99.9
    assert stats.highest_supported_percentile(10) is None


def test_tail_reports_the_supported_percentile_and_count():
    values = [float(v) for v in range(1, 1001)]
    assert stats.tail(values, 99.0) == (99.0, 990.0, 1000)
    assert stats.tail(values[:200], 99.0) == (95.0, 190.0, 200)
    with pytest.raises(ValueError):
        stats.tail(values[:5])


def test_nearest_rank_percentile():
    assert stats.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0


# -- span self time -----------------------------------------------------------------
def test_self_time_subtracts_children_once():
    assert stats.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    assert stats.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.0, 5.5)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert stats.self_time((0.0, 1.0), [(0.0, 1.0), (0.2, 0.4)]) == pytest.approx(0.0)


def test_recorder_self_times_follow_nesting():
    recorder = SpanRecorder()
    outer = [ "outer", 0.0, 10.0, None, "r1"]
    child_a = ["a", 1.0, 4.0, outer, "r1"]
    child_b = ["b", 3.0, 6.0, outer, "r1"]
    grandchild = ["g", 1.5, 2.0, child_a, "r1"]
    recorder.spans = [grandchild, child_a, child_b, outer]
    selfs = recorder.self_times()
    assert selfs[id(outer)] == pytest.approx(5.0)
    assert selfs[id(child_a)] == pytest.approx(2.5)
    assert selfs[id(grandchild)] == pytest.approx(0.5)
    budget = {name: self_s for name, _, _, self_s in recorder.budget()}
    assert budget["outer"] == pytest.approx(5.0)


def test_wrappers_record_parent_and_inherit_request_id(tmp_path):
    recorder = SpanRecorder()

    def inner(x):
        return x + 1

    wrapped_inner = recorder.span("inner")(inner)

    def outer(payload):
        return wrapped_inner(1)

    wrapped_outer = recorder.span("outer", request_of=lambda args: args[0]["id"])(outer)
    assert wrapped_outer({"id": "req-7"}) == 2
    by_name = {span[0]: span for span in recorder.spans}
    assert by_name["inner"][3] is by_name["outer"]
    assert by_name["inner"][4] == "req-7"
    assert by_name["outer"][1] <= by_name["inner"][1] <= by_name["inner"][2] <= by_name["outer"][2]
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0][1] == "inner" and rows[0][4] == 1 and rows[1][4] is None


# -- open-loop accounting ---------------------------------------------------------
def test_latency_is_timed_from_the_due_time_and_failures_miss_the_limit():
    from perfbench.driver import PhaseResult
    from perfbench.run import FAILED_MS, Phase

    n = 1100
    due = [i * 0.01 for i in range(n)]
    sent = list(due)
    sent[1:3] = [0.05, 0.05]  # the generator stalled 40 ms
    received = [t + 0.004 for t in sent]
    received[1:3] = [0.06, 0.07]
    responses = ['{"id":"x","status":"ok"}'] * n
    responses[5] = '{"id":"y","status":"rejected"}'
    received[6], responses[6] = None, None  # timed out
    phase = Phase("busy", 100.0, ["line"] * n, PhaseResult(due, sent, received, responses), limit_ms=50.0)
    assert phase.latency_ms[0] == pytest.approx(4.0)
    assert phase.latency_ms[1:3] == pytest.approx([50.0, 50.0])
    assert phase.latency_ms[5] == phase.latency_ms[6] == FAILED_MS
    assert phase.failed == 2 and not phase.passed
    assert phase.tail_pct == 99.0 and phase.p50 == pytest.approx(4.0)
    assert stats.lateness(due[:3], sent[:3]) == pytest.approx([0.0, 0.04, 0.03])


def test_lateness_never_negative():
    assert stats.lateness([1.0], [0.999]) == [0.0]


def test_backlog_counts_due_but_unanswered_requests():
    due = [0.0, 1.0, 2.0, 3.0]
    received = [0.5, 3.5, 3.6, 3.7]
    assert stats.backlog_at_sends(due, received) == [1, 1, 2, 3]


def test_backlog_growth_flags_an_overloaded_step():
    stable = [3, 4, 3, 5, 4, 3, 4, 3] * 10
    growing = list(range(80))
    assert not stats.backlog_grows(stable, rate=100.0, limit_ms=50.0)
    assert stats.backlog_grows(growing, rate=100.0, limit_ms=50.0)


def test_histogram_delta_is_one_phase():
    before = {"count": 3, "sum": 3.0, "zero": 1, "growth": 1.1, "buckets": {"1": 2}}
    after = {"count": 7, "sum": 9.0, "zero": 1, "growth": 1.1, "buckets": {"1": 3, "5": 3}}
    delta = stats.histogram_delta(before, after)
    assert delta == {"count": 4, "sum": 6.0, "zero": 0, "growth": 1.1, "buckets": {"1": 1, "5": 3}}


def test_histogram_add_sums_chunk_deltas():
    first = {"count": 4, "sum": 6.0, "zero": 0, "growth": 1.1, "buckets": {"1": 1, "5": 3}}
    second = {"count": 2, "sum": 1.0, "zero": 1, "growth": 1.1, "buckets": {"1": 1}}
    assert stats.histogram_add({}, first) == first
    assert stats.histogram_add(first, second) == {
        "count": 6, "sum": 7.0, "zero": 1, "growth": 1.1, "buckets": {"1": 2, "5": 3},
    }


def test_chunks_pool_into_one_operating_point():
    from perfbench.driver import PhaseResult
    from perfbench.run import Phase, operating_points

    def chunk(name, start, latency_s):
        due = [start + i * 0.01 for i in range(300)]
        received = [t + latency_s for t in due]
        phase = Phase(name, 100.0, [name] * 300, PhaseResult(due, list(due), received, ['"status":"ok"'] * 300), 50.0)
        phase.cpu_s, phase.peak_rss_mib = 0.5, 40.0 + start
        phase.scrapes = [({"at": start}, {"at": start + 3})]
        return phase

    phases = [chunk("warmup", 0.0, 0.001)]
    for k in range(1, workloads.CHUNKS + 1):
        phases += [chunk(f"light-{k}", 10.0 * k, 0.001 * k), chunk(f"busy-{k}", 10.0 * k + 5, 0.002)]
    light, busy = operating_points(phases[:-1], 50.0)
    assert light is not None and busy is None
    light, busy = operating_points(phases, 50.0)
    assert light.n == busy.n == 300 * workloads.CHUNKS
    assert light.p50 == pytest.approx(2.0) and busy.p50 == pytest.approx(2.0)
    assert light.cpu_s == pytest.approx(0.5 * workloads.CHUNKS)
    assert busy.peak_rss_mib == 40.0 + 10.0 * workloads.CHUNKS + 5
    assert [before["at"] for before, _ in light.scrapes] == [10.0 * k for k in range(1, workloads.CHUNKS + 1)]


def test_histogram_quantile_interpolates_inside_the_bucket():
    histogram = {"count": 10, "zero": 2, "growth": 2.0, "buckets": {"0": 4, "3": 4}}
    assert stats.histogram_quantile(histogram, 0.1) == 0.0
    assert stats.histogram_quantile(histogram, 0.3) == pytest.approx(2.0 ** 0.125)  # rank 3: 1st of 4 in [1, 2)
    assert stats.histogram_quantile(histogram, 1.0) == pytest.approx(2.0 ** 3.875)  # rank 10: last of 4 in [8, 16)
    assert stats.histogram_quantile({"count": 0}, 0.5) == 0.0


# -- generated inputs -------------------------------------------------------------
def test_same_seed_same_inputs_and_unique_small_never_repeats():
    first = workloads.RequestSource(workloads.UNIQUE_SMALL, 3)
    second = workloads.RequestSource(workloads.UNIQUE_SMALL, 3)
    due, lines = first.phase(200.0, 400, "light")
    assert (due, lines) == second.phase(200.0, 400, "light")
    assert len(lines) == 400
    configs = [json.dumps({k: v for k, v in json.loads(line).items() if k != "id"}, sort_keys=True) for line in lines]
    assert len(set(configs)) == len(configs)
    assert all(b > a for a, b in zip(due, due[1:]))
    assert workloads.RequestSource(workloads.UNIQUE_SMALL, 4).phase(200.0, 400, "light") != (due, lines)


def test_hot_repeat_draws_mostly_from_the_journaled_pool():
    source = workloads.RequestSource(workloads.HOT_REPEAT, 1)
    pool = {json.dumps(config, sort_keys=True) for config in source.pool}
    due, lines = source.phase(2000.0, 6000, "busy")
    assert 2.0 < due[-1] < 4.0
    configs = [json.dumps({k: v for k, v in json.loads(l).items() if k != "id"}, sort_keys=True) for l in lines]
    in_pool = sum(config in pool for config in configs)
    assert 0.95 < in_pool / len(configs) < 1.0
    assert len(source.journal_lines()) == workloads.POOL_SIZE


def test_frozen_workload_constants_are_consistent():
    workloads.validate()
    for workload in workloads.WORKLOADS.values():
        plan = workloads.phase_plan(workload, 40.0)
        for point in ("light", "busy"):
            chunks = [count for name, _, count in plan if name.startswith(point + "-")]
            assert len(chunks) == workloads.CHUNKS
            assert sum(chunks) >= workloads.MIN_PHASE_REQUESTS, (workload.name, point)
        assert [name for name, _, _ in plan[1:5]] == ["light-1", "busy-1", "light-2", "busy-2"]


# -- patching ---------------------------------------------------------------------
def test_patcher_restores_own_and_inherited_attributes():
    module = types.ModuleType("fake")
    module.function = lambda: "original"

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    original_function = module.function
    original_method = Base.__dict__["method"]
    with Patcher() as patcher:
        patcher.patch(module, "function", lambda fn: lambda: "patched " + fn())
        patcher.patch(Child, "method", lambda fn: lambda self: "patched " + fn(self))
        assert module.function() == "patched original"
        assert Child().method() == "patched base"
        assert Base().method() == "base"
    assert module.function is original_function
    assert "method" not in Child.__dict__
    assert Base.__dict__["method"] is original_method


def test_install_restores_every_traced_entry_point():
    import repro.service.async_server as async_server
    import repro.service.dispatcher as dispatcher
    import repro.service.executor as executor
    import repro.service.persistence as persistence
    from repro.core.engine import OnePortEngine
    from repro.core.events import EventQueue
    from repro.service.cache import LRUResultCache
    from repro.service.dispatcher import ScheduleService
    from repro.service.persistence import ShardPersistence
    from perfbench.tracing import decide_classes

    targets = [async_server, dispatcher, executor, persistence, OnePortEngine, EventQueue,
               LRUResultCache, ScheduleService, ShardPersistence]
    targets += decide_classes(workloads.HEURISTICS)
    before = [dict(vars(target)) for target in targets]
    patcher = Patcher()
    install(patcher, SpanRecorder(), workloads.HEURISTICS)
    assert ScheduleService.serve_chunk is not before[targets.index(ScheduleService)]["serve_chunk"]
    patcher.restore()
    for target, saved in zip(targets, before):
        assert dict(vars(target)) == saved, target


def test_baseline_children_answer_like_serve_lines_and_are_reaped(monkeypatch):
    import subprocess

    from perfbench.baseline import baseline_responses, serve_all

    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    source = workloads.RequestSource(workloads.UNIQUE_SMALL, 5)
    lines = [source.probe() for _ in range(3)] + ["not json"]
    expected = baseline_responses(str(ROOT / "src"), lines + lines[:1])
    assert expected == dict(zip(lines, serve_all(str(ROOT / "src"), lines)))
    assert len(started) == 2 and all(process.returncode == 0 for process in started)


def test_traced_simulation_matches_untraced():
    from repro.service.executor import execute_request
    from repro.service.schema import canonicalize_request

    request = canonicalize_request(json.loads(workloads.RequestSource(workloads.UNIQUE_SMALL, 0).probe()))
    expected = execute_request(request)
    recorder = SpanRecorder()
    with Patcher() as patcher:
        install(patcher, recorder, workloads.HEURISTICS)
        import repro.service.executor as executor

        traced = executor.execute_request(request)
    assert traced == expected
    names = {span[0] for span in recorder.spans}
    assert {"executor.build_tasks", "kernel.simulate", "engine.run", "engine.view", "metrics.evaluate"} <= names
    assert recorder.counts["engine.run.units"] == request.n_tasks
    assert recorder.counts["engine.events"] > 0


def test_benchmark_json_matches_the_runner():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in workloads.LAYER_METRICS.items()
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_a_chunk_the_machine_disturbed_is_repeated_once():
    from perfbench.driver import PhaseResult
    from perfbench.run import MAX_REPEATS, STALL_MS, STEAL_LIMIT, Phase, measured, service_phases

    def phase(name, late_s=0.0, steal=0.0):
        due = [i * 0.01 for i in range(1100)]
        sent = [t + late_s for t in due]
        received = [t + 0.003 for t in sent]
        chunk = Phase(name, 85.0, ["line"] * 1100, PhaseResult(due, sent, received, ['"status":"ok"'] * 1100), 100.0)
        chunk.steal_frac = steal
        return chunk

    source = workloads.RequestSource(workloads.UNIQUE_SMALL, 0)
    next_phase = service_phases(workloads.UNIQUE_SMALL, source, 40.0)
    plan = workloads.phase_plan(workloads.UNIQUE_SMALL, 40.0)
    ran = [phase("warmup", late_s=2 * STALL_MS / 1000.0), phase("light-1", late_s=2 * STALL_MS / 1000.0)]
    assert not ran[0].repeated  # the warm-up is never offered again
    assert next_phase(ran)[0] == "busy-1"
    assert ran[1].repeated and measured(ran) == ran[:1]
    ran.append(phase("busy-1", steal=2 * STEAL_LIMIT))
    assert next_phase(ran)[0] == "light-2" and ran[2].repeated
    ran.append(phase("light-2", steal=2 * STEAL_LIMIT))
    spec = next_phase(ran)
    while len(ran) < len(plan):
        ran.append(phase(spec[0], steal=2 * STEAL_LIMIT))
        spec = next_phase(ran)
    assert sum(p.repeated for p in ran) == MAX_REPEATS  # the run's budget of repeats is spent
    # The disturbed chunks come back once each, after the last chunk of the plan.
    assert spec[0] == "light-1"
    ran.append(phase("light-1", late_s=2 * STALL_MS / 1000.0))
    assert next_phase(ran)[0] == "busy-1" and not ran[-1].repeated
    ran.append(phase("busy-1"))
    assert next_phase(ran)[0] == "light-2"
    ran.append(phase("light-2"))
    assert next_phase(ran) is None
    assert len(measured(ran)) == len(plan)
