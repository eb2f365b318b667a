"""Properties of the fault harness's audit (``tools/chaos.py``).

The harness boots real process trees, which no tier-1 test does.  Its
verdict, though, is a pure function of the run's outcome: these tests
feed :func:`audit` hand-built outcomes and check that a healthy one
passes and that each broken invariant yields exactly one failure.  They
also pin the sampled fault schedules and the command-line surface.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
HARNESS = REPO_ROOT / "tools" / "chaos.py"

_spec = importlib.util.spec_from_file_location("fault_harness", HARNESS)
chaos = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chaos)


def request_line(index):
    """One pool request line with a stable id."""
    return json.dumps({"id": f"req-{index}", "tasks": 8, "seed": index})


def ok_response(index):
    """The baseline response line for :func:`request_line`."""
    return json.dumps({"id": f"req-{index}", "status": "ok", "makespan": index})


def error_response(kind, status="error"):
    """A non-ok response line carrying a typed (or untyped) error."""
    return json.dumps({"status": status, "error": {"type": kind}})


UNAVAILABLE = error_response("shard-unavailable")
SHED = error_response("service-overloaded", status="rejected")

LINES = [request_line(index) for index in range(4)]
BASELINE = {f"req-{index}": ok_response(index) for index in range(4)}


def metrics_payload(warm_hits=0, journal_entries=3, max_rss_mib=40.0):
    """One shard's metrics response with the fields the audit reads."""
    return {
        "metrics": {
            "counters": {
                "service.responded": 10,
                "service.shed_cost": 0,
                "cache.hits": 6,
                "cache.misses": 4,
                "cache.warm_hits": warm_hits,
            },
            "gauges": {
                "server.restarts": 0,
                "cache.size": 4,
                "cache.journal_entries": journal_entries,
                "process.max_rss_mib": max_rss_mib,
            },
            "histograms": {
                "service.request_ms": {"p50": 0.2, "p99": 3.0},
                "service.batch_assembly_ms": {"p95": 0.1},
            },
        }
    }


def healthy_outcome():
    """A run in which shard 1 was killed holding 3 results and came back warm."""
    pairs = [(line, ok_response(index)) for index, line in enumerate(LINES)]
    return {
        "pairs": list(pairs),
        "pressure": [],
        "fired": [{"spec": "crash:1@2", "ok": True, "cache_size": 3}],
        "recovery": {"1": {"restarts": 1, "uptime_s": 2.5}},
        "replay": {
            "pairs": list(pairs),
            "degraded_responses": 0,
            "responded": {"1": 2},
        },
        "telemetry": [
            metrics_payload(),
            metrics_payload(warm_hits=2),
            metrics_payload(),
        ],
        "trace_samples": [
            {
                "id": "trace-sample-000",
                "status": "ok",
                "client_ms": 10.0,
                "trace": {
                    "total_ms": 9.5,
                    "spans": [
                        {"name": "simulate", "ms": 9.0},
                        {"name": "serialize", "ms": 0.5},
                    ],
                },
                "attempts": 1,
            }
        ],
        "restart_delays": [chaos.RESTART_BASE_DELAY],
        "client": {"degraded_responses": 0},
    }


def test_healthy_outcome_passes():
    report = chaos.audit(healthy_outcome(), BASELINE, strict=True)
    assert report["failures"] == []
    assert report["verdict"] == "PASSED"
    assert (report["submitted"], report["ok"], report["lost"]) == (4, 4, 0)
    assert report["warm"] == {"1": {"held_at_kill": 3, "warm_hits": 2}}


def break_lost(outcome):
    outcome["pairs"][1] = (LINES[1], None)


def break_byte_identity(outcome):
    outcome["pairs"][2] = (LINES[2], ok_response(7))


def break_typing(outcome):
    outcome["pairs"][0] = (LINES[0], error_response("engine-crash"))


def break_strict(outcome):
    outcome["pairs"][3] = (LINES[3], UNAVAILABLE)


def break_nonok_fraction(outcome):
    for index in range(3):
        outcome["pairs"][index] = (LINES[index], UNAVAILABLE)


def break_pressure(outcome):
    outcome["pressure"] = [(LINES[0], ok_response(0))]


def break_recovery(outcome):
    outcome["recovery"] = {}


def break_warm_restart(outcome):
    outcome["telemetry"][1] = metrics_payload(warm_hits=0)


def break_replay(outcome):
    outcome["replay"]["degraded_responses"] = 1


def break_backoff(outcome):
    outcome["restart_delays"].append(chaos.RESTART_BASE_DELAY * 0.5)


def break_trace_tiling(outcome):
    outcome["trace_samples"][0]["trace"]["spans"][1]["ms"] = 0.4


def break_journal_bound(outcome):
    outcome["telemetry"][2] = metrics_payload(
        journal_entries=chaos.JOURNAL_MAX_ENTRIES + 1
    )


def break_rss_bound(outcome):
    outcome["telemetry"][0] = metrics_payload(max_rss_mib=chaos.RSS_BOUND_MIB + 0.5)


@pytest.mark.parametrize(
    "strict, breaker",
    [
        (False, break_lost),
        (False, break_byte_identity),
        (False, break_typing),
        (True, break_strict),
        (False, break_nonok_fraction),
        (False, break_pressure),
        (False, break_recovery),
        (False, break_warm_restart),
        (False, break_replay),
        (False, break_backoff),
        (False, break_trace_tiling),
        (False, break_journal_bound),
        (False, break_rss_bound),
    ],
    ids=[
        "lost",
        "byte-mismatch",
        "untyped-error",
        "unavailable-under-strict",
        "nonok-fraction",
        "pressure-without-shed",
        "unrecovered-shard",
        "cold-restart",
        "degraded-replay",
        "backoff-floor",
        "trace-tiling",
        "journal-bound",
        "rss-bound",
    ],
)
def test_each_broken_invariant_is_one_failure(strict, breaker):
    outcome = healthy_outcome()
    breaker(outcome)
    report = chaos.audit(outcome, BASELINE, strict=strict)
    assert len(report["failures"]) == 1, report["failures"]
    assert report["verdict"] == "FAILED"


def test_lost_request_is_counted_and_reported():
    outcome = healthy_outcome()
    break_lost(outcome)
    report = chaos.audit(outcome, BASELINE, strict=True)
    assert (report["submitted"], report["responses"], report["lost"]) == (4, 3, 1)


def test_one_degraded_response_is_within_the_default_bound():
    outcome = healthy_outcome()
    break_strict(outcome)
    report = chaos.audit(outcome, BASELINE, strict=False)
    assert report["failures"] == []
    assert report["unavailable"] == 1


def test_pressure_that_shed_passes():
    outcome = healthy_outcome()
    outcome["pressure"] = [(LINES[0], ok_response(0)), (LINES[1], SHED)]
    report = chaos.audit(outcome, BASELINE, strict=True)
    assert report["failures"] == []
    assert report["shed_total"] == report["pressure"]["shed"] == 1


def test_shard_killed_with_an_empty_cache_is_not_expected_warm():
    outcome = healthy_outcome()
    outcome["fired"][0]["cache_size"] = 0
    outcome["telemetry"][1] = metrics_payload(warm_hits=0)
    assert chaos.audit(outcome, BASELINE, strict=True)["failures"] == []


def schedule_args(*argv):
    return chaos.build_parser().parse_args(list(argv))


@pytest.mark.parametrize("seed", range(40))
def test_sampled_duration_schedule_always_crashes(seed):
    schedule = chaos.build_schedule(schedule_args("--duration", "30", "--seed", str(seed)))
    assert any(event.kind == "crash" for event in schedule.events)
    horizon = int(30 * 100 * chaos.FAULT_HORIZON)
    assert all(event.at_request <= horizon for event in schedule.events)


@pytest.mark.parametrize("mode", [("--duration", "30"), ("--requests", "300")])
def test_same_seed_same_schedule(mode):
    first = chaos.build_schedule(schedule_args(*mode, "--seed", "7"))
    second = chaos.build_schedule(schedule_args(*mode, "--seed", "7"))
    assert first.to_specs() == second.to_specs()


def test_explicit_specs_are_taken_verbatim():
    args = schedule_args("--duration", "30", "--specs", "stall:2@100:1")
    assert chaos.build_schedule(args).to_specs() == ["stall:2@100:1"]


def test_command_line_has_at_most_nine_flags():
    flags = [
        action.option_strings[0]
        for action in chaos.build_parser()._actions  # noqa: SLF001
        if action.option_strings and action.dest != "help"
    ]
    assert len(flags) <= 9, flags


class StubClient:
    """Answers every line at once, except ``"hang"``, which never resolves."""

    async def submit(self, line):
        future = asyncio.get_running_loop().create_future()
        if line != "hang":
            future.set_result(f"answer {line}")
        return future


async def lines_of(*lines):
    for line in lines:
        yield line


def test_pump_returns_a_hung_request_as_lost(monkeypatch):
    monkeypatch.setattr(chaos, "DRAIN_TIMEOUT", 0.05)
    pairs = asyncio.run(chaos.pump(StubClient(), lines_of("a", "hang", "b"), window=8))
    assert pairs == [("a", "answer a"), ("hang", None), ("b", "answer b")]


def test_pump_stops_submitting_when_the_window_stays_full(monkeypatch):
    monkeypatch.setattr(chaos, "DRAIN_TIMEOUT", 0.05)
    pairs = asyncio.run(chaos.pump(StubClient(), lines_of("hang", "a"), window=1))
    assert pairs == [("hang", None)]


def test_count_mode_fires_each_event_before_its_trigger_request():
    fired = []
    submitted = []

    async def fire(event):
        fired.append((event.to_spec(), len(submitted)))

    async def go():
        schedule = chaos.FaultSchedule.from_specs(["crash:1@2", "drop:0@0"])
        async for line in chaos.stream(["a", "b", "c"], schedule, fire, None):
            submitted.append(line)

    asyncio.run(go())
    assert submitted == ["a", "b", "c"]
    assert fired == [("drop:0@0", 0), ("crash:1@2", 2)]
