"""Self-healing tests: supervisor auto-restart, client resilience, chaos.

The recovery stack has three layers, each tested at its natural level:

* :class:`repro.service.supervisor.ShardSupervisor` — pure state machine
  under an **injectable clock** and fake process handles: backoff
  sequences, crash-loop give-up, stable-run forgiveness and SIGTERM
  forwarding are asserted without a single real sleep or subprocess;
* :class:`repro.service.sharding.ShardedClient` — against tiny in-process
  asyncio servers that stall, close connections, or die: request
  timeouts, bounded retry, transparent reconnect and the circuit
  breaker's open → degraded → half-open → closed cycle (the degraded
  response must be **byte-identical** to the server's, which is what the
  determinism contract buys);
* the real thing — a ``repro serve --shards 2`` supervisor tree whose
  child is SIGKILLed and must come back serving on its original port,
  restart counter visible through the metrics request type.

:mod:`repro.service.faults` schedules are pinned for determinism: the
same seed must always produce the same chaos.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ServiceError
from repro.service.async_server import AsyncScheduleServer
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.faults import FaultEvent, FaultSchedule
from repro.service.server import response_line
from repro.service.sharding import ShardedClient
from repro.service.supervisor import RestartPolicy, ShardSupervisor

REPO_ROOT = Path(__file__).resolve().parent.parent


def request_line(seed=0, tasks=8, **extra):
    """One JSONL-encoded request."""
    payload = {
        "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
        "tasks": tasks,
        "scheduler": "LS",
        "seed": seed,
    }
    payload.update(extra)
    return json.dumps(payload)


# ---------------------------------------------------------------------------
# RestartPolicy: the backoff arithmetic
# ---------------------------------------------------------------------------
class TestRestartPolicy:
    def test_delay_sequence_doubles_then_caps(self):
        policy = RestartPolicy(
            base_delay=0.5, max_delay=8.0, multiplier=2.0, jitter=0.0
        )
        delays = [policy.delay(k) for k in range(1, 8)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_stays_within_band_and_is_seeded(self):
        import random

        policy = RestartPolicy(base_delay=1.0, max_delay=8.0, jitter=0.2)
        draws = [policy.delay(1, random.Random(42)) for _ in range(20)]
        assert all(0.8 <= d <= 1.2 for d in draws)
        # Same seed, same draw: the restart timeline is replayable.
        assert policy.delay(3, random.Random(7)) == policy.delay(3, random.Random(7))

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ServiceError):
            RestartPolicy(base_delay=0.0)
        with pytest.raises(ServiceError):
            RestartPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ServiceError):
            RestartPolicy(jitter=1.5)
        with pytest.raises(ServiceError):
            RestartPolicy().delay(0)


# ---------------------------------------------------------------------------
# ShardSupervisor: fake processes, fake clock, zero real sleeps
# ---------------------------------------------------------------------------
class FakeProcess:
    """A controllable stand-in for ``subprocess.Popen``."""

    def __init__(self, pid):
        self.pid = pid
        self.exit_code = None
        self.signals = []

    def poll(self):
        return self.exit_code

    def wait(self):
        return self.exit_code

    def send_signal(self, signum):
        self.signals.append(signum)

    def die(self, code=1):
        self.exit_code = code


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_supervisor(n_shards=1, **policy_kwargs):
    """A supervisor over fake processes under a fake clock."""
    policy_kwargs.setdefault("jitter", 0.0)
    policy_kwargs.setdefault("base_delay", 1.0)
    policy_kwargs.setdefault("max_delay", 8.0)
    clock = FakeClock()
    spawned = []

    def spawn(index, restarts):
        process = FakeProcess(pid=1000 + len(spawned))
        spawned.append((index, restarts, process))
        return process

    supervisor = ShardSupervisor(
        spawn,
        n_shards,
        policy=RestartPolicy(**policy_kwargs),
        clock=clock,
        sleep=lambda _s: None,
    )
    return supervisor, clock, spawned


class TestShardSupervisor:
    def test_crash_is_restarted_after_the_backoff_delay(self):
        supervisor, clock, spawned = make_supervisor()
        supervisor.start()
        spawned[0][2].die(1)

        supervisor.poll_once()  # observes the death, schedules the restart
        state = supervisor.shards[0]
        assert state.restart_due == pytest.approx(clock.now + 1.0)
        assert len(spawned) == 1  # not yet respawned

        clock.advance(0.5)
        supervisor.poll_once()
        assert len(spawned) == 1  # backoff not yet elapsed — no hot-loop

        clock.advance(0.6)
        supervisor.poll_once()
        assert len(spawned) == 2
        assert spawned[1][:2] == (0, 1)  # restart count rides into spawn()
        assert supervisor.total_restarts == 1

    def test_backoff_sequence_doubles_across_consecutive_crashes(self):
        supervisor, clock, spawned = make_supervisor(stable_after=1000.0)
        supervisor.start()
        observed = []
        for _ in range(4):
            spawned[-1][2].die(1)
            supervisor.poll_once()
            observed.append(supervisor.shards[0].restart_due - clock.now)
            clock.advance(observed[-1])
            supervisor.poll_once()  # respawn
        assert observed == [1.0, 2.0, 4.0, 8.0]
        assert supervisor.total_restarts == 4

    def test_crash_loop_gives_up_after_max_restarts(self):
        supervisor, clock, spawned = make_supervisor(max_restarts=2)
        supervisor.start()
        for _ in range(2):
            spawned[-1][2].die(1)
            supervisor.poll_once()
            clock.advance(10.0)
            supervisor.poll_once()
        assert supervisor.total_restarts == 2
        spawned[-1][2].die(1)  # third consecutive crash: over the limit
        supervisor.poll_once()
        state = supervisor.shards[0]
        assert state.gave_up
        assert supervisor.poll_once() is None  # terminal: run() would exit
        assert len(spawned) == 3  # never respawned again

    def test_stable_run_resets_the_crash_counter(self):
        supervisor, clock, spawned = make_supervisor(stable_after=30.0)
        supervisor.start()
        spawned[-1][2].die(1)
        supervisor.poll_once()
        clock.advance(2.0)
        supervisor.poll_once()  # respawn; consecutive_crashes == 1
        assert supervisor.shards[0].consecutive_crashes == 1

        clock.advance(31.0)  # child stays up past stable_after
        supervisor.poll_once()
        assert supervisor.shards[0].consecutive_crashes == 0

        spawned[-1][2].die(1)  # the next crash backs off from base again
        supervisor.poll_once()
        assert supervisor.shards[0].restart_due - clock.now == pytest.approx(1.0)

    def test_request_stop_forwards_sigterm_and_cancels_restarts(self):
        supervisor, clock, spawned = make_supervisor(n_shards=3)
        supervisor.start()
        spawned[0][2].die(1)
        supervisor.poll_once()
        assert supervisor.shards[0].restart_due is not None

        supervisor.request_stop()
        assert supervisor.shards[0].restart_due is None
        for index, _restarts, process in spawned[1:]:
            assert signal.SIGTERM in process.signals
        # Children drain and exit 0: the supervisor reaches the terminal
        # state without counting those exits as crashes.
        for _index, _restarts, process in spawned[1:]:
            process.die(0)
        assert supervisor.poll_once() is None
        assert all(
            state.consecutive_crashes <= 1 for state in supervisor.shards
        )

    def test_run_exits_cleanly_on_stop(self):
        clock = FakeClock()
        spawned = []

        def spawn(index, restarts):
            process = FakeProcess(pid=2000 + index)
            spawned.append(process)
            return process

        supervisor = ShardSupervisor(
            spawn,
            2,
            policy=RestartPolicy(jitter=0.0),
            clock=clock,
            sleep=lambda _s: drain(),
        )

        def drain():
            # The injected sleep doubles as the "operator sends SIGTERM"
            # moment: stop, then let every child exit cleanly.
            supervisor.request_stop()
            for process in spawned:
                if process.exit_code is None:
                    process.die(0)

        assert supervisor.run() == 0
        assert all(signal.SIGTERM in process.signals for process in spawned)


# ---------------------------------------------------------------------------
# FaultSchedule: seeded, replayable chaos
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def test_spec_round_trip(self):
        specs = ["crash:1@100", "stall:2@200:1.5", "drop:0@50"]
        schedule = FaultSchedule.from_specs(specs)
        assert sorted(schedule.to_specs()) == sorted(specs)
        assert schedule.shards_touched() == [0, 1, 2]

    def test_malformed_specs_are_rejected(self):
        for bad in ("crash@5", "explode:1@5", "stall:1@5", "crash:x@5"):
            with pytest.raises(ServiceError):
                FaultSchedule.from_specs([bad])

    def test_due_hands_out_each_event_once_in_order(self):
        schedule = FaultSchedule.from_specs(["crash:1@10", "crash:0@5", "drop:2@10"])
        assert schedule.due(4) == []
        assert [e.to_spec() for e in schedule.due(7)] == ["crash:0@5"]
        assert [e.to_spec() for e in schedule.due(10)] == ["crash:1@10", "drop:2@10"]
        assert schedule.due(10_000) == []
        assert schedule.remaining == 0
        schedule.reset()
        assert schedule.remaining == 3

    def test_correlated_bursts_are_deterministic_in_the_seed(self):
        kwargs = dict(n_shards=3, n_requests=500, n_bursts=3)
        first = FaultSchedule.correlated_bursts(7, **kwargs)
        second = FaultSchedule.correlated_bursts(7, **kwargs)
        assert first.events == second.events
        assert first.events  # the model actually schedules something
        for event in first.events:
            assert 0 <= event.shard < 3
            assert 0 <= event.at_request < 500
        # A different seed yields a different burst pattern.
        other = FaultSchedule.correlated_bursts(8, **kwargs)
        assert first.events != other.events

    def test_event_validation(self):
        with pytest.raises(ServiceError):
            FaultEvent(at_request=-1, shard=0)
        with pytest.raises(ServiceError):
            FaultEvent(at_request=0, shard=0, kind="explode")
        with pytest.raises(ServiceError):
            FaultEvent(at_request=0, shard=0, kind="stall", duration=0.0)


# ---------------------------------------------------------------------------
# ShardedClient resilience: timeouts, retry, reconnect, breaker
# ---------------------------------------------------------------------------
async def start_stall_server():
    """A server that accepts and reads but never answers."""

    async def handler(reader, writer):
        try:
            while await reader.readline():
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


async def start_echo_server(port=0, fail_first_connections=0):
    """A JSONL server answering ``{"echo": <id>}`` per line.

    The first ``fail_first_connections`` connections are dropped after one
    received line — the shape that exercises the client's retry path.
    Returns ``(server, address, writers)``; ``writers`` collects the live
    connections so a test can abort them (``Server.close`` only stops
    *listening* — simulating a crash needs the established connections
    severed too).
    """
    state = {"connections": 0}
    writers = []

    async def handler(reader, writer):
        state["connections"] += 1
        writers.append(writer)
        drop_after_one = state["connections"] <= fail_first_connections
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                if drop_after_one:
                    writer.transport.abort()
                    break
                payload = json.loads(raw)
                writer.write(
                    (json.dumps({"echo": payload.get("id")}) + "\n").encode()
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", port)
    return server, server.sockets[0].getsockname()[:2], writers


async def crash_server(server, writers):
    """Stop listening AND sever every live connection — a real crash."""
    server.close()
    await server.wait_closed()
    for writer in writers:
        writer.transport.abort()
    for writer in writers:
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    await asyncio.sleep(0.05)  # let the client's read loop observe it


class TestClientTimeout:
    def test_stalled_shard_resolves_to_typed_timeout_not_a_hang(self):
        async def go():
            server, address = await start_stall_server()
            try:
                async with ShardedClient(
                    [address], request_timeout=0.2
                ) as client:
                    started = time.monotonic()
                    response = await asyncio.wait_for(
                        await client.submit(request_line(id="t0")), timeout=5.0
                    )
                    elapsed = time.monotonic() - started
                    return response, elapsed, client.client_stats()["timeouts"]
            finally:
                server.close()
                await server.wait_closed()

        response_text, elapsed, timeouts = asyncio.run(go())
        response = json.loads(response_text)
        assert response["status"] == "error"
        assert response["error"]["type"] == "shard-timeout"
        assert response["id"] == "t0"
        assert 0.15 <= elapsed < 2.0
        assert timeouts == 1

    def test_timeout_severs_the_connection_so_ordering_cannot_skew(self):
        async def go():
            server, address = await start_stall_server()
            try:
                async with ShardedClient(
                    [address], request_timeout=0.2
                ) as client:
                    futures = [
                        await client.submit(request_line(id=f"t{n}"))
                        for n in range(3)
                    ]
                    return await asyncio.wait_for(
                        asyncio.gather(*futures), timeout=5.0
                    )
            finally:
                server.close()
                await server.wait_closed()

        responses = [json.loads(r) for r in asyncio.run(go())]
        # Every request resolves (no hang), each with a typed error, and
        # ids stay aligned — the severed connection cannot misattribute.
        assert [r["id"] for r in responses] == ["t0", "t1", "t2"]
        assert all(r["status"] == "error" for r in responses)
        assert all(
            r["error"]["type"] in ("shard-timeout", "shard-unavailable")
            for r in responses
        )


class TestClientRetryAndReconnect:
    def test_dropped_connection_is_retried_to_success(self):
        async def go():
            server, address, _ = await start_echo_server(fail_first_connections=1)
            try:
                async with ShardedClient(
                    [address], max_retries=2, retry_backoff=0.01
                ) as client:
                    response = await asyncio.wait_for(
                        await client.submit(request_line(id="r0")), timeout=5.0
                    )
                    return response, client.client_stats()
            finally:
                server.close()
                await server.wait_closed()

        response_text, counters = asyncio.run(go())
        assert json.loads(response_text) == {"echo": "r0"}
        assert counters["retries"] >= 1
        assert counters["reconnects"] >= 1

    def test_client_reconnects_to_a_restarted_shard_on_the_same_port(self):
        async def go():
            server, address, writers = await start_echo_server()
            async with ShardedClient(
                [address], max_retries=3, retry_backoff=0.05
            ) as client:
                first = await asyncio.wait_for(
                    await client.submit(request_line(id="a")), timeout=5.0
                )
                # The shard "crashes" ... and the supervisor brings it back
                # on its original port.
                await crash_server(server, writers)
                server, _, _ = await start_echo_server(port=address[1])
                second = await asyncio.wait_for(
                    await client.submit(request_line(id="b")), timeout=5.0
                )
                server.close()
                await server.wait_closed()
                return first, second, client.client_stats()

        first, second, counters = asyncio.run(go())
        assert json.loads(first) == {"echo": "a"}
        assert json.loads(second) == {"echo": "b"}
        assert counters["reconnects"] >= 1


class TestCircuitBreaker:
    def test_open_breaker_degrades_to_byte_identical_local_execution(self):
        line = request_line(seed=3, id="deg-0")
        with ScheduleService(batch_size=1) as reference:
            (expected,) = reference.serve_chunk([line])
        expected_text = response_line(expected)

        async def go():
            clock = {"now": 0.0}
            server, address, writers = await start_echo_server()
            client = ShardedClient(
                [address],
                breaker_threshold=1,
                breaker_cooldown=60.0,
                time_fn=lambda: clock["now"],
            )
            await client.connect()
            try:
                # Shard dies; the severed connection opens the breaker
                # (threshold 1).
                await crash_server(server, writers)
                assert client.breaker_states() == ["open"]

                degraded = await asyncio.wait_for(
                    await client.submit(line), timeout=10.0
                )
                states_while_open = client.breaker_states()

                # Cooldown elapses (fake clock) and the shard is back: the
                # half-open probe closes the breaker and serving resumes.
                clock["now"] += 61.0
                assert client.breaker_states() == ["half-open"]
                server, _, _ = await start_echo_server(port=address[1])
                recovered = await asyncio.wait_for(
                    await client.submit(request_line(id="after")), timeout=5.0
                )
                closed_states = client.breaker_states()
                server.close()
                await server.wait_closed()
                return degraded, states_while_open, recovered, closed_states, client
            finally:
                await client.close()

        degraded, while_open, recovered, closed, client = asyncio.run(go())
        # The degraded answer is byte-identical to the server-side one: the
        # local execute path runs the same deterministic pipeline.
        assert degraded == expected_text
        assert while_open == ["open"]
        assert json.loads(recovered) == {"echo": "after"}
        assert closed == ["closed"]
        assert client.client_stats()["degraded_responses"] == 1
        assert client.client_stats()["breaker_opens"] >= 1

    def test_degraded_traced_request_carries_a_trace(self):
        # The local service honours the request's own opt-in, as the
        # healthy shard would have.
        async def go():
            server, address, writers = await start_echo_server()
            client = ShardedClient([address], breaker_threshold=1, breaker_cooldown=60.0)
            await client.connect()
            try:
                await crash_server(server, writers)
                assert client.breaker_states() == ["open"]
                line = request_line(seed=4, id="deg-trace", trace=True)
                return await asyncio.wait_for(await client.submit(line), timeout=10.0)
            finally:
                await client.close()

        response = json.loads(asyncio.run(go()))
        assert response["status"] == "ok"
        trace = response["trace"]
        assert trace["trace_id"] == "deg-trace"
        assert abs(sum(span["ms"] for span in trace["spans"]) - trace["total_ms"]) <= 1e-6

    def test_concurrent_degraded_requests_share_one_local_service(self, monkeypatch):
        # Several degraded requests at once must build one local service
        # between them (a slow constructor widens the window in which a
        # second build could start) and still answer byte-identically.
        import repro.service.dispatcher as dispatcher_module

        lines = [request_line(seed=seed % 3, id=f"deg-{seed}") for seed in range(6)]
        with ScheduleService(batch_size=1) as reference:
            expected = [response_line(r) for r in reference.serve_chunk(lines)]
        built = []

        class SlowToBuild(ScheduleService):
            def __init__(self, *args, **kwargs):
                built.append(self)
                time.sleep(0.05)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dispatcher_module, "ScheduleService", SlowToBuild)

        async def go():
            server, address, writers = await start_echo_server()
            client = ShardedClient([address], breaker_threshold=1, breaker_cooldown=60.0)
            await client.connect()
            try:
                await crash_server(server, writers)
                assert client.breaker_states() == ["open"]
                futures = await asyncio.wait_for(
                    asyncio.gather(*(client.submit(line) for line in lines)), timeout=20.0
                )
                return [await future for future in futures], client.client_stats()
            finally:
                await client.close()

        responses, stats = asyncio.run(go())
        assert responses == expected
        assert len(built) == 1
        assert stats["degraded_responses"] == len(lines)

    def test_degraded_answers_are_computed_on_the_event_loop_thread(self, monkeypatch):
        # The first request's connection is dropped, so the failure path
        # opens the breaker (threshold 1) and degrades it; the next two
        # are degraded at submission.  Both paths run the local simulation
        # on the client's own loop, as a shard runs its chunks.
        lines = [request_line(seed=seed, id=f"deg-{seed}") for seed in range(3)]
        with ScheduleService(batch_size=1) as reference:
            expected = [response_line(r) for r in reference.serve_chunk(lines)]
        threads = []
        serve_chunk = ScheduleService.serve_chunk

        def recording(service, raws):
            threads.append(threading.get_ident())
            return serve_chunk(service, raws)

        monkeypatch.setattr(ScheduleService, "serve_chunk", recording)

        async def go():
            server, address, writers = await start_echo_server(fail_first_connections=1)
            client = ShardedClient([address], breaker_threshold=1, breaker_cooldown=60.0)
            await client.connect()
            try:
                first = await asyncio.wait_for(await client.submit(lines[0]), timeout=10.0)
                assert client.breaker_states() == ["open"]
                rest = [
                    await asyncio.wait_for(await client.submit(line), timeout=10.0)
                    for line in lines[1:]
                ]
                return threading.get_ident(), [first, *rest], client.client_stats()
            finally:
                await client.close()
                await crash_server(server, writers)

        loop_thread, responses, stats = asyncio.run(go())
        assert responses == expected
        assert stats["degraded_responses"] == len(lines)
        assert threads and set(threads) == {loop_thread}


class TestMetricsSchemaRoundTrip:
    def test_metrics_payload_carries_restart_and_client_counters(self):
        async def go():
            service = ScheduleService(
                batch_size=4, cache=LRUResultCache(max_entries=16)
            )
            async with AsyncScheduleServer(
                service, shard_index=0, shard_count=1, shard_restarts=2
            ) as server:
                async with ShardedClient([server.address]) as client:
                    await asyncio.wait_for(
                        await client.submit(request_line(id="warm")), timeout=10.0
                    )
                    (payload,) = await client.metrics("health-x")
                    return payload

        payload = asyncio.run(go())
        assert payload["status"] == "ok" and payload["id"] == "health-x"
        metrics = payload["metrics"]
        # Server-side recovery observability: the supervisor's restart
        # count rides through REPRO_SHARD_RESTARTS into the payload.
        assert metrics["shard"] == {"index": 0, "count": 1, "restarts": 2}
        assert metrics["gauges"]["server.restarts"] == 2
        # Client-side: the resilience counters and breaker state.
        client_section = metrics["client"]
        for key in (
            "retries",
            "timeouts",
            "reconnects",
            "degraded_responses",
            "breaker_opens",
            "breaker_state",
        ):
            assert key in client_section, key
        assert client_section["breaker_state"] == "closed"
        assert client_section["retries"] == 0


# ---------------------------------------------------------------------------
# The real thing: a supervised shard tree healing from SIGKILL
# ---------------------------------------------------------------------------
_SPAWN_RE = re.compile(r"shard (\d+)/\d+: \S+ pid=(\d+) restarts=(\d+)")


def _free_base_port(n_shards):
    """A base port with ``n_shards`` consecutive free ports above it."""
    for _ in range(32):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        base = probe.getsockname()[1]
        probe.close()
        try:
            for offset in range(n_shards):
                check = socket.socket()
                check.bind(("127.0.0.1", base + offset))
                check.close()
            return base
        except OSError:
            continue
    raise RuntimeError("no consecutive free port range found")


def _wait_port(port, timeout=20.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise AssertionError(f"port {port} never came up")
            time.sleep(0.05)


class TestSupervisedRestartEndToEnd:
    def test_sigkilled_shard_comes_back_serving_with_restart_count(self):
        base_port = _free_base_port(2)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", f"127.0.0.1:{base_port}", "--shards", "2",
                "--restart-base-delay", "0.1", "--quiet",
            ],
            cwd=REPO_ROOT,
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        pids = {}

        def read_spawn_announcement():
            while True:
                line = process.stderr.readline()
                assert line, "supervisor stderr closed unexpectedly"
                spawn = _SPAWN_RE.search(line)
                if spawn:
                    pids[int(spawn.group(1)) - 1] = int(spawn.group(2))
                    return int(spawn.group(3))

        try:
            first_restarts = [read_spawn_announcement() for _ in range(2)]
            assert first_restarts == [0, 0]
            for offset in range(2):
                _wait_port(base_port + offset)

            os.kill(pids[1], signal.SIGKILL)
            # The supervisor announces the respawn with restarts=1 — on the
            # original port, after the backoff delay.
            assert read_spawn_announcement() == 1
            _wait_port(base_port + 1)

            async def go():
                async with ShardedClient.from_base(
                    "127.0.0.1", base_port, 2, request_timeout=10.0
                ) as client:
                    payloads = await client.metrics()
                    responses = await client.stream(
                        [request_line(seed=s, id=f"r{s}") for s in range(8)]
                    )
                    return payloads, responses

            payloads, responses = asyncio.run(go())
            restarts = [p["metrics"]["shard"]["restarts"] for p in payloads]
            assert restarts == [0, 1]
            assert all(json.loads(r)["status"] == "ok" for r in responses)
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            process.stderr.close()
