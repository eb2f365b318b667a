"""Tests for the batching dispatcher (:mod:`repro.service.dispatcher`)."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.executor import execute_request
from repro.service.schema import canonicalize_request


def make_request(seed=0, tasks=10, scheduler="LS", **extra):
    """One small raw request payload."""
    payload = {
        "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
        "tasks": tasks,
        "scheduler": scheduler,
        "seed": seed,
    }
    payload.update(extra)
    return payload


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"batch_size": 0},
            {"batch_size": 8, "max_queue": 4},
            {"max_cost": 0},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ServiceError):
            ScheduleService(**kwargs)

    def test_context_manager_closes_the_pool(self):
        with ScheduleService(workers=2, batch_size=2) as service:
            service.submit(make_request(seed=1))
            service.submit(make_request(seed=2))
            service.drain()
        assert service._pool is None


class TestResponses:
    def test_one_response_per_request_in_submission_order(self):
        service = ScheduleService(batch_size=4)
        for seed in range(5):
            service.submit(make_request(seed=seed, id=f"r{seed}"))
        responses = service.drain()
        assert [r["id"] for r in responses] == [f"r{seed}" for seed in range(5)]
        assert all(r["status"] == "ok" for r in responses)
        assert service.stats.responded == 5

    def test_malformed_requests_resolve_to_error_responses(self):
        service = ScheduleService(batch_size=2)
        service.submit("this is not json")
        service.submit(make_request(scheduler="NOPE", id="bad"))
        service.submit(make_request(id="good"))
        invalid_json, bad, good = service.drain()
        assert invalid_json["status"] == "error"
        assert invalid_json["error"]["type"] == "request-invalid"
        assert bad["status"] == "error"
        assert bad["id"] == "bad"  # the id survives even when validation fails
        assert good["status"] == "ok"
        assert service.stats.invalid == 2

    def test_response_metrics_match_direct_execution(self):
        raw = make_request(seed=5, tasks=15)
        service = ScheduleService(batch_size=1)
        service.submit(raw)
        (response,) = service.drain()
        assert response["metrics"] == execute_request(canonicalize_request(raw))


class TestExecutionErrors:
    def test_any_exception_becomes_an_execution_error_response(self, monkeypatch):
        # The one-response-per-request invariant must survive arbitrary
        # executor failures (engine bug, broken pool), not just ReproErrors.
        import repro.service.dispatcher as dispatcher_module

        def explode(request):
            raise ValueError("engine bug")

        monkeypatch.setattr(dispatcher_module, "execute_request", explode)
        service = ScheduleService(batch_size=2)
        service.submit(make_request(seed=1, id="a"))
        service.submit(make_request(seed=1, id="b"))  # coalesced duplicate
        responses = service.drain()
        assert [r["status"] for r in responses] == ["error", "error"]
        assert all(r["error"]["type"] == "execution-error" for r in responses)
        assert "engine bug" in responses[0]["error"]["message"]
        assert service.stats.failed == 2

    def test_overflowing_platform_costs_resolve_to_an_execution_error(self):
        # 1e308 is a valid finite cost, but a send starting at time 1e308
        # ends at inf: the event queue rejects that time, and the request
        # must resolve to a typed error instead of hanging or crashing.
        service = ScheduleService(batch_size=2)
        service.submit(
            make_request(
                tasks=5, id="huge", platform={"comm": [1e308, 1e308], "comp": [1.0, 1.0]}
            )
        )
        service.submit(make_request(seed=1, id="after"))
        huge, after = service.drain()
        assert huge["id"] == "huge"
        assert huge["status"] == "error"
        assert huge["error"]["type"] == "execution-error"
        assert "finite and >= 0" in huge["error"]["message"]
        assert after["status"] == "ok"
        assert service.stats.failed == 1

    def test_failed_results_are_not_cached(self, monkeypatch):
        import repro.service.dispatcher as dispatcher_module

        calls = {"n": 0}
        real = dispatcher_module.execute_request

        def flaky(request):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")
            return real(request)

        monkeypatch.setattr(dispatcher_module, "execute_request", flaky)
        service = ScheduleService(batch_size=1, cache=LRUResultCache())
        service.submit(make_request(seed=1))
        assert service.drain()[0]["status"] == "error"
        service.submit(make_request(seed=1))
        assert service.drain()[0]["status"] == "ok"  # retried, not served stale


class TestWorkerDeath:
    @staticmethod
    def _kill_pool_workers(service):
        for process in service._pool._processes.values():
            process.terminate()
        for process in service._pool._processes.values():
            process.join()

    def test_worker_death_mid_batch_keeps_one_response_per_request(self):
        # Kill the pool's worker processes between two pumps.  Depending on
        # when the executor notices, the next batch fails at submit() (served
        # inline, "ok") or at future.result() (BrokenProcessPool mapped to
        # "execution-error") — either way every request must resolve to
        # exactly one response, in order, and the dead pool must be dropped.
        with ScheduleService(workers=2, batch_size=2) as service:
            service.submit(make_request(seed=1, id="warm1"))
            service.submit(make_request(seed=2, id="warm2"))
            warm = service.drain()
            assert [r["status"] for r in warm] == ["ok", "ok"]
            assert service._pool is not None
            self._kill_pool_workers(service)

            service.submit(make_request(seed=3, id="a"))
            service.submit(make_request(seed=4, id="b"))
            responses = service.drain()
            assert [r["id"] for r in responses] == ["a", "b"]
            for response in responses:
                assert response["status"] in ("ok", "error")
                if response["status"] == "error":
                    assert response["error"]["type"] == "execution-error"
            assert service.stats.responded == 4
            assert service.stats.ok + service.stats.failed == 4
            # both recovery paths drop the broken pool
            assert service._pool is None

    def test_service_recovers_with_a_fresh_pool_after_worker_death(self):
        with ScheduleService(workers=2, batch_size=2) as service:
            service.submit(make_request(seed=1))
            service.submit(make_request(seed=2))
            service.drain()
            broken = service._pool
            self._kill_pool_workers(service)
            service.submit(make_request(seed=3, id="dead1"))
            service.submit(make_request(seed=4, id="dead2"))
            service.drain()
            # the broken pool was dropped; the next batch gets a new one
            # and serves normally
            service.submit(make_request(seed=5, id="alive1"))
            service.submit(make_request(seed=6, id="alive2"))
            responses = service.drain()
            assert [r["status"] for r in responses] == ["ok", "ok"]
            assert service._pool is not broken


class TestTTLExpiry:
    def test_ttl_expiry_racing_a_coalesced_duplicate(self):
        # Two identical requests land in one batch while their cached entry
        # is mid-expiry: the first get() still hits, the clock then crosses
        # the TTL, and the duplicate's get() expires.  The expired duplicate
        # must recompute (not serve stale, not crash on the vanished entry)
        # and, by the determinism contract, produce the identical metrics.
        ticks = iter([0.0, 5.0, 15.0, 20.0])
        cache = LRUResultCache(max_entries=8, ttl=10.0, clock=lambda: next(ticks))
        service = ScheduleService(batch_size=4, cache=cache)
        service.submit(make_request(seed=9, id="warm"))  # put at t=0
        service.drain()
        service.submit(make_request(seed=9, id="hit"))  # get at t=5: fresh
        service.submit(make_request(seed=9, id="expired"))  # get at t=15: expired
        hit, expired = service.drain()
        assert hit["status"] == "ok" and expired["status"] == "ok"
        assert hit["metrics"] == expired["metrics"]
        assert service.stats.cache_hits == 1
        assert service.stats.simulations == 2  # warm-up + the expired re-run
        assert cache.expirations == 1


class TestEngineBackend:
    def test_unknown_backend_is_rejected_at_construction(self):
        with pytest.raises(ServiceError):
            ScheduleService(engine_backend="nope")

    def test_array_backend_responses_match_reference_exactly(self):
        def run(backend):
            service = ScheduleService(batch_size=8, engine_backend=backend)
            for seed in range(4):
                service.submit(make_request(seed=seed, tasks=12, id=f"r{seed}"))
            service.submit(make_request(seed=0, tasks=12, id="dup"))  # coalesces
            return service.drain()

        assert run("array") == run("reference")

    def test_array_backend_falls_back_per_request_on_batch_failure(self, monkeypatch):
        # run_batch is all-or-nothing; a poisoned batch must degrade to the
        # serial path so healthy requests still succeed and only the broken
        # one maps to an execution-error.
        import repro.service.dispatcher as dispatcher_module

        def explode(requests, backend="array"):
            raise RuntimeError("batched kernel failure")

        monkeypatch.setattr(dispatcher_module, "execute_batch", explode)
        service = ScheduleService(batch_size=4, engine_backend="array")
        service.submit(make_request(seed=1, id="a"))
        service.submit(make_request(seed=2, id="b"))
        responses = service.drain()
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert service.stats.simulations == 2


class TestWorkerPool:
    def test_workers_zero_means_all_cpus_and_matches_serial(self):
        requests = [make_request(seed=s, id=f"r{s}") for s in range(3)]

        def run(workers):
            with ScheduleService(workers=workers, batch_size=4) as service:
                for raw in requests:
                    service.submit(raw)
                responses = service.drain()
                pooled = service._pool is not None
            return responses, pooled

        zero, zero_pooled = run(0)
        serial, serial_pooled = run(1)
        assert zero == serial
        assert zero_pooled and not serial_pooled


class TestCoalescing:
    def test_duplicate_in_flight_requests_run_one_simulation(self):
        service = ScheduleService(batch_size=8)
        for index in range(6):
            service.submit(make_request(seed=1, id=f"dup{index}"))
        responses = service.drain()
        assert service.stats.simulations == 1
        assert service.stats.coalesced == 5
        payloads = [r["metrics"] for r in responses]
        assert all(p == payloads[0] for p in payloads)
        assert len({r["id"] for r in responses}) == 6

    def test_coalescing_respects_the_canonical_key(self):
        service = ScheduleService(batch_size=4)
        service.submit(make_request(seed=1))
        service.submit({**make_request(seed=1), "tasks": {"n": 10.0}})  # same key
        service.submit(make_request(seed=2))  # different key
        service.drain()
        assert service.stats.simulations == 2
        assert service.stats.coalesced == 1


class TestCaching:
    def test_cache_serves_repeats_across_batches(self):
        service = ScheduleService(batch_size=1, cache=LRUResultCache(max_entries=8))
        service.submit(make_request(seed=3))
        first = service.drain()
        service.submit(make_request(seed=3))
        second = service.drain()
        assert service.stats.simulations == 1
        assert service.stats.cache_hits == 1
        assert first[0]["metrics"] == second[0]["metrics"]

    def test_responses_never_alias_the_cached_metrics(self):
        service = ScheduleService(batch_size=4, cache=LRUResultCache())
        service.submit(make_request(seed=3, id="a"))
        service.submit(make_request(seed=3, id="b"))  # coalesced duplicate
        first, second = service.drain()
        first["metrics"]["makespan"] = -1.0  # a misbehaving consumer
        assert second["metrics"]["makespan"] != -1.0
        service.submit(make_request(seed=3, id="c"))  # served from cache
        (third,) = service.drain()
        assert third["metrics"]["makespan"] != -1.0

    def test_cacheless_service_recomputes(self):
        service = ScheduleService(batch_size=1)
        service.submit(make_request(seed=3))
        service.drain()
        service.submit(make_request(seed=3))
        service.drain()
        assert service.stats.simulations == 2


class TestAdmissionControl:
    def test_queue_overflow_is_shed_with_a_typed_response(self):
        service = ScheduleService(batch_size=2, max_queue=2)
        for seed in range(3):
            service.submit(make_request(seed=seed, id=f"r{seed}"))
        responses = service.drain()
        assert [r["status"] for r in responses] == ["ok", "ok", "rejected"]
        assert responses[2]["error"]["type"] == "service-overloaded"
        assert "queue full" in responses[2]["error"]["message"]
        assert service.stats.rejected == 1

    def test_pumping_frees_queue_slots(self):
        service = ScheduleService(batch_size=2, max_queue=2)
        service.submit(make_request(seed=0))
        service.submit(make_request(seed=1))
        assert service.ready()
        service.pump()
        service.submit(make_request(seed=2))  # admitted again after the pump
        responses = service.drain()
        assert service.stats.rejected == 0
        assert len(responses) == 1

    def test_cost_budget_sheds_expensive_requests(self):
        service = ScheduleService(batch_size=4, max_cost=50)
        service.submit(make_request(tasks=10))  # cost 20: admitted
        service.submit(make_request(tasks=100))  # cost 200: shed
        ok, shed = service.drain()
        assert ok["status"] == "ok"
        assert shed["status"] == "rejected"
        assert "admission budget" in shed["error"]["message"]

    def test_invalid_requests_do_not_occupy_queue_slots(self):
        service = ScheduleService(batch_size=2, max_queue=2)
        service.submit("broken")
        service.submit("also broken")
        service.submit(make_request(seed=0))
        service.submit(make_request(seed=1))
        responses = service.drain()
        assert [r["status"] for r in responses] == ["error", "error", "ok", "ok"]
        assert service.stats.rejected == 0


class TestThreadSafety:
    """Regression tests for the drain race the asyncio server exposed.

    The old ``pump`` extracted its batch with two unlocked queue slices
    (``self._entries[:bs]`` then ``self._entries[bs:]``); a ``submit``
    landing between the two evaluations was silently dropped — no
    response, ever.  Both the lost-update and the attribution contracts
    are pinned here.
    """

    def test_concurrent_submit_during_drain_loses_no_request(self):
        # Submitter threads race a continuously-pumping drainer; under the
        # old slicing race this reliably lost entries.  Every submitted id
        # must come back exactly once.
        n_threads, per_thread = 4, 40
        service = ScheduleService(batch_size=4, max_queue=100_000)
        barrier = threading.Barrier(n_threads + 1)

        def submitter(thread_index):
            barrier.wait()
            for index in range(per_thread):
                seed = (thread_index * per_thread + index) % 6
                service.submit(
                    make_request(seed=seed, id=f"t{thread_index}-{index}")
                )

        threads = [
            threading.Thread(target=submitter, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        responses = []
        while any(thread.is_alive() for thread in threads) or service.buffered:
            responses.extend(service.pump())
        for thread in threads:
            thread.join()
        responses.extend(service.drain())

        expected = {
            f"t{t}-{i}" for t in range(n_threads) for i in range(per_thread)
        }
        got = [r["id"] for r in responses]
        assert len(got) == n_threads * per_thread  # nothing lost, nothing doubled
        assert set(got) == expected
        assert service.stats.responded == n_threads * per_thread

    def test_serve_chunk_attributes_responses_to_the_submitting_thread(self):
        # Two threads serve interleaved chunks off one shared service (the
        # asyncio server's executor-thread pattern): each must get exactly
        # its own ids, in its own submission order.
        service = ScheduleService(batch_size=4, cache=LRUResultCache(max_entries=64))
        results = {}
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            mine = []
            for chunk_index in range(8):
                chunk = [
                    make_request(seed=chunk_index % 3, id=f"{name}-{chunk_index}-{i}")
                    for i in range(3)
                ]
                mine.extend(service.serve_chunk(chunk))
            results[name] = mine

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for name in ("a", "b"):
            ids = [r["id"] for r in results[name]]
            assert ids == [
                f"{name}-{chunk}-{i}" for chunk in range(8) for i in range(3)
            ]
            assert all(r["status"] == "ok" for r in results[name])

    def test_snapshot_is_consistent_under_concurrent_pumps(self):
        service = ScheduleService(batch_size=2, cache=LRUResultCache(max_entries=16))
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                snapshot = service.snapshot()
                stats = snapshot["service"]
                # Invariant: every response is accounted for by exactly one
                # outcome counter — a torn snapshot would break the sum.
                if stats["responded"] != (
                    stats["ok"] + stats["invalid"] + stats["rejected"] + stats["failed"]
                ):
                    errors.append(snapshot)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for index in range(60):
                service.serve_chunk([make_request(seed=index % 5, id=f"r{index}")])
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestDeterminism:
    def stream(self):
        """A request mix with duplicates, errors and distinct configs."""
        requests = []
        for index in range(12):
            requests.append(make_request(seed=index % 4, id=f"r{index}"))
        requests.insert(3, "garbage")
        requests.insert(7, make_request(scheduler="NOPE", id="invalid"))
        return requests

    def run(self, workers):
        with ScheduleService(
            workers=workers, batch_size=4, cache=LRUResultCache(max_entries=16)
        ) as service:
            for raw in self.stream():
                service.submit(raw)
            return service.drain()

    def test_worker_pool_matches_serial_exactly(self):
        assert self.run(workers=2) == self.run(workers=1)
