"""Tests for the batching dispatcher (:mod:`repro.service.dispatcher`)."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.executor import execute_request
from repro.service.observability import Observability
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


def counter(service, name):
    """One ``service.*`` counter of ``service``'s metrics registry."""
    return service.obs.registry.counter(f"service.{name}")


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 2},
            {"batch_size": 0},
            {"max_cost": 0},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ServiceError):
            ScheduleService(**kwargs)

    def test_workers_keyword_accepts_only_one_and_points_at_shards(self):
        service = ScheduleService(workers=1, batch_size=2)
        service.submit(make_request(seed=1))
        assert service.drain()[0]["status"] == "ok"
        assert not hasattr(service, "workers")
        with pytest.raises(ServiceError, match="--shards"):
            ScheduleService(workers=4)

    def test_default_observability_counts_into_the_cache_registry(self):
        cache = LRUResultCache(max_entries=4)
        service = ScheduleService(batch_size=1, cache=cache)
        assert service.obs.registry is cache.registry
        service.submit(make_request(seed=1))
        service.submit(make_request(seed=1))
        service.drain()
        snapshot = cache.registry.snapshot()
        assert snapshot["counters"]["service.responded"] == 2
        assert snapshot["counters"]["cache.hits"] == 1
        assert snapshot["gauges"]["cache.size"] == 1

    def test_cache_and_observability_on_different_registries_are_rejected(self):
        cache = LRUResultCache(max_entries=4)
        with pytest.raises(ServiceError, match="registry"):
            ScheduleService(cache=cache, observability=Observability())
        shared = Observability(registry=cache.registry)
        assert ScheduleService(cache=cache, observability=shared).obs is shared


class TestLifecycle:
    def test_close_is_idempotent_and_safe_without_a_cache(self):
        with ScheduleService(batch_size=2) as service:
            service.submit(make_request(seed=1))
            assert service.drain()[0]["status"] == "ok"
        service.close()

        cache = LRUResultCache(max_entries=4)
        service = ScheduleService(batch_size=2, cache=cache)
        service.close()
        cache.close()  # closing the service first must not break this
        service.submit(make_request(seed=2))
        assert service.drain()[0]["status"] == "ok"  # still serves after close


class TestResponses:
    def test_one_response_per_request_in_submission_order(self):
        service = ScheduleService(batch_size=4)
        for seed in range(5):
            service.submit(make_request(seed=seed, id=f"r{seed}"))
        responses = service.drain()
        assert [r["id"] for r in responses] == [f"r{seed}" for seed in range(5)]
        assert all(r["status"] == "ok" for r in responses)
        assert counter(service, "responded") == 5

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
        assert counter(service, "invalid") == 2

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
        assert counter(service, "failed") == 2

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
        assert counter(service, "failed") == 1

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
        assert service.cache.hits == 1
        assert counter(service, "simulations") == 2  # warm-up + the expired re-run
        assert cache.expirations == 1


class TestEngineBackend:
    def test_unknown_backend_is_rejected_at_construction(self):
        with pytest.raises(ServiceError):
            ScheduleService(engine_backend="nope")

    @pytest.mark.parametrize("batch_size", [8, 1])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_array_backend_responses_match_reference_exactly(self, batch_size):
        # One request overflows its event times to inf: the engine rejects
        # it, so the array backend's batch raises and falls back to the
        # per-request loop.  Its batch-mates must still come back "ok", and
        # the stream must match the reference backend byte for byte.
        overflow = {"comm": [1e308, 1e308], "comp": [1.0, 2.0]}

        def run(backend):
            service = ScheduleService(batch_size=batch_size, engine_backend=backend)
            for seed in range(4):
                service.submit(make_request(seed=seed, tasks=12, id=f"r{seed}"))
                if seed == 1:
                    service.submit(
                        make_request(seed=seed, tasks=12, id="bad", platform=overflow)
                    )
            service.submit(make_request(seed=0, tasks=12, id="dup"))  # coalesces
            return service.drain()

        array = run("array")
        assert array == run("reference")
        by_id = {response["id"]: response for response in array}
        assert by_id.pop("bad")["error"]["type"] == "execution-error"
        assert [response["status"] for response in by_id.values()] == ["ok"] * 5

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
        assert counter(service, "simulations") == 2


class TestCoalescing:
    def test_duplicate_in_flight_requests_run_one_simulation(self):
        service = ScheduleService(batch_size=8)
        for index in range(6):
            service.submit(make_request(seed=1, id=f"dup{index}"))
        responses = service.drain()
        assert counter(service, "simulations") == 1
        assert counter(service, "coalesced") == 5
        payloads = [r["metrics"] for r in responses]
        assert all(p == payloads[0] for p in payloads)
        assert len({r["id"] for r in responses}) == 6

    def test_coalescing_respects_the_canonical_key(self):
        service = ScheduleService(batch_size=4)
        service.submit(make_request(seed=1))
        service.submit({**make_request(seed=1), "tasks": {"n": 10.0}})  # same key
        service.submit(make_request(seed=2))  # different key
        service.drain()
        assert counter(service, "simulations") == 2
        assert counter(service, "coalesced") == 1


class TestCaching:
    def test_cache_serves_repeats_across_batches(self):
        service = ScheduleService(batch_size=1, cache=LRUResultCache(max_entries=8))
        service.submit(make_request(seed=3))
        first = service.drain()
        service.submit(make_request(seed=3))
        second = service.drain()
        assert counter(service, "simulations") == 1
        assert service.cache.hits == 1
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
        assert counter(service, "simulations") == 2


class TestAdmissionControl:
    def test_cost_budget_sheds_expensive_requests(self):
        service = ScheduleService(batch_size=4, max_cost=50)
        service.submit(make_request(tasks=10))  # cost 20: admitted
        service.submit(make_request(tasks=100))  # cost 200: shed
        ok, shed = service.drain()
        assert ok["status"] == "ok"
        assert shed["status"] == "rejected"
        assert shed["error"]["type"] == "service-overloaded"
        assert "admission budget" in shed["error"]["message"]
        assert counter(service, "rejected") == counter(service, "shed_cost") == 1

    def test_queue_has_no_length_bound(self):
        # Transports bound the backlog themselves (one batch per
        # serve_chunk); the dispatcher admits whatever is submitted.
        service = ScheduleService(batch_size=2)
        for seed in range(300):
            service.submit(make_request(seed=seed % 3, id=f"r{seed}"))
        assert service.pending == 300
        responses = service.drain()
        assert [r["status"] for r in responses] == ["ok"] * 300
        assert counter(service, "rejected") == 0

    def test_pending_gauge_counts_unresolved_requests_at_scrape_time(self):
        service = ScheduleService(batch_size=4)

        def gauge():
            return service.obs.registry.snapshot()["gauges"]["service.pending"]

        service.submit(make_request(seed=1))
        service.submit("broken")  # pre-resolved: not pending
        service.submit(make_request(seed=2))
        assert gauge() == 2
        service.drain()
        assert gauge() == 0


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
        service = ScheduleService(batch_size=4)
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
        assert counter(service, "responded") == n_threads * per_thread

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
                counters = service.obs.registry.snapshot()["counters"]
                # Invariant: every response is accounted for by exactly one
                # outcome counter — a torn snapshot would break the sum.
                if counters["service.responded"] != (
                    counters["service.ok"]
                    + counters["service.invalid"]
                    + counters["service.rejected"]
                    + counters["service.failed"]
                ):
                    errors.append(counters)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for index in range(60):
                service.serve_chunk([make_request(seed=index % 5, id=f"r{index}")])
        finally:
            stop.set()
            thread.join()
        assert not errors
        assert counter(service, "responded") == 60


class TestDeterminism:
    def stream(self):
        """A request mix with duplicates, errors and distinct configs."""
        requests = []
        for index in range(12):
            requests.append(make_request(seed=index % 4, id=f"r{index}"))
        requests.insert(3, "garbage")
        requests.insert(7, make_request(scheduler="NOPE", id="invalid"))
        return requests

    def run(self, engine_backend):
        with ScheduleService(
            batch_size=4,
            cache=LRUResultCache(max_entries=16),
            engine_backend=engine_backend,
        ) as service:
            for raw in self.stream():
                service.submit(raw)
            return service.drain()

    def test_array_backend_matches_reference_on_a_mixed_stream(self):
        reference = self.run("reference")
        assert self.run("array") == reference
        assert [r["status"] for r in reference].count("error") == 2
