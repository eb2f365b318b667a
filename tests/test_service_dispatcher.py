"""Tests for the batching dispatcher (:mod:`repro.service.dispatcher`)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.executor import execute_request
from repro.service.schema import canonicalize_request
from repro.service.server import response_line


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
    return service.registry.counter(f"service.{name}")


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
        assert service.serve_chunk([make_request(seed=1)])[0]["status"] == "ok"
        assert not hasattr(service, "workers")
        with pytest.raises(ServiceError, match="--shards"):
            ScheduleService(workers=4)

    def test_default_observability_counts_into_the_cache_registry(self):
        cache = LRUResultCache(max_entries=4)
        service = ScheduleService(batch_size=1, cache=cache)
        assert service.registry is cache.registry
        service.serve_chunk([make_request(seed=1), make_request(seed=1)])
        snapshot = cache.registry.snapshot()
        assert snapshot["counters"]["service.responded"] == 2
        assert snapshot["counters"]["cache.hits"] == 1
        assert snapshot["gauges"]["cache.size"] == 1


class TestLifecycle:
    def test_close_is_idempotent_and_safe_without_a_cache(self):
        with ScheduleService(batch_size=2) as service:
            assert service.serve_chunk([make_request(seed=1)])[0]["status"] == "ok"
        service.close()

        cache = LRUResultCache(max_entries=4)
        service = ScheduleService(batch_size=2, cache=cache)
        service.close()
        cache.close()  # closing the service first must not break this
        (response,) = service.serve_chunk([make_request(seed=2)])
        assert response["status"] == "ok"  # still serves after close


class TestResponses:
    def test_one_response_per_request_in_submission_order(self):
        service = ScheduleService(batch_size=4)
        responses = service.serve_chunk(
            [make_request(seed=seed, id=f"r{seed}") for seed in range(5)]
        )
        assert [r["id"] for r in responses] == [f"r{seed}" for seed in range(5)]
        assert all(r["status"] == "ok" for r in responses)
        assert counter(service, "responded") == 5

    def test_malformed_requests_resolve_to_error_responses(self):
        service = ScheduleService(batch_size=2)
        invalid_json, bad, good = service.serve_chunk(
            [
                "this is not json",
                make_request(scheduler="NOPE", id="bad"),
                make_request(id="good"),
            ]
        )
        assert invalid_json["status"] == "error"
        assert invalid_json["error"]["type"] == "request-invalid"
        assert bad["status"] == "error"
        assert bad["id"] == "bad"  # the id survives even when validation fails
        assert good["status"] == "ok"
        assert counter(service, "invalid") == 2

    def test_response_metrics_match_direct_execution(self):
        raw = make_request(seed=5, tasks=15)
        service = ScheduleService(batch_size=1)
        (response,) = service.serve_chunk([raw])
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
        responses = service.serve_chunk(
            [make_request(seed=1, id="a"), make_request(seed=1, id="b")]  # b coalesces
        )
        assert [r["status"] for r in responses] == ["error", "error"]
        assert all(r["error"]["type"] == "execution-error" for r in responses)
        assert "engine bug" in responses[0]["error"]["message"]
        assert counter(service, "failed") == 2

    def test_overflowing_platform_costs_resolve_to_an_execution_error(self):
        # 1e308 is a valid finite cost, but a send starting at time 1e308
        # ends at inf: the event queue rejects that time, and the request
        # must resolve to a typed error instead of hanging or crashing.
        service = ScheduleService(batch_size=2)
        huge, after = service.serve_chunk(
            [
                make_request(
                    tasks=5, id="huge", platform={"comm": [1e308, 1e308], "comp": [1.0, 1.0]}
                ),
                make_request(seed=1, id="after"),
            ]
        )
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
        assert service.serve_chunk([make_request(seed=1)])[0]["status"] == "error"
        # retried, not served stale
        assert service.serve_chunk([make_request(seed=1)])[0]["status"] == "ok"


class TestEviction:
    def test_an_evicted_entry_recomputes_byte_identically(self):
        # A one-entry cache: B evicts A, so A's second request runs its
        # simulation again, and by the determinism contract the recompute
        # is the same response, byte for byte.
        cache = LRUResultCache(max_entries=1)
        service = ScheduleService(batch_size=1, cache=cache)
        first = response_line(service.serve_chunk([make_request(seed=9)])[0])
        service.serve_chunk([make_request(seed=10)])  # evicts A
        again = response_line(service.serve_chunk([make_request(seed=9)])[0])
        assert json.loads(first)["status"] == "ok"
        assert again == first
        assert counter(service, "simulations") == 3
        assert cache.evictions == 2 and cache.hits == 0


class TestBatchMates:
    @pytest.mark.parametrize("batch_size", [8, 1])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_request_does_not_poison_its_batch_mates(self, batch_size):
        # One request overflows its event times to inf and the engine
        # rejects it: it alone becomes an execution-error, and its
        # batch-mates (one of them a coalesced duplicate) come back "ok".
        overflow = {"comm": [1e308, 1e308], "comp": [1.0, 2.0]}
        service = ScheduleService(batch_size=batch_size)
        chunk = []
        for seed in range(4):
            chunk.append(make_request(seed=seed, tasks=12, id=f"r{seed}"))
            if seed == 1:
                chunk.append(make_request(seed=seed, tasks=12, id="bad", platform=overflow))
        chunk.append(make_request(seed=0, tasks=12, id="dup"))  # coalesces
        by_id = {response["id"]: response for response in service.serve_chunk(chunk)}
        assert by_id.pop("bad")["error"]["type"] == "execution-error"
        assert [response["status"] for response in by_id.values()] == ["ok"] * 5
        assert counter(service, "failed") == 1


class TestCoalescing:
    def test_duplicate_in_flight_requests_run_one_simulation(self):
        service = ScheduleService(batch_size=8)
        responses = service.serve_chunk(
            [make_request(seed=1, id=f"dup{index}") for index in range(6)]
        )
        assert counter(service, "simulations") == 1
        assert counter(service, "coalesced") == 5
        payloads = [r["metrics"] for r in responses]
        assert all(p == payloads[0] for p in payloads)
        assert len({r["id"] for r in responses}) == 6

    def test_coalescing_respects_the_canonical_key(self):
        service = ScheduleService(batch_size=4)
        service.serve_chunk(
            [
                make_request(seed=1),
                {**make_request(seed=1), "tasks": {"n": 10.0}},  # same key
                make_request(seed=2),  # different key
            ]
        )
        assert counter(service, "simulations") == 2
        assert counter(service, "coalesced") == 1


class TestCaching:
    def test_cache_serves_repeats_across_batches(self):
        service = ScheduleService(batch_size=1, cache=LRUResultCache(max_entries=8))
        first = service.serve_chunk([make_request(seed=3)])
        second = service.serve_chunk([make_request(seed=3)])
        assert counter(service, "simulations") == 1
        assert service.cache.hits == 1
        assert first[0]["metrics"] == second[0]["metrics"]

    def test_responses_never_alias_the_cached_metrics(self):
        service = ScheduleService(batch_size=4, cache=LRUResultCache())
        first, second = service.serve_chunk(
            [make_request(seed=3, id="a"), make_request(seed=3, id="b")]  # b coalesces
        )
        first["metrics"]["makespan"] = -1.0  # a misbehaving consumer
        assert second["metrics"]["makespan"] != -1.0
        (third,) = service.serve_chunk([make_request(seed=3, id="c")])  # a cache hit
        assert third["metrics"]["makespan"] != -1.0

    def test_cacheless_service_recomputes(self):
        service = ScheduleService(batch_size=1)
        service.serve_chunk([make_request(seed=3)])
        service.serve_chunk([make_request(seed=3)])
        assert counter(service, "simulations") == 2


class TestAdmissionControl:
    def test_cost_budget_sheds_expensive_requests(self):
        service = ScheduleService(batch_size=4, max_cost=50)
        ok, shed = service.serve_chunk(
            [make_request(tasks=10), make_request(tasks=100)]  # costs 20 and 200
        )
        assert ok["status"] == "ok"
        assert shed["status"] == "rejected"
        assert shed["error"]["type"] == "service-overloaded"
        assert "admission budget" in shed["error"]["message"]
        assert counter(service, "rejected") == counter(service, "shed_cost") == 1

class TestChunking:
    @pytest.mark.parametrize("n_requests, pumps", [(0, 0), (1, 1), (4, 1), (5, 2), (9, 3)])
    def test_a_chunk_runs_one_pump_per_batch_size_slice(self, monkeypatch, n_requests, pumps):
        # ceil(n / batch_size) pumps, each handed at most batch_size entries.
        sizes = []
        real_pump = ScheduleService.pump

        def counting_pump(self, batch):
            sizes.append(len(batch))
            return real_pump(self, batch)

        monkeypatch.setattr(ScheduleService, "pump", counting_pump)
        chunk = [make_request(seed=index % 3, id=f"r{index}") for index in range(n_requests)]
        if n_requests > 1:
            chunk[1] = "garbage"  # a pre-resolved entry rides in its slice
        responses = ScheduleService(batch_size=4).serve_chunk(chunk)
        assert len(sizes) == pumps
        assert all(size <= 4 for size in sizes) and sum(sizes) == len(chunk)
        assert len(responses) == len(chunk)
        assert responses == ScheduleService(batch_size=1).serve_chunk(chunk)


class TestConcurrentScrape:
    def test_snapshot_is_consistent_under_concurrent_pumps(self):
        service = ScheduleService(batch_size=2, cache=LRUResultCache(max_entries=16))
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                counters = service.registry.snapshot()["counters"]
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

    def run(self, batch_size):
        with ScheduleService(
            batch_size=batch_size, cache=LRUResultCache(max_entries=16)
        ) as service:
            return service.serve_chunk(self.stream())

    def test_mixed_stream_is_identical_at_batch_1_and_batch_4(self):
        batched = self.run(4)
        assert self.run(1) == batched
        assert [r["status"] for r in batched].count("error") == 2
