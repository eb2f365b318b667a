"""Tests for shard-by-canonical-key routing (:mod:`repro.service.sharding`).

The property that makes client-side sharding sound: the shard assignment is
a pure function of the request's *canonical* configuration — stable across
spellings, processes, restarts and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service.schema import canonicalize_request, metrics_request
from repro.service.sharding import (
    shard_addresses,
    shard_for_line,
    shard_for_payload,
    shard_index,
    shard_unavailable_response,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_payload(seed=0, tasks=10, scheduler="LS", width=2):
    """One raw request payload with a controllable canonical identity."""
    return {
        "platform": {
            "comm": [0.2 + 0.1 * index for index in range(width)],
            "comp": [1.0 + 0.5 * index for index in range(width)],
        },
        "tasks": tasks,
        "scheduler": scheduler,
        "seed": seed,
    }


# Strategy over semantically-distinct requests: each draw pins the
# canonical identity (seed, task count, scheduler, platform width).
payloads = st.builds(
    make_payload,
    seed=st.integers(min_value=0, max_value=10_000),
    tasks=st.integers(min_value=5, max_value=60),
    scheduler=st.sampled_from(["LS", "SRPT", "RR", "SLJF"]),
    width=st.integers(min_value=1, max_value=4),
)


def equivalent_spellings(payload):
    """Raw variants that canonicalize to the same configuration."""
    spelled_out = dict(payload)
    spelled_out["tasks"] = {"process": "all-at-zero", "n": payload["tasks"]}
    float_count = dict(payload)
    float_count["tasks"] = {"n": float(payload["tasks"])}
    lowercase = dict(payload)
    lowercase["scheduler"] = payload["scheduler"].lower()
    with_metadata = dict(payload)
    with_metadata["id"] = "req-000001"
    with_metadata["arrival"] = 12.5
    reordered = dict(reversed(list(payload.items())))
    return [payload, spelled_out, float_count, lowercase, with_metadata, reordered]


class TestShardAssignmentProperties:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=payloads, n_shards=st.integers(min_value=1, max_value=5))
    def test_equivalent_spellings_route_to_the_same_shard(self, payload, n_shards):
        shards = {
            shard_for_payload(variant, n_shards)
            for variant in equivalent_spellings(payload)
        }
        assert len(shards) == 1
        assert shards == {
            shard_for_line(json.dumps(payload), n_shards)
        }  # line routing agrees with payload routing

    @settings(max_examples=50, deadline=None)
    @given(payload=payloads, n_shards=st.integers(min_value=1, max_value=5))
    def test_assignment_is_in_range_and_repeatable(self, payload, n_shards):
        first = shard_for_payload(payload, n_shards)
        assert 0 <= first < n_shards
        assert shard_for_payload(payload, n_shards) == first

    @settings(max_examples=50, deadline=None)
    @given(payload=payloads)
    def test_single_shard_owns_everything(self, payload):
        assert shard_for_payload(payload, 1) == 0


class TestRestartStability:
    def test_assignment_survives_process_restart_and_hash_seed(self):
        # Satellite 2's restart property: compute the same assignments in
        # fresh interpreters with *different* PYTHONHASHSEED values — a
        # routing scheme leaning on `hash()` would diverge here.
        samples = [make_payload(seed=s, tasks=10 + s % 7) for s in range(16)]
        keys = [canonicalize_request(p).key for p in samples]
        expected = [shard_index(key, 3) for key in keys]
        script = (
            "import json, sys; "
            "from repro.service.sharding import shard_index; "
            "keys = json.loads(sys.argv[1]); "
            "print(json.dumps([shard_index(k, 3) for k in keys]))"
        )
        for hash_seed in ("0", "1", "424242"):
            result = subprocess.run(
                [sys.executable, "-c", script, json.dumps(keys)],
                capture_output=True,
                text=True,
                check=True,
                cwd=REPO_ROOT,
                env={
                    "PYTHONPATH": str(REPO_ROOT / "src"),
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
            )
            assert json.loads(result.stdout) == expected

    def test_known_key_assignment_is_pinned(self):
        # A literal regression pin: if the assignment arithmetic ever
        # changes, every deployed shard topology's cache would be
        # invalidated — make that a loud, reviewed decision.
        key = canonicalize_request(make_payload(seed=7)).key
        assert shard_index(key, 1) == 0
        assert shard_index(key, 3) == int(key[:16], 16) % 3


class TestReachability:
    def test_all_shards_are_reachable_for_a_large_sample(self):
        for n_shards in (2, 3, 5):
            reached = {
                shard_for_payload(make_payload(seed=s, tasks=5 + s % 11), n_shards)
                for s in range(200)
            }
            assert reached == set(range(n_shards))


class TestRoutingEdgeCases:
    def test_metrics_requests_route_to_shard_zero(self):
        assert shard_for_payload(metrics_request(), 5) == 0
        # the retired stats request is just an invalid payload now
        assert shard_for_payload({"type": "stats"}, 5) == 0

    def test_invalid_payloads_route_to_shard_zero(self):
        assert shard_for_payload({"tasks": 10}, 5) == 0  # missing fields
        assert shard_for_line("{not json", 5) == 0

    def test_rejects_nonpositive_shard_counts(self):
        with pytest.raises(ServiceError):
            shard_index("ab" * 32, 0)
        with pytest.raises(ServiceError):
            shard_addresses("127.0.0.1", 7000, 0)

    def test_shard_addresses_are_consecutive_ports(self):
        assert shard_addresses("h", 7000, 3) == [("h", 7000), ("h", 7001), ("h", 7002)]

    def test_shard_unavailable_response_shape(self):
        response = shard_unavailable_response(2, ("h", 7002), request_id="r1")
        assert response["status"] == "error"
        assert response["id"] == "r1"
        assert response["error"]["type"] == "shard-unavailable"
        assert "h:7002" in response["error"]["message"]
