"""Tests for the request schema and canonicalizer (:mod:`repro.service.schema`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import RequestValidationError
from repro.service.schema import (
    RELEASE_PROCESSES,
    SCHEMA_VERSION,
    build_tasks,
    canonicalize_request,
)

VALID = {
    "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
    "tasks": {"process": "all-at-zero", "n": 20},
    "scheduler": "LS",
    "seed": 3,
}


def request(**overrides):
    """A valid request payload with field-level overrides."""
    payload = {key: value for key, value in VALID.items()}
    payload.update(overrides)
    return canonicalize_request(payload)


class TestCanonicalization:
    def test_key_order_never_matters(self):
        a = canonicalize_request(dict(VALID))
        b = canonicalize_request(dict(reversed(list(VALID.items()))))
        assert a.key == b.key

    def test_numeric_spellings_collapse(self):
        a = request(platform={"comm": [0.2, 0.5], "comp": [1, 2]})
        assert a.key == request().key  # 1 vs 1.0 for float-valued fields

    def test_integer_platform_lists_collapse(self):
        ints = request(platform={"comm": [1, 2], "comp": [3, 4]})
        floats = request(platform={"comm": [1.0, 2.0], "comp": [3.0, 4.0]})
        assert ints.key == floats.key
        assert all(type(v) is float for v in ints.config["platform"]["comm"])

    def test_integral_float_task_count_collapses(self):
        assert request(tasks={"n": 20.0}).key == request().key

    def test_numpy_scalars_collapse(self):
        assert request(seed=np.int64(3)).key == request().key
        assert request(tasks={"n": np.float64(20.0)}).key == request().key
        with pytest.raises(RequestValidationError, match="seed"):
            request(seed=np.bool_(True))

    def test_bare_task_count_is_all_at_zero_shorthand(self):
        assert request(tasks=20).key == request().key

    def test_defaults_are_filled_in(self):
        explicit = request(
            tasks={"process": "bursty", "n": 10, "burst_size": 5, "gap": 1.0, "jitter": 0.0}
        )
        implicit = request(tasks={"process": "bursty", "n": 10, "burst_size": 5, "gap": 1.0})
        assert explicit.key == implicit.key

    def test_scheduler_names_case_fold(self):
        assert request(scheduler="sljfwc").key == request(scheduler="SLJFWC").key
        assert request(scheduler="srpt").scheduler == "SRPT"

    def test_metadata_is_excluded_from_the_key(self):
        tagged = request(id="req-1", arrival=12.5)
        assert tagged.key == request().key
        assert tagged.request_id == "req-1"
        assert tagged.arrival == 12.5
        assert "id" not in tagged.config and "arrival" not in tagged.config

    def test_schema_version_is_embedded(self):
        assert request().config["schema_version"] == SCHEMA_VERSION

    def test_derived_properties(self):
        r = request()
        assert r.n_tasks == 20
        assert r.n_workers == 2
        assert r.cost == 40
        assert r.platform().n_workers == 2


class TestValidation:
    @pytest.mark.parametrize(
        "broken, fragment",
        [
            ("not a dict", "must be a JSON object"),
            ({**VALID, "extra": 1}, "unknown field"),
            ({**VALID, "schema_version": 99}, "unsupported schema_version"),
            ({k: v for k, v in VALID.items() if k != "platform"}, "'platform'"),
            ({k: v for k, v in VALID.items() if k != "tasks"}, "'tasks'"),
            ({k: v for k, v in VALID.items() if k != "scheduler"}, "'scheduler'"),
            ({**VALID, "scheduler": "NOPE"}, "unknown scheduler"),
            ({**VALID, "scheduler": 7}, "'scheduler' must be a string"),
            ({**VALID, "seed": -1}, "'seed' must be non-negative"),
            ({**VALID, "seed": 1.5}, "'seed' must be an integer"),
            ({**VALID, "id": 42}, "'id' must be a string"),
            ({**VALID, "arrival": -1.0}, "'arrival' must be non-negative"),
            ({**VALID, "platform": []}, "'platform' must be an object"),
            ({**VALID, "platform": {"comm": [0.2]}}, "missing required field 'comp'"),
            ({**VALID, "platform": {"comm": [0.2], "comp": [1.0], "x": 1}}, "unknown field"),
            ({**VALID, "platform": {"comm": [], "comp": []}}, "non-empty list"),
            ({**VALID, "platform": {"comm": [0.0], "comp": [1.0]}}, "must be positive"),
            ({**VALID, "platform": {"comm": [0.2, 0.5], "comp": [1.0]}}, "same length"),
            ({**VALID, "platform": {"comm": ["x"], "comp": [1.0]}}, "must be a number"),
            (
                {**VALID, "platform": {"comm": [0.2, float("nan")], "comp": [1.0, 2.0]}},
                "'platform.comm[1]' must be finite",
            ),
            (
                {**VALID, "platform": {"comm": [0.2], "comp": [float("inf")]}},
                "'platform.comp[0]' must be finite",
            ),
            (
                {**VALID, "platform": {"comm": [-0.0], "comp": [1.0]}},
                "'platform.comm[0]' must be positive",
            ),
            (
                {**VALID, "platform": {"comm": [-0.5], "comp": [1.0]}},
                "'platform.comm[0]' must be positive",
            ),
            (
                {**VALID, "platform": {"comm": [True], "comp": [1.0]}},
                "'platform.comm[0]' must be a number, got bool",
            ),
            # A type error anywhere in the list beats an earlier sign error.
            (
                {**VALID, "platform": {"comm": [-0.5, "x"], "comp": [1.0, 2.0]}},
                "'platform.comm[1]' must be a number, got str",
            ),
            ({**VALID, "tasks": {"process": "nope", "n": 5}}, "unknown"),
            ({**VALID, "tasks": {"process": "poisson", "n": 5}}, "requires field 'rate'"),
            ({**VALID, "tasks": {"process": "poisson", "n": 5, "rate": 0}}, "positive"),
            ({**VALID, "tasks": {"n": 0}}, "'tasks.n' must be positive"),
            ({**VALID, "tasks": {"n": 5, "rate": 1.0}}, "not accepted by"),
            ({**VALID, "tasks": "many"}, "'tasks' must be an object"),
            ({**VALID, "tasks": {"n": float("nan")}}, "must be an integer"),
        ],
    )
    def test_malformed_requests_are_rejected(self, broken, fragment):
        with pytest.raises(RequestValidationError) as excinfo:
            canonicalize_request(broken)
        assert fragment in str(excinfo.value)

    def test_future_schema_version_beats_unknown_field_blame(self):
        # A v2 request with v2-only fields must hear "unsupported version",
        # not be blamed for fields this version does not know.
        with pytest.raises(RequestValidationError) as excinfo:
            canonicalize_request({**VALID, "schema_version": 2, "deadline": 5})
        assert "unsupported schema_version 2" in str(excinfo.value)

    def test_never_mutates_the_payload(self):
        payload = {**VALID, "tasks": {"process": "bursty", "n": 10, "burst_size": 5, "gap": 1.0}}
        snapshot = {**payload, "tasks": dict(payload["tasks"])}
        canonicalize_request(payload)
        assert payload == snapshot


class TestBuildTasks:
    @pytest.mark.parametrize("process", sorted(RELEASE_PROCESSES))
    def test_every_process_materialises(self, process):
        params = {"n": 12, "process": process}
        required = {
            name: 2.0 if kind == "float" else 3
            for name, (kind, default, _rule) in RELEASE_PROCESSES[process].items()
            if default is None
        }
        params.update(required)
        r = request(tasks=params)
        tasks = build_tasks(r, np.random.default_rng(0))
        assert len(tasks.releases) == 12

    def test_releases_depend_only_on_the_rng(self):
        r = request(tasks={"process": "poisson", "n": 10, "rate": 2.0})
        a = build_tasks(r, np.random.default_rng(7)).releases
        b = build_tasks(r, np.random.default_rng(7)).releases
        assert list(a) == list(b)
