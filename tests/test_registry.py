"""Unit tests for the scheduler registry and the public heuristic list."""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulingError
from repro.schedulers import (
    PAPER_HEURISTICS,
    available_schedulers,
    create_scheduler,
    register_scheduler,
)
from repro.schedulers.base import OnlineScheduler
from repro.schedulers.list_scheduling import ListScheduler
from repro.schedulers.sljf import SLJFScheduler
from repro.schedulers.srpt import SRPTScheduler


class TestRegistry:
    def test_paper_heuristics_all_registered(self):
        available = set(available_schedulers())
        assert set(PAPER_HEURISTICS) <= available

    def test_paper_heuristics_order_matches_figures(self):
        assert PAPER_HEURISTICS == ["SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"]

    def test_create_by_name(self):
        assert isinstance(create_scheduler("SRPT"), SRPTScheduler)
        assert isinstance(create_scheduler("LS"), ListScheduler)
        assert isinstance(create_scheduler("SLJF"), SLJFScheduler)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(create_scheduler("srpt"), SRPTScheduler)
        assert isinstance(create_scheduler("SlJfWc"), OnlineScheduler)

    def test_unknown_name_rejected(self):
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            create_scheduler("DOES-NOT-EXIST")

    def test_factories_return_fresh_instances(self):
        assert create_scheduler("LS") is not create_scheduler("LS")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchedulingError):
            register_scheduler("SRPT", SRPTScheduler)

    def test_custom_registration(self):
        class MyPolicy(ListScheduler):
            name = "MY-POLICY"

        register_scheduler("MY-POLICY-TEST", MyPolicy)
        assert isinstance(create_scheduler("MY-POLICY-TEST"), MyPolicy)

    def test_scheduler_names_match_registry_keys(self):
        for name in PAPER_HEURISTICS:
            assert create_scheduler(name).name == name

    def test_every_built_in_path_resolves_to_its_policy(self):
        from repro.schedulers.base import _REGISTRY

        paths = {name: entry for name, entry in _REGISTRY.items() if isinstance(entry, str)}
        assert len(paths) == 13
        for name, path in paths.items():
            scheduler = create_scheduler(name)
            assert isinstance(scheduler, OnlineScheduler)
            assert scheduler.name == name
            assert path == f"{type(scheduler).__module__}:{type(scheduler).__name__}"
