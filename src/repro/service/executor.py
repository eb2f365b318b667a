"""Pure request execution — the compute kernel behind the dispatcher.

:func:`execute_request` maps one canonical request to one result payload
on the reference engine.  The module boundary is what makes the
determinism contract auditable: everything a result can depend on is in
the canonical configuration.

Seeding follows the campaign discipline
(:func:`~repro.campaigns.grid.cell_rng`): the random stream is derived from
``(seed, "service", canonical task configuration)``, so it never depends on
the shard process, the batch a request landed in, or its queue position.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from .._hashing import canonical_json
from ..campaigns.grid import cell_rng
from ..core.engine import simulate
from ..core.metrics import evaluate
from ..schedulers.base import create_scheduler
from .schema import ScheduleRequest, build_tasks

__all__ = ["request_rng", "execute_request"]


def request_rng(request: ScheduleRequest) -> np.random.Generator:
    """The request's deterministic random stream.

    Derived from the seed and the canonical task configuration only, so two
    requests differing in (say) scheduler share their task releases — the
    natural "compare schedulers on the same workload" semantics — while any
    change to the workload changes the stream.
    """
    return cell_rng(request.seed, "service", canonical_json(dict(request.config["tasks"])))


def execute_request(request: ScheduleRequest) -> Dict[str, Any]:
    """Simulate one validated request and return its metrics payload.

    The returned dict is exactly the ``metrics`` object of an ``ok``
    response: the scalar objectives of
    :meth:`~repro.core.metrics.ScheduleMetrics.as_dict`.
    """
    platform = request.platform()
    tasks = build_tasks(request, request_rng(request))
    scheduler = create_scheduler(request.scheduler)
    schedule = simulate(scheduler, platform, tasks, expose_task_count=True)
    return evaluate(schedule).as_dict()

