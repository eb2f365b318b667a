"""Pure request execution — the compute kernel behind the dispatcher.

:func:`execute_request` maps one canonical request to one result payload,
and :func:`execute_batch` does the same for many requests in one kernel
call.  The module boundary is what makes the determinism contract
auditable: everything a result can depend on is in the canonical
configuration.

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
from ..core.kernel import DEFAULT_BACKEND, KernelJob, create_kernel
from ..core.metrics import evaluate
from ..schedulers.base import create_scheduler
from .schema import ScheduleRequest, build_tasks

__all__ = [
    "request_rng",
    "kernel_job",
    "execute_request",
    "execute_batch",
]


def request_rng(request: ScheduleRequest) -> np.random.Generator:
    """The request's deterministic random stream.

    Derived from the seed and the canonical task configuration only, so two
    requests differing in (say) scheduler share their task releases — the
    natural "compare schedulers on the same workload" semantics — while any
    change to the workload changes the stream.
    """
    return cell_rng(request.seed, "service", canonical_json(dict(request.config["tasks"])))


def kernel_job(request: ScheduleRequest) -> KernelJob:
    """The request's simulation expressed as a :class:`KernelJob`.

    Platform, task bag and seeding are built exactly as
    :func:`execute_request` builds them, so running the job through *any*
    kernel backend (they are trace-equal by contract) yields the same
    metrics payload as the direct path.
    """
    platform = request.platform()
    tasks = build_tasks(request, request_rng(request))
    return KernelJob(request.scheduler, platform, tasks, expose_task_count=True)


def execute_batch(
    requests: "list[ScheduleRequest]", backend: str = DEFAULT_BACKEND
) -> "list[Dict[str, Any]]":
    """Simulate many requests in one kernel call; payloads aligned with input.

    This is the dispatcher's batched compute path: a whole batch of unique
    canonical configurations becomes a single
    :meth:`~repro.core.kernel.SimulationKernel.run_batch` invocation, which
    the ``"array"`` backend vectorizes across the batch.  Each returned
    payload equals what :func:`execute_request` would produce for the same
    request — bit for bit, per the backend parity contract.
    """
    kernel = create_kernel(backend)
    results = kernel.run_batch([kernel_job(request) for request in requests])
    return [dict(result.metrics) for result in results]


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

