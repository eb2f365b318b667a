"""Cell execution — mapping a :class:`CampaignCell` to its simulation.

The campaign runner fans cells out over worker *processes*, so the function
executing a cell must be importable by name in a fresh interpreter.  This
module keeps a static registry from experiment name to the dotted path of
its cell runner; :func:`run_cell` resolves the target lazily, which

* avoids import cycles (the experiment modules import the campaign runner,
  not the other way around), and
* means a worker process only imports the experiment it actually executes.

A cell runner is a plain function ``fn(cell) -> dict`` returning JSON-able
metrics; it must derive all randomness via
:func:`repro.campaigns.grid.cell_rng` so that results are independent of
where and when the cell runs.

Experiments may additionally register a *batch* runner — a function
``fn(cells, engine_backend) -> list[dict]`` that executes many cells through
one :meth:`~repro.core.kernel.SimulationKernel.run_batch` call.
:func:`~repro.campaigns.runner.run_cell_batch` consults it only on a
non-reference ``engine_backend``; per the backend parity contract it must
return exactly the metrics the per-cell runner would, so results and caches
are interchangeable between the two paths.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Optional

from ..exceptions import CampaignError
from .grid import CampaignCell

__all__ = ["run_cell", "batch_runner", "CELL_RUNNERS", "BATCH_RUNNERS"]

#: experiment name -> "module:function" implementing the cell.
CELL_RUNNERS: Dict[str, str] = {
    "figure1": "repro.experiments.figure1:run_figure1_cell",
    "figure2": "repro.experiments.figure2:run_figure2_cell",
    "sweep": "repro.experiments.sweep:run_sweep_cell",
    "table1": "repro.experiments.table1:run_table1_cell",
}

#: experiment name -> "module:function" implementing batched execution.
#: Experiments without an entry transparently fall back to per-cell runs.
BATCH_RUNNERS: Dict[str, str] = {
    "figure1": "repro.experiments.figure1:run_figure1_cell_batch",
}

_RESOLVED: Dict[str, Callable[[CampaignCell], Dict[str, Any]]] = {}
_RESOLVED_BATCH: Dict[str, Callable[..., List[Dict[str, Any]]]] = {}


def _resolve(experiment: str) -> Callable[[CampaignCell], Dict[str, Any]]:
    try:
        return _RESOLVED[experiment]
    except KeyError:
        pass
    try:
        target = CELL_RUNNERS[experiment]
    except KeyError as exc:
        raise CampaignError(
            f"unknown cell experiment {experiment!r}; "
            f"available: {sorted(CELL_RUNNERS)}"
        ) from exc
    module_name, _, attribute = target.partition(":")
    runner = getattr(import_module(module_name), attribute)
    _RESOLVED[experiment] = runner
    return runner


def run_cell(cell: CampaignCell) -> Dict[str, Any]:
    """Execute one cell and return its metrics (runs in worker processes)."""
    runner = _resolve(cell.experiment)
    metrics = runner(cell)
    if not isinstance(metrics, dict):
        raise CampaignError(
            f"cell runner for {cell.experiment!r} returned "
            f"{type(metrics).__name__}, expected dict"
        )
    return metrics


def batch_runner(experiment: str) -> Optional[Callable[..., List[Dict[str, Any]]]]:
    """The experiment's registered batch runner, or ``None`` if it has none."""
    if experiment not in BATCH_RUNNERS:
        return None
    if experiment not in _RESOLVED_BATCH:
        module_name, _, attribute = BATCH_RUNNERS[experiment].partition(":")
        _RESOLVED_BATCH[experiment] = getattr(import_module(module_name), attribute)
    return _RESOLVED_BATCH[experiment]
