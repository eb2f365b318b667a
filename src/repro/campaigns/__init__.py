"""Experiment campaign subsystem.

Separates "one simulation" (a :class:`~repro.campaigns.grid.CampaignCell`)
from "a campaign of simulations" (a grid executed by
:func:`~repro.campaigns.runner.run_campaign`): the experiment modules under
:mod:`repro.experiments` declare grids, and this package decides how the
cells execute — serially, across worker processes, or straight from the
on-disk result cache — with bit-identical output either way.  The names
below resolve on first access (see :mod:`repro._lazy`): the service needs
:func:`~repro.campaigns.grid.cell_rng` but not the process pool.
"""

from .._lazy import lazy_exports

__all__ = [
    "CampaignCache",
    "CampaignCell",
    "CampaignResult",
    "CELL_RUNNERS",
    "StreamingAggregator",
    "cell_rng",
    "default_worker_count",
    "run_campaign",
    "run_cell",
    "stable_entropy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "CampaignCache": ".cache",
    "CELL_RUNNERS": ".cells",
    "run_cell": ".cells",
    "CampaignCell": ".grid",
    "cell_rng": ".grid",
    "stable_entropy": ".grid",
    "CampaignResult": ".runner",
    "StreamingAggregator": ".runner",
    "default_worker_count": ".runner",
    "run_campaign": ".runner",
})
