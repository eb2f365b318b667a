"""Heterogeneity sweep — an extension experiment beyond the paper's figures.

The paper's title question is *how much* heterogeneity hurts on-line
scheduling; its evaluation answers it at two points (homogeneous vs. the
testbed's heterogeneity).  This sweep fills the curve in between: it scales
the spread of the platform parameters by a controllable factor and measures
how the gap between the on-line heuristics widens as the platform becomes
more heterogeneous, for either dimension separately or both together.

Like the paper's figures, the sweep declares its (factor × platform ×
heuristic) grid as campaign cells and delegates execution to
:func:`repro.campaigns.runner.run_campaign`, so large sweeps parallelise
over processes and re-runs resolve from the result cache.

The sweep is an extension (not a published figure); its finding is
asserted by ``tests/test_paper_claims.py`` alongside the other ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.normalize import normalise_to_reference
from ..campaigns.cache import CampaignCache
from ..campaigns.grid import CampaignCell, cell_rng, resolve_root_seed
from ..campaigns.runner import run_campaign
from ..core.engine import simulate
from ..core.metrics import evaluate
from ..core.platform import Platform
from ..exceptions import ExperimentError
from ..schedulers.base import PAPER_HEURISTICS, create_scheduler
from ..workloads.release import RngLike, all_at_zero

__all__ = [
    "SweepPoint",
    "HeterogeneitySweepResult",
    "sweep_grid",
    "run_sweep_cell",
    "run_heterogeneity_sweep",
]

#: Geometric-mean communication and computation times used as the sweep's
#: homogeneous baseline (the centre of the paper's parameter ranges).
_BASE_COMM = 0.1
_BASE_COMP = 1.0


def _spread(base: float, factor: float, n: int, rng: np.random.Generator) -> List[float]:
    """Values whose max/min ratio is ``factor``, log-uniform around ``base``."""
    if factor < 1.0:
        raise ExperimentError("heterogeneity factor must be >= 1")
    if factor == 1.0:
        return [base] * n
    exponents = rng.uniform(-0.5, 0.5, size=n)
    exponents = (exponents - exponents.min()) / (exponents.max() - exponents.min()) - 0.5
    return [float(base * factor ** e) for e in exponents]


@dataclass(frozen=True)
class SweepPoint:
    """Results at one heterogeneity level."""

    factor: float
    #: mean normalised metric per heuristic (reference = SRPT)
    normalised: Dict[str, Dict[str, float]]
    #: spread between the best and worst heuristic for each metric
    spread: Dict[str, float]


@dataclass(frozen=True)
class HeterogeneitySweepResult:
    """The full sweep."""

    dimension: str
    factors: Tuple[float, ...]
    points: Tuple[SweepPoint, ...]

    def spread_curve(self, metric: str = "makespan") -> List[Tuple[float, float]]:
        """(heterogeneity factor, best-to-worst spread) pairs for one metric."""
        return [(point.factor, point.spread[metric]) for point in self.points]

    def is_monotone_nondecreasing(self, metric: str = "makespan", slack: float = 0.02) -> bool:
        """True when the heuristic spread never shrinks (up to ``slack``) as
        heterogeneity grows — the qualitative statement behind the paper's
        title."""
        curve = [spread for _, spread in self.spread_curve(metric)]
        return all(later >= earlier - slack for earlier, later in zip(curve, curve[1:]))


# ---------------------------------------------------------------------------
# Campaign grid declaration + cell runner
# ---------------------------------------------------------------------------
def sweep_grid(
    dimension: str,
    factors: Sequence[float],
    n_workers: int,
    n_tasks: int,
    n_platforms: int,
    heuristics: Sequence[str],
    root_seed: int,
) -> List[CampaignCell]:
    """The (factor × platform × heuristic) grid, factor-major."""
    cells: List[CampaignCell] = []
    for factor_index, factor in enumerate(factors):
        for platform_index in range(n_platforms):
            for scheduler in heuristics:
                cells.append(
                    CampaignCell.make(
                        "sweep",
                        len(cells),
                        dimension=dimension,
                        factor=float(factor),
                        factor_index=factor_index,
                        platform_index=platform_index,
                        scheduler=scheduler,
                        n_workers=n_workers,
                        n_tasks=n_tasks,
                        seed=root_seed,
                    )
                )
    return cells


def run_sweep_cell(cell: CampaignCell) -> Dict[str, float]:
    """Execute one (factor, platform, heuristic) simulation of the sweep."""
    seed = cell.param("seed")
    dimension = cell.param("dimension")
    factor = cell.param("factor")
    factor_index = cell.param("factor_index")
    platform_index = cell.param("platform_index")
    n_workers = cell.param("n_workers")
    rng = cell_rng(seed, "sweep/platform", dimension, factor_index, platform_index)
    comm_factor = factor if dimension in ("communication", "both") else 1.0
    comp_factor = factor if dimension in ("computation", "both") else 1.0
    comm = _spread(_BASE_COMM, comm_factor, n_workers, rng)
    comp = _spread(_BASE_COMP, comp_factor, n_workers, rng)
    platform = Platform.from_times(comm, comp)
    tasks = all_at_zero(cell.param("n_tasks"))
    scheduler = create_scheduler(cell.param("scheduler"))
    schedule = simulate(scheduler, platform, tasks, expose_task_count=True)
    metrics = evaluate(schedule)
    return {
        "makespan": metrics.makespan,
        "sum_flow": metrics.sum_flow,
        "max_flow": metrics.max_flow,
    }


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------
def run_heterogeneity_sweep(
    dimension: str = "both",
    factors: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    n_workers: int = 5,
    n_tasks: int = 300,
    n_platforms: int = 3,
    heuristics: Sequence[str] = tuple(PAPER_HEURISTICS),
    reference: str = "SRPT",
    rng: RngLike = None,
    workers: int = 1,
    cache: Optional[CampaignCache] = None,
) -> HeterogeneitySweepResult:
    """Measure the heuristic spread as the platform heterogeneity grows.

    Parameters
    ----------
    dimension:
        ``"communication"``, ``"computation"`` or ``"both"`` — which platform
        parameter is spread out.
    factors:
        Max/min heterogeneity ratios to sweep (1.0 = fully homogeneous).
    workers / cache:
        Campaign execution knobs, see :func:`repro.campaigns.runner.run_campaign`.
    """
    if dimension not in ("communication", "computation", "both"):
        raise ExperimentError(f"unknown sweep dimension {dimension!r}")
    if reference not in heuristics:
        raise ExperimentError("the reference heuristic must be part of the sweep")
    root_seed = resolve_root_seed(rng)
    cells = sweep_grid(
        dimension, factors, n_workers, n_tasks, n_platforms, heuristics, root_seed
    )
    campaign = run_campaign(
        cells,
        workers=workers,
        cache=cache,
        group_key=lambda cell: cell.param("scheduler"),
    )

    n_heuristics = len(heuristics)
    points: List[SweepPoint] = []
    for factor_index, factor in enumerate(factors):
        per_platform: List[Dict[str, Dict[str, float]]] = []
        for platform_index in range(n_platforms):
            base = (factor_index * n_platforms + platform_index) * n_heuristics
            metrics = {
                name: campaign.metrics[base + offset]
                for offset, name in enumerate(heuristics)
            }
            per_platform.append(normalise_to_reference(metrics, reference))
        mean_normalised: Dict[str, Dict[str, float]] = {}
        for name in heuristics:
            mean_normalised[name] = {
                metric: float(np.mean([run[name][metric] for run in per_platform]))
                for metric in per_platform[0][name]
            }
        spread = {
            metric: max(mean_normalised[name][metric] for name in heuristics)
            - min(mean_normalised[name][metric] for name in heuristics)
            for metric in next(iter(mean_normalised.values()))
        }
        points.append(SweepPoint(factor=float(factor), normalised=mean_normalised, spread=spread))

    return HeterogeneitySweepResult(
        dimension=dimension, factors=tuple(float(f) for f in factors), points=tuple(points)
    )
