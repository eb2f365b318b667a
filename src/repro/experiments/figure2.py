"""Figure 2 — robustness of the heuristics to task-size perturbations.

Section 4.3: the size of the matrix sent at each round is randomly changed
by a factor of up to 10 %, and the figure plots, for every heuristic, the
average makespan / sum-flow / max-flow obtained with perturbed tasks divided
by the value obtained on the same platform with identical tasks.  The paper
concludes that the heuristics "are quite robust for makespan minimisation
problems, but not as much for sum-flow or max-flow problems".

:func:`run_figure2` declares the experiment as a campaign grid — one
:class:`~repro.campaigns.grid.CampaignCell` per (platform, workload,
heuristic) triple, where the workload is either the identical-task baseline
(``perturbation_index == -1``) or one of ``n_perturbations`` independently
perturbed bags — and delegates execution to
:func:`repro.campaigns.runner.run_campaign`.  Platforms and perturbations
are derived from the campaign's root seed and the cell coordinates, so the
grid parallelises and caches cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.normalize import ratio_to_baseline
from ..campaigns.cache import CampaignCache
from ..campaigns.grid import CampaignCell, cell_rng, resolve_root_seed
from ..campaigns.runner import run_campaign
from ..core.engine import simulate
from ..core.metrics import evaluate
from ..core.platform import PlatformKind
from ..exceptions import ExperimentError
from ..schedulers.base import create_scheduler
from ..workloads.perturbation import perturb_task_sizes
from ..workloads.platforms import PlatformSpec, random_platform
from ..workloads.release import all_at_zero
from .config import Figure2Config

__all__ = ["Figure2Result", "figure2_grid", "run_figure2_cell", "run_figure2"]


@dataclass(frozen=True)
class Figure2Result:
    """Result of the robustness experiment."""

    config: Figure2Config
    #: One entry per (platform, perturbation): ``{heuristic: {metric: ratio}}``.
    per_run_ratios: List[Dict[str, Dict[str, float]]]
    #: Mean ratio per heuristic and metric — the bar heights of Figure 2.
    mean_ratios: Dict[str, Dict[str, float]]

    def bar(self, heuristic: str, metric: str) -> float:
        """One bar height of the Figure 2 diagram."""
        try:
            return self.mean_ratios[heuristic][metric]
        except KeyError as exc:
            raise ExperimentError(
                f"unknown heuristic/metric pair ({heuristic!r}, {metric!r})"
            ) from exc

    def degradation(self, metric: str) -> Dict[str, float]:
        """Relative degradation (ratio − 1) per heuristic for one metric."""
        return {name: values[metric] - 1.0 for name, values in self.mean_ratios.items()}


# ---------------------------------------------------------------------------
# Campaign grid declaration + cell runner
# ---------------------------------------------------------------------------
def figure2_grid(config: Figure2Config, root_seed: int) -> List[CampaignCell]:
    """The (platform × workload × heuristic) grid of the robustness study.

    Workload ``-1`` is the identical-task baseline; workloads ``0 ..
    n_perturbations - 1`` are independent perturbations of it.  Grid order is
    platform-major, then workload (baseline first), then heuristic.
    """
    cells: List[CampaignCell] = []
    for platform_index in range(config.n_platforms):
        for perturbation_index in range(-1, config.n_perturbations):
            for scheduler in config.heuristics:
                params = dict(
                    kind=config.kind.value,
                    platform_index=platform_index,
                    perturbation_index=perturbation_index,
                    scheduler=scheduler,
                    n_workers=config.n_workers,
                    n_tasks=config.n_tasks,
                    comm_range=config.comm_range,
                    comp_range=config.comp_range,
                    seed=root_seed,
                )
                if perturbation_index >= 0:
                    # Baseline cells never read the amplitude; leaving it out
                    # of their identity lets different-amplitude campaigns
                    # share the expensive identical-task baselines.
                    params["perturbation_amplitude"] = config.perturbation_amplitude
                cells.append(CampaignCell.make("figure2", len(cells), **params))
    return cells


def run_figure2_cell(cell: CampaignCell) -> Dict[str, float]:
    """Execute one (platform, workload, heuristic) simulation of Figure 2.

    The platform depends only on ``(seed, kind, platform_index)`` and the
    perturbed workload only on ``(seed, platform_index,
    perturbation_index)``, so all heuristics of one run face identical
    conditions regardless of scheduling across processes.
    """
    kind = PlatformKind(cell.param("kind"))
    seed = cell.param("seed")
    platform_index = cell.param("platform_index")
    perturbation_index = cell.param("perturbation_index")
    rng = cell_rng(seed, "figure2/platform", kind.value, platform_index)
    spec = PlatformSpec(
        kind=kind,
        n_workers=cell.param("n_workers"),
        comm_range=tuple(cell.param("comm_range")),
        comp_range=tuple(cell.param("comp_range")),
    )
    platform = random_platform(spec, rng)
    tasks = all_at_zero(cell.param("n_tasks"))
    if perturbation_index >= 0:
        tasks = perturb_task_sizes(
            tasks,
            amplitude=cell.param("perturbation_amplitude"),
            rng=cell_rng(seed, "figure2/perturb", platform_index, perturbation_index),
        )
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
def run_figure2(
    config: Optional[Figure2Config] = None,
    workers: int = 1,
    cache: Optional[CampaignCache] = None,
) -> Figure2Result:
    """Run the Figure 2 robustness campaign."""
    cfg = config if config is not None else Figure2Config()
    root_seed = resolve_root_seed(cfg.seed)
    cells = figure2_grid(cfg, root_seed)
    campaign = run_campaign(
        cells,
        workers=workers,
        cache=cache,
        group_key=lambda cell: cell.param("scheduler"),
    )

    n_heuristics = len(cfg.heuristics)
    workloads_per_platform = cfg.n_perturbations + 1  # baseline + perturbations
    per_run_ratios: List[Dict[str, Dict[str, float]]] = []
    for platform_index in range(cfg.n_platforms):
        platform_base = platform_index * workloads_per_platform * n_heuristics
        baseline = {
            name: campaign.metrics[platform_base + offset]
            for offset, name in enumerate(cfg.heuristics)
        }
        for perturbation_index in range(cfg.n_perturbations):
            run_base = platform_base + (perturbation_index + 1) * n_heuristics
            perturbed = {
                name: campaign.metrics[run_base + offset]
                for offset, name in enumerate(cfg.heuristics)
            }
            per_run_ratios.append(ratio_to_baseline(perturbed, baseline))

    heuristics = list(per_run_ratios[0])
    mean_ratios: Dict[str, Dict[str, float]] = {}
    for heuristic in heuristics:
        mean_ratios[heuristic] = {
            metric: float(
                np.mean([run[heuristic][metric] for run in per_run_ratios])
            )
            for metric in per_run_ratios[0][heuristic]
        }
    return Figure2Result(config=cfg, per_run_ratios=per_run_ratios, mean_ratios=mean_ratios)
