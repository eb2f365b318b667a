"""Figure 1 — comparison of the seven heuristics on four platform classes.

Section 4.3 compares SRPT, LS, RR, RRC, RRP, SLJF and SLJFWC on ten random
platforms of each class (fully homogeneous, communication-homogeneous,
computation-homogeneous, fully heterogeneous), sending one thousand tasks per
run and plotting, for every heuristic, the makespan, sum-flow and max-flow
normalised to SRPT.

:func:`run_figure1_panel` regenerates one diagram (one platform class);
:func:`run_figure1` regenerates all four.  Both *declare* a campaign grid —
one :class:`~repro.campaigns.grid.CampaignCell` per (platform, heuristic)
pair — and delegate execution to :func:`repro.campaigns.runner.run_campaign`,
which fans the cells out over worker processes and serves repeats from the
on-disk cache.  Every cell derives its platform from the campaign's root
seed and its own grid coordinates, so ``workers=8`` reproduces ``workers=1``
bit for bit.

The qualitative findings the paper reports — each asserted, with the
measured deviations, by ``tests/test_paper_claims.py`` — are:

* Figure 1(a): on homogeneous platforms every static heuristic performs the
  same and beats SRPT;
* Figure 1(b): on communication-homogeneous platforms RRC (which ignores the
  processor heterogeneity) is clearly worse; SLJF has the best makespan;
* Figure 1(c): on computation-homogeneous platforms RRP and SLJF (which
  ignore the link heterogeneity) are clearly worse; SLJFWC has the best
  makespan;
* Figure 1(d): on fully heterogeneous platforms LS and SLJFWC lead, and
  communication-aware heuristics beat communication-oblivious ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..analysis.normalize import normalise_to_reference
from ..campaigns.cache import CampaignCache
from ..campaigns.grid import CampaignCell, cell_rng, resolve_root_seed
from ..campaigns.runner import run_campaign
from ..core.engine import simulate
from ..core.metrics import evaluate
from ..core.platform import PlatformKind
from ..exceptions import ExperimentError
from ..scenarios import create_scenario
from ..schedulers.base import create_scheduler
from ..workloads.platforms import PlatformSpec, random_platform
from ..workloads.release import all_at_zero
from .config import Figure1Config

__all__ = [
    "PanelResult",
    "Figure1Result",
    "figure1_panel_grid",
    "run_figure1_cell",
    "run_figure1_cell_batch",
    "run_figure1_panel",
    "run_figure1",
    "FIGURE1_PANELS",
]

#: The four panels of Figure 1 in the paper's order.
FIGURE1_PANELS: Dict[str, PlatformKind] = {
    "1a": PlatformKind.HOMOGENEOUS,
    "1b": PlatformKind.COMMUNICATION_HOMOGENEOUS,
    "1c": PlatformKind.COMPUTATION_HOMOGENEOUS,
    "1d": PlatformKind.HETEROGENEOUS,
}


@dataclass(frozen=True)
class PanelResult:
    """Result of one Figure 1 diagram."""

    kind: PlatformKind
    config: Figure1Config
    #: Raw metrics: one entry per platform, each ``{heuristic: {metric: value}}``.
    per_platform: List[Dict[str, Dict[str, float]]]
    #: Per-platform metrics normalised to the reference heuristic.
    per_platform_normalised: List[Dict[str, Dict[str, float]]]
    #: Mean (over platforms) of the normalised metrics — the bar heights of
    #: the published figure.
    mean_normalised: Dict[str, Dict[str, float]]

    def bar(self, heuristic: str, metric: str) -> float:
        """One bar height of the diagram."""
        try:
            return self.mean_normalised[heuristic][metric]
        except KeyError as exc:
            raise ExperimentError(
                f"unknown heuristic/metric pair ({heuristic!r}, {metric!r})"
            ) from exc

    def ranking(self, metric: str) -> List[str]:
        """Heuristics from best (smallest normalised metric) to worst."""
        return sorted(self.mean_normalised, key=lambda name: self.mean_normalised[name][metric])


@dataclass(frozen=True)
class Figure1Result:
    """All four panels."""

    panels: Dict[str, PanelResult]

    def panel(self, name: str) -> PanelResult:
        """The result of one named panel (e.g. ``"1b"``)."""
        try:
            return self.panels[name]
        except KeyError as exc:
            raise ExperimentError(
                f"unknown panel {name!r}; available: {sorted(self.panels)}"
            ) from exc


def _mean_nested(
    rows: Sequence[Mapping[str, Mapping[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Average a list of ``{heuristic: {metric: value}}`` mappings."""
    if not rows:
        raise ExperimentError("nothing to average")
    heuristics = list(rows[0])
    result: Dict[str, Dict[str, float]] = {}
    for heuristic in heuristics:
        result[heuristic] = {
            metric: float(np.mean([row[heuristic][metric] for row in rows]))
            for metric in rows[0][heuristic]
        }
    return result


# ---------------------------------------------------------------------------
# Campaign grid declaration + cell runner
# ---------------------------------------------------------------------------
def figure1_panel_grid(config: Figure1Config, root_seed: int) -> List[CampaignCell]:
    """The (platform × heuristic) grid of one Figure 1 diagram.

    Grid order is platform-major: all heuristics of platform 0, then all of
    platform 1, ...  Aggregation relies on this order.  When the config
    selects a non-static scenario, every cell additionally carries the
    scenario name as a grid axis (part of its cached identity).
    """
    cells: List[CampaignCell] = []
    for platform_index in range(config.n_platforms):
        for scheduler in config.heuristics:
            params = dict(
                kind=config.kind.value,
                platform_index=platform_index,
                scheduler=scheduler,
                n_tasks=config.n_tasks,
                seed=root_seed,
                use_cluster=config.use_cluster,
            )
            if config.scenario != "static":
                # The scenario is part of the cell's cached identity; the
                # default is omitted so pre-scenario caches stay valid.
                params["scenario"] = config.scenario
            if not config.use_cluster:
                # The cluster path derives its platform from the calibration
                # protocol; the draw parameters would be dead weight in the
                # cell's cache identity there.
                params.update(
                    n_workers=config.n_workers,
                    comm_range=config.comm_range,
                    comp_range=config.comp_range,
                )
            cells.append(CampaignCell.make("figure1", len(cells), **params))
    return cells


def _figure1_cell_inputs(cell: CampaignCell):
    """Derive one cell's ``(scheduler, platform, tasks, timeline)`` inputs.

    The platform is re-derived from ``(seed, kind, platform_index)`` only, so
    every heuristic cell of the same platform index sees the same platform no
    matter which process runs it.  Likewise the scenario instance (releases,
    perturbations, platform timeline) is re-derived from coordinates that
    exclude the scheduler, so every heuristic faces the identical condition.
    """
    kind = PlatformKind(cell.param("kind"))
    seed = cell.param("seed")
    platform_index = cell.param("platform_index")
    if cell.param("use_cluster"):
        from ..mpi_sim.calibration import calibrate_to_kind
        from ..mpi_sim.cluster import default_cluster

        rng = cell_rng(seed, "figure1/cluster", kind.value, platform_index)
        cluster = default_cluster(rng)
        platform = calibrate_to_kind(cluster, kind, rng=rng).platform
    else:
        rng = cell_rng(seed, "figure1/platform", kind.value, platform_index)
        spec = PlatformSpec(
            kind=kind,
            n_workers=cell.param("n_workers"),
            comm_range=tuple(cell.param("comm_range")),
            comp_range=tuple(cell.param("comp_range")),
        )
        platform = random_platform(spec, rng)
    n_tasks = cell.param("n_tasks")
    scenario_name = cell.param("scenario", "static")
    if scenario_name == "static":
        tasks, timeline = all_at_zero(n_tasks), None
    else:
        scenario = create_scenario(scenario_name)
        scenario_rng = cell_rng(
            seed, "figure1/scenario", kind.value, platform_index, scenario_name
        )
        instance = scenario.build(platform, n_tasks, rng=scenario_rng)
        tasks, timeline = instance.tasks, instance.timeline
    return cell.param("scheduler"), platform, tasks, timeline


def run_figure1_cell(cell: CampaignCell) -> Dict[str, float]:
    """Execute one (platform, heuristic, scenario) simulation of Figure 1."""
    name, platform, tasks, timeline = _figure1_cell_inputs(cell)
    scheduler = create_scheduler(name)
    schedule = simulate(
        scheduler, platform, tasks, expose_task_count=True, timeline=timeline
    )
    metrics = evaluate(schedule)
    return {
        "makespan": metrics.makespan,
        "sum_flow": metrics.sum_flow,
        "max_flow": metrics.max_flow,
    }


def run_figure1_cell_batch(
    cells: Sequence[CampaignCell], engine_backend: str
) -> List[Dict[str, float]]:
    """Execute many Figure 1 cells through one batched kernel call.

    Inputs are derived per cell exactly as :func:`run_figure1_cell` derives
    them; only the simulations are batched, so the metrics are identical to
    the per-cell path bit for bit (backend parity contract).
    """
    from ..core.kernel import KernelJob, create_kernel

    jobs = []
    for cell in cells:
        name, platform, tasks, timeline = _figure1_cell_inputs(cell)
        jobs.append(KernelJob(name, platform, tasks, timeline=timeline))
    results = create_kernel(engine_backend).run_batch(jobs)
    return [
        {
            "makespan": result.metrics["makespan"],
            "sum_flow": result.metrics["sum_flow"],
            "max_flow": result.metrics["max_flow"],
        }
        for result in results
    ]


# ---------------------------------------------------------------------------
# Campaign drivers
# ---------------------------------------------------------------------------
def run_figure1_panel(
    config: Figure1Config,
    workers: int = 1,
    cache: Optional[CampaignCache] = None,
) -> PanelResult:
    """Run one Figure 1 diagram (one platform class)."""
    root_seed = resolve_root_seed(config.seed)
    cells = figure1_panel_grid(config, root_seed)
    campaign = run_campaign(
        cells,
        workers=workers,
        cache=cache,
        group_key=lambda cell: cell.param("scheduler"),
    )
    n_heuristics = len(config.heuristics)
    per_platform: List[Dict[str, Dict[str, float]]] = []
    for platform_index in range(config.n_platforms):
        base = platform_index * n_heuristics
        per_platform.append(
            {
                name: dict(campaign.metrics[base + offset])
                for offset, name in enumerate(config.heuristics)
            }
        )

    per_platform_normalised = [
        normalise_to_reference(metrics, config.reference) for metrics in per_platform
    ]
    mean_normalised = _mean_nested(per_platform_normalised)
    return PanelResult(
        kind=config.kind,
        config=config,
        per_platform=per_platform,
        per_platform_normalised=per_platform_normalised,
        mean_normalised=mean_normalised,
    )


def run_figure1(
    base_config: Optional[Figure1Config] = None,
    panels: Optional[Sequence[str]] = None,
    workers: int = 1,
    cache: Optional[CampaignCache] = None,
) -> Figure1Result:
    """Run all (or a subset of) the four Figure 1 diagrams."""
    from dataclasses import replace

    config = base_config if base_config is not None else Figure1Config()
    selected = list(panels) if panels is not None else list(FIGURE1_PANELS)
    results: Dict[str, PanelResult] = {}
    for name in selected:
        if name not in FIGURE1_PANELS:
            raise ExperimentError(
                f"unknown Figure 1 panel {name!r}; available: {sorted(FIGURE1_PANELS)}"
            )
        panel_config = replace(config, kind=FIGURE1_PANELS[name])
        results[name] = run_figure1_panel(panel_config, workers=workers, cache=cache)
    return Figure1Result(panels=results)
