"""Plain-text rendering of the experiment results.

The paper presents its results as bar charts; this module renders the same
numbers as fixed-width text tables (one row per heuristic, one column per
metric) so that the campaigns can be inspected from a terminal or from CI
logs without a plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from .config import METRIC_NAMES
from .figure1 import Figure1Result, PanelResult
from .figure2 import Figure2Result
from .sweep import HeterogeneitySweepResult
from .table1 import Table1Result

__all__ = [
    "format_metric_table",
    "format_panel",
    "format_figure1",
    "format_figure2",
    "format_sweep",
    "format_table1_result",
]

_METRIC_LABELS = {"makespan": "makespan", "sum_flow": "sum-flow", "max_flow": "max-flow"}


def format_metric_table(
    values: Mapping[str, Mapping[str, float]],
    metrics: Sequence[str] = METRIC_NAMES,
    precision: int = 3,
    row_order: Sequence[str] = (),
) -> str:
    """Render ``{heuristic: {metric: value}}`` as a fixed-width table."""
    names = list(row_order) if row_order else sorted(values)
    header = f"{'heuristic':<10}" + "".join(
        f"{_METRIC_LABELS.get(metric, metric):>12}" for metric in metrics
    )
    lines = [header, "-" * len(header)]
    for name in names:
        row = values[name]
        cells = "".join(f"{row[metric]:>12.{precision}f}" for metric in metrics)
        lines.append(f"{name:<10}" + cells)
    return "\n".join(lines)


def format_panel(panel: PanelResult, precision: int = 3) -> str:
    """Render one Figure 1 diagram (normalised to the reference heuristic).

    Non-static scenarios are named in the title; the static default keeps
    the historical (pre-scenario) title byte for byte.
    """
    scenario = getattr(panel.config, "scenario", "static")
    scenario_note = "" if scenario == "static" else f", scenario {scenario}"
    title = (
        f"Figure 1 panel — {panel.kind} platforms "
        f"({panel.config.n_platforms} platforms x {panel.config.n_tasks} tasks, "
        f"normalised to {panel.config.reference}{scenario_note})"
    )
    table = format_metric_table(
        panel.mean_normalised,
        precision=precision,
        row_order=list(panel.config.heuristics),
    )
    return f"{title}\n{table}"


def format_figure1(result: Figure1Result, precision: int = 3) -> str:
    """Render all the computed Figure 1 panels."""
    blocks = [format_panel(result.panels[name], precision) for name in sorted(result.panels)]
    return "\n\n".join(blocks)


def format_figure2(result: Figure2Result, precision: int = 3) -> str:
    """Render the Figure 2 robustness ratios."""
    cfg = result.config
    title = (
        f"Figure 2 — robustness on {cfg.kind} platforms "
        f"(+/-{cfg.perturbation_amplitude:.0%} task-size perturbation, "
        f"ratio perturbed/identical)"
    )
    table = format_metric_table(
        result.mean_ratios, precision=precision, row_order=list(cfg.heuristics)
    )
    return f"{title}\n{table}"


def format_sweep(result: HeterogeneitySweepResult, precision: int = 3) -> str:
    """Render the heterogeneity sweep, one block per heterogeneity factor."""
    blocks = [
        f"Heterogeneity sweep — dimension: {result.dimension}, "
        f"factors: {', '.join(f'{f:g}' for f in result.factors)}"
    ]
    for point in result.points:
        table = format_metric_table(point.normalised, precision=precision)
        spreads = ", ".join(
            f"{_METRIC_LABELS.get(metric, metric)} {point.spread[metric]:.{precision}f}"
            for metric in METRIC_NAMES
        )
        blocks.append(f"factor {point.factor:g} (spread: {spreads})\n{table}")
    return "\n\n".join(blocks)


def format_table1_result(result: Table1Result, precision: int = 4) -> str:
    """Render the reproduced Table 1 with certification status."""
    header = (
        f"{'Thm':>3} {'platform type':<26} {'objective':<10} "
        f"{'stated':>9} {'certified':>10} {'gap':>9} {'best heuristic':>18}"
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        if row.best_heuristic_ratio is not None:
            best = f"{row.best_heuristic_ratio:.{precision}f} ({row.best_heuristic})"
        else:
            best = "-"
        lines.append(
            f"{row.theorem:>3} {str(row.platform_kind):<26} {str(row.objective):<10} "
            f"{row.stated_bound:>9.{precision}f} {row.game_value:>10.{precision}f} "
            f"{row.gap:>9.2e} {best:>18}"
        )
    return "\n".join(lines)
