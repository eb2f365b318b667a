"""Table 1 — certified lower bounds on the competitive ratio.

The experiment evaluates the nine adversary games with the engine-backed
constrained enumeration (see :mod:`repro.theory`) and reports, for every
(platform class, objective) cell of Table 1:

* the stated closed-form bound,
* the game value certified by the evaluated instance (equal to the bound for
  the exact theorems, slightly below it for the asymptotic ones),
* optionally, the smallest ratio any implemented heuristic achieved against
  the corresponding reactive adversary (a sanity check: it can never be
  smaller than the certified value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..campaigns.cache import CampaignCache
from ..campaigns.grid import CampaignCell
from ..campaigns.runner import run_campaign
from ..core.metrics import Objective
from ..core.platform import PlatformKind
from ..theory.bounds import TABLE_1
from ..theory.verification import (
    DEFAULT_VERIFICATION_HEURISTICS,
    certificate_for,
    verify_heuristics_against_adversaries,
)

__all__ = ["Table1Row", "Table1Result", "table1_grid", "run_table1_cell", "run_table1"]

_KIND_BY_THEOREM: Dict[int, PlatformKind] = {
    1: PlatformKind.COMMUNICATION_HOMOGENEOUS,
    2: PlatformKind.COMMUNICATION_HOMOGENEOUS,
    3: PlatformKind.COMMUNICATION_HOMOGENEOUS,
    4: PlatformKind.COMPUTATION_HOMOGENEOUS,
    5: PlatformKind.COMPUTATION_HOMOGENEOUS,
    6: PlatformKind.COMPUTATION_HOMOGENEOUS,
    7: PlatformKind.HETEROGENEOUS,
    8: PlatformKind.HETEROGENEOUS,
    9: PlatformKind.HETEROGENEOUS,
}


@dataclass(frozen=True)
class Table1Row:
    """One cell of Table 1 with its reproduction status."""

    theorem: int
    platform_kind: PlatformKind
    objective: Objective
    stated_bound: float
    formula: str
    game_value: float
    #: smallest heuristic ratio against the reactive adversary, if measured
    best_heuristic_ratio: Optional[float] = None
    best_heuristic: Optional[str] = None

    @property
    def gap(self) -> float:
        """``stated_bound - game_value`` for this row."""
        return self.stated_bound - self.game_value

    @property
    def relative_gap(self) -> float:
        """The gap as a fraction of the stated bound."""
        return self.gap / self.stated_bound


@dataclass(frozen=True)
class Table1Result:
    """The reproduced Table 1."""

    rows: List[Table1Row]

    def row(self, theorem: int) -> Table1Row:
        """The row certifying the given theorem number."""
        for row in self.rows:
            if row.theorem == theorem:
                return row
        raise KeyError(f"no row for theorem {theorem}")

    def by_cell(self) -> Dict[tuple, Table1Row]:
        """Rows keyed by ``(platform kind, objective)``."""
        return {(row.platform_kind, row.objective): row for row in self.rows}


# ---------------------------------------------------------------------------
# Campaign grid declaration + cell runner
# ---------------------------------------------------------------------------
def table1_grid(
    include_heuristics: bool,
    heuristics: Sequence[str],
) -> List[CampaignCell]:
    """One cell per theorem; the games are deterministic, so no seed."""
    cells: List[CampaignCell] = []
    for theorem in sorted(_KIND_BY_THEOREM):
        cells.append(
            CampaignCell.make(
                "table1",
                len(cells),
                theorem=theorem,
                include_heuristics=include_heuristics,
                heuristics=tuple(heuristics) if include_heuristics else (),
            )
        )
    return cells


def run_table1_cell(cell: CampaignCell) -> Dict[str, object]:
    """Evaluate one theorem's adversary game (and optionally its heuristics)."""
    theorem = cell.param("theorem")
    certificate = certificate_for(theorem)
    metrics: Dict[str, object] = {
        "objective": certificate.objective.value,
        "game_value": certificate.value,
        "best_heuristic_ratio": None,
        "best_heuristic": None,
    }
    if cell.param("include_heuristics"):
        outcomes = verify_heuristics_against_adversaries(
            heuristics=tuple(cell.param("heuristics")), theorems=[theorem]
        )
        best = min(outcomes, key=lambda outcome: outcome.ratio)
        metrics["best_heuristic_ratio"] = best.ratio
        metrics["best_heuristic"] = best.scheduler_name
    return metrics


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------
def run_table1(
    include_heuristics: bool = False,
    heuristics: Sequence[str] = DEFAULT_VERIFICATION_HEURISTICS,
    workers: int = 1,
    cache: Optional[CampaignCache] = None,
) -> Table1Result:
    """Regenerate Table 1.

    ``include_heuristics=True`` additionally plays every reactive adversary
    against the implemented heuristics and reports the smallest ratio seen —
    slower but a useful end-to-end check.  The nine theorem games are
    independent campaign cells, so they parallelise and cache like any other
    campaign.
    """
    cells = table1_grid(include_heuristics, heuristics)
    campaign = run_campaign(cells, workers=workers, cache=cache)

    rows: List[Table1Row] = []
    for cell, metrics in zip(campaign.cells, campaign.metrics):
        theorem = cell.param("theorem")
        kind = _KIND_BY_THEOREM[theorem]
        objective = Objective(metrics["objective"])
        entry = TABLE_1[(kind, objective)]
        rows.append(
            Table1Row(
                theorem=theorem,
                platform_kind=kind,
                objective=objective,
                stated_bound=entry.value,
                formula=entry.formula,
                game_value=metrics["game_value"],
                best_heuristic_ratio=metrics["best_heuristic_ratio"],
                best_heuristic=metrics["best_heuristic"],
            )
        )
    return Table1Result(rows=rows)
