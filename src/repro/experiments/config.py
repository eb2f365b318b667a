"""Configuration objects for the experiment harness.

The defaults reproduce the setup of Section 4.2/4.3: ten random five-slave
platforms per diagram, one thousand identical tasks released at time zero,
the seven heuristics of the paper, everything normalised to SRPT.
Benchmarks shrink ``n_platforms``/``n_tasks`` to keep wall-clock times small;
the shape of the results is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..core.metrics import Objective
from ..core.platform import PlatformKind
from ..exceptions import ExperimentError
from ..schedulers.base import PAPER_HEURISTICS
from ..workloads.perturbation import PAPER_PERTURBATION_AMPLITUDE
from ..workloads.platforms import (
    PAPER_COMM_RANGE,
    PAPER_COMP_RANGE,
    PAPER_N_PLATFORMS,
    PAPER_N_WORKERS,
)

__all__ = ["METRIC_NAMES", "CampaignConfig", "Figure1Config", "Figure2Config"]

#: Metric keys reported by the campaigns, in the order the paper's bar plots
#: display them (left to right: makespan, sum-flow, max-flow).
METRIC_NAMES: Tuple[str, ...] = ("makespan", "sum_flow", "max_flow")


@dataclass(frozen=True)
class CampaignConfig:
    """Common knobs of the Figure 1 and Figure 2 campaigns."""

    n_platforms: int = PAPER_N_PLATFORMS
    n_workers: int = PAPER_N_WORKERS
    n_tasks: int = 1000
    heuristics: Tuple[str, ...] = tuple(PAPER_HEURISTICS)
    reference: str = "SRPT"
    seed: Optional[int] = 2006
    comm_range: Tuple[float, float] = PAPER_COMM_RANGE
    comp_range: Tuple[float, float] = PAPER_COMP_RANGE
    #: When true the platforms are obtained through the simulated-cluster
    #: calibration protocol instead of being drawn directly.
    use_cluster: bool = False

    def __post_init__(self) -> None:
        if self.n_platforms <= 0:
            raise ExperimentError("n_platforms must be positive")
        if self.n_workers <= 0:
            raise ExperimentError("n_workers must be positive")
        if self.n_tasks <= 0:
            raise ExperimentError("n_tasks must be positive")
        if not self.heuristics:
            raise ExperimentError("at least one heuristic is required")
        if self.reference not in self.heuristics:
            raise ExperimentError(
                f"reference {self.reference!r} must be one of the heuristics "
                f"{self.heuristics}"
            )

    def scaled(self, n_platforms: Optional[int] = None, n_tasks: Optional[int] = None) -> "CampaignConfig":
        """A copy with a smaller campaign size (used by tests)."""
        return replace(
            self,
            n_platforms=n_platforms if n_platforms is not None else self.n_platforms,
            n_tasks=n_tasks if n_tasks is not None else self.n_tasks,
        )


@dataclass(frozen=True)
class Figure1Config(CampaignConfig):
    """Configuration of one Figure 1 diagram (one platform class).

    ``scenario`` selects a registered dynamic-platform scenario by name
    (default ``"static"``, the paper's setup); see :mod:`repro.scenarios`.
    The scenario becomes one more campaign grid axis: each cell carries it
    in its cached identity and rebuilds the concrete scenario instance from
    its own deterministic seed stream.
    """

    kind: PlatformKind = PlatformKind.HETEROGENEOUS
    scenario: str = "static"

    def __post_init__(self) -> None:
        super().__post_init__()
        # Fail fast on unknown scenario names (raises ScenarioError).
        from ..scenarios import create_scenario

        create_scenario(self.scenario)


@dataclass(frozen=True)
class Figure2Config(CampaignConfig):
    """Configuration of the Figure 2 robustness experiment."""

    kind: PlatformKind = PlatformKind.HETEROGENEOUS
    perturbation_amplitude: float = PAPER_PERTURBATION_AMPLITUDE
    #: Number of independent perturbed workloads averaged per platform.
    n_perturbations: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.perturbation_amplitude < 1.0:
            raise ExperimentError("perturbation_amplitude must be in [0, 1)")
        if self.n_perturbations <= 0:
            raise ExperimentError("n_perturbations must be positive")
