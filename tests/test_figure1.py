"""Tests for the Figure 1 experiment harness (reduced-size campaigns)."""

from __future__ import annotations

import pytest

from repro.core.platform import PlatformKind
from repro.exceptions import ExperimentError
from repro.experiments.config import Figure1Config
from repro.experiments.figure1 import FIGURE1_PANELS, run_figure1, run_figure1_panel


SMALL = dict(n_platforms=2, n_tasks=60, seed=3)


class TestPanels:
    def test_panel_map_matches_paper(self):
        assert FIGURE1_PANELS == {
            "1a": PlatformKind.HOMOGENEOUS,
            "1b": PlatformKind.COMMUNICATION_HOMOGENEOUS,
            "1c": PlatformKind.COMPUTATION_HOMOGENEOUS,
            "1d": PlatformKind.HETEROGENEOUS,
        }

    def test_panel_result_structure(self):
        config = Figure1Config(kind=PlatformKind.HOMOGENEOUS, **SMALL)
        panel = run_figure1_panel(config)
        assert len(panel.per_platform) == config.n_platforms
        assert set(panel.mean_normalised) == set(config.heuristics)
        for metrics in panel.mean_normalised.values():
            assert set(metrics) == {"makespan", "sum_flow", "max_flow"}

    def test_reference_normalised_to_one(self):
        config = Figure1Config(kind=PlatformKind.HETEROGENEOUS, **SMALL)
        panel = run_figure1_panel(config)
        for metric, value in panel.mean_normalised["SRPT"].items():
            assert value == pytest.approx(1.0), metric

    def test_bar_and_ranking_accessors(self):
        config = Figure1Config(kind=PlatformKind.HETEROGENEOUS, **SMALL)
        panel = run_figure1_panel(config)
        ranking = panel.ranking("makespan")
        assert set(ranking) == set(config.heuristics)
        assert panel.bar(ranking[0], "makespan") <= panel.bar(ranking[-1], "makespan")
        with pytest.raises(ExperimentError):
            panel.bar("SRPT", "unknown-metric")

    def test_reproducible_with_seed(self):
        config = Figure1Config(kind=PlatformKind.HETEROGENEOUS, **SMALL)
        a = run_figure1_panel(config)
        b = run_figure1_panel(config)
        assert a.mean_normalised == b.mean_normalised


class TestRunFigure1:
    def test_all_panels(self):
        config = Figure1Config(**SMALL)
        result = run_figure1(config)
        assert set(result.panels) == {"1a", "1b", "1c", "1d"}
        # Every panel carries the platform class it was asked for.
        for name, panel in result.panels.items():
            assert panel.kind is FIGURE1_PANELS[name]

    def test_subset_of_panels(self):
        config = Figure1Config(**SMALL)
        result = run_figure1(config, panels=["1a"])
        assert set(result.panels) == {"1a"}

    def test_unknown_panel_rejected(self):
        with pytest.raises(ExperimentError):
            run_figure1(Figure1Config(**SMALL), panels=["1e"])

    def test_panel_accessor(self):
        result = run_figure1(Figure1Config(**SMALL), panels=["1b"])
        assert result.panel("1b").kind is PlatformKind.COMMUNICATION_HOMOGENEOUS
        with pytest.raises(ExperimentError):
            result.panel("1d")


class TestClusterBackedCampaign:
    def test_cluster_path_produces_same_structure(self):
        config = Figure1Config(
            kind=PlatformKind.HETEROGENEOUS,
            n_platforms=1,
            n_tasks=40,
            seed=4,
            use_cluster=True,
        )
        panel = run_figure1_panel(config)
        assert set(panel.mean_normalised) == set(config.heuristics)
        assert panel.mean_normalised["SRPT"]["makespan"] == pytest.approx(1.0)
