"""Tests for the campaign subsystem (:mod:`repro.campaigns`).

The two contracts the ISSUE pins down are covered explicitly:

* parallel execution (N worker processes) produces *identical* aggregated
  results to serial execution of the same grid;
* a warm cache serves every cell without re-simulating, and the cached
  campaign still reproduces the computed one exactly.
"""

from __future__ import annotations

import json
from concurrent.futures import Future

import pytest

from repro.analysis.stats import RunningStat, summarise
from repro.campaigns import (
    CampaignCache,
    CampaignCell,
    StreamingAggregator,
    cell_rng,
    run_campaign,
    run_cell,
)
from repro.campaigns import runner
from repro.campaigns.grid import resolve_root_seed, stable_entropy
from repro.exceptions import CampaignError
from repro.experiments.config import Figure1Config, Figure2Config
from repro.experiments.figure1 import figure1_panel_grid, run_figure1, run_figure1_panel
from repro.experiments.figure2 import figure2_grid, run_figure2
from repro.experiments.sweep import run_heterogeneity_sweep
from repro.experiments.table1 import run_table1


SMALL_FIG1 = Figure1Config(n_platforms=2, n_tasks=40, seed=11)


# ---------------------------------------------------------------------------
# Cells and grids
# ---------------------------------------------------------------------------
class TestCampaignCell:
    def test_params_are_canonical_and_sorted(self):
        cell = CampaignCell.make("figure1", 0, zulu=1, alpha="x", mid=(1.5, 2.5))
        assert [key for key, _ in cell.params] == ["alpha", "mid", "zulu"]
        assert cell.param("mid") == (1.5, 2.5)

    def test_param_lookup_and_default(self):
        cell = CampaignCell.make("figure1", 0, a=1)
        assert cell.param("a") == 1
        assert cell.param("missing", None) is None
        with pytest.raises(CampaignError):
            cell.param("missing")

    def test_cache_key_ignores_grid_position(self):
        a = CampaignCell.make("figure1", 0, a=1)
        b = CampaignCell.make("figure1", 7, a=1)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_sensitive_to_every_parameter(self):
        base = CampaignCell.make("figure1", 0, a=1, b="x")
        assert base.cache_key() != CampaignCell.make("figure1", 0, a=2, b="x").cache_key()
        assert base.cache_key() != CampaignCell.make("figure1", 0, a=1, b="y").cache_key()
        assert base.cache_key() != CampaignCell.make("figure2", 0, a=1, b="x").cache_key()

    def test_config_json_is_canonical(self):
        cell = CampaignCell.make("figure1", 0, b=2, a=1)
        assert json.loads(cell.config_json()) == {
            "experiment": "figure1",
            "params": {"a": 1, "b": 2},
        }

    def test_rejects_bad_inputs(self):
        with pytest.raises(CampaignError):
            CampaignCell.make("", 0)
        with pytest.raises(CampaignError):
            CampaignCell.make("figure1", -1)
        with pytest.raises(CampaignError):
            CampaignCell.make("figure1", 0, bad=object())

    def test_unknown_experiment_rejected_at_run(self):
        with pytest.raises(CampaignError):
            run_cell(CampaignCell.make("no-such-experiment", 0))


class TestDeterministicSeeding:
    def test_cell_rng_reproducible(self):
        a = cell_rng(2006, "figure1/platform", "heterogeneous", 3)
        b = cell_rng(2006, "figure1/platform", "heterogeneous", 3)
        assert a.uniform(size=4).tolist() == b.uniform(size=4).tolist()

    def test_cell_rng_independent_across_coordinates(self):
        a = cell_rng(2006, "figure1/platform", "heterogeneous", 3)
        b = cell_rng(2006, "figure1/platform", "heterogeneous", 4)
        assert a.uniform(size=4).tolist() != b.uniform(size=4).tolist()

    def test_stable_entropy_does_not_depend_on_hash_seed(self):
        # sha256-based, so a fixed literal must map to a fixed word.
        assert stable_entropy("x") == stable_entropy("x")
        assert stable_entropy(5) == 5

    def test_resolve_root_seed(self):
        assert resolve_root_seed(7) == 7
        # None draws fresh OS entropy each time (collision odds ~2^-64)
        assert resolve_root_seed(None) != resolve_root_seed(None)
        import numpy as np

        gen = np.random.default_rng(0)
        assert isinstance(resolve_root_seed(gen), int)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------
class TestCampaignCache:
    def test_roundtrip(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cell = CampaignCell.make("figure1", 0, a=1)
        assert cache.load(cell) is None
        cache.store(cell, {"makespan": 1.5})
        assert cache.load(cell) == {"makespan": 1.5}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        cell = CampaignCell.make("figure1", 0, a=1)
        cache.store(cell, {"makespan": 1.5})
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not json")
        assert cache.load(cell) is None

    def test_mismatched_config_is_a_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        cell = CampaignCell.make("figure1", 0, a=1)
        cache.store(cell, {"makespan": 1.5})
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["config"]["params"]["a"] = 999
        path.write_text(json.dumps(payload))
        assert cache.load(cell) is None

    def test_len_and_clear(self, tmp_path):
        cache = CampaignCache(tmp_path)
        for index in range(3):
            cache.store(CampaignCell.make("figure1", 0, a=index), {"v": 1.0})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Streaming aggregation
# ---------------------------------------------------------------------------
class TestStreamingAggregation:
    def test_running_stat_matches_batch_summary(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        stat = RunningStat()
        for value in values:
            stat.add(value)
        batch = summarise(values)
        assert stat.n == batch.n
        assert stat.mean == pytest.approx(batch.mean)
        assert stat.std == pytest.approx(batch.std)
        assert stat.minimum == batch.minimum
        assert stat.maximum == batch.maximum
        assert stat.geo_mean == pytest.approx(batch.geo_mean)

    def test_out_of_order_results_aggregate_in_grid_order(self):
        cells = [CampaignCell.make("figure1", i, scheduler="LS", v=i) for i in range(4)]
        in_order = StreamingAggregator(4, group_key=lambda c: c.param("scheduler"))
        shuffled = StreamingAggregator(4, group_key=lambda c: c.param("scheduler"))
        metrics = [{"makespan": float(i) + 0.1} for i in range(4)]
        for i in range(4):
            in_order.add(cells[i], metrics[i])
        for i in (2, 0, 3, 1):
            shuffled.add(cells[i], metrics[i])
        assert in_order.complete and shuffled.complete
        assert in_order.summaries() == shuffled.summaries()

    def test_duplicate_index_rejected(self):
        aggregator = StreamingAggregator(2)
        cell = CampaignCell.make("figure1", 0, a=1)
        aggregator.add(cell, {"v": 1.0})
        with pytest.raises(CampaignError):
            aggregator.add(cell, {"v": 1.0})


# ---------------------------------------------------------------------------
# Runner: parallel == serial, cache skips recomputation
# ---------------------------------------------------------------------------
class TestRunCampaign:
    def test_grid_must_be_contiguous(self):
        cells = [CampaignCell.make("figure1", 5, a=1)]
        with pytest.raises(CampaignError):
            run_campaign(cells)

    def test_negative_workers_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign([], workers=-1)

    def test_parallel_equals_serial_on_figure1_grid(self):
        serial = run_figure1_panel(SMALL_FIG1, workers=1)
        parallel = run_figure1_panel(SMALL_FIG1, workers=4)
        assert serial.per_platform == parallel.per_platform
        assert serial.mean_normalised == parallel.mean_normalised

    def test_parallel_equals_serial_on_figure2_grid(self):
        config = Figure2Config(n_platforms=1, n_tasks=40, n_perturbations=2, seed=3)
        serial = run_figure2(config, workers=1)
        parallel = run_figure2(config, workers=3)
        assert serial.mean_ratios == parallel.mean_ratios
        assert serial.per_run_ratios == parallel.per_run_ratios

    def test_parallel_equals_serial_on_scenario_grid(self):
        # The scenario axis re-derives releases and the platform timeline
        # inside each cell, so dynamic-platform campaigns must stay
        # bit-identical across worker counts too.
        config = Figure1Config(
            n_platforms=2, n_tasks=30, seed=11, scenario="node-failure"
        )
        serial = run_figure1_panel(config, workers=1)
        parallel = run_figure1_panel(config, workers=4)
        assert serial.per_platform == parallel.per_platform
        assert serial.mean_normalised == parallel.mean_normalised

    def test_scenario_axis_changes_cell_identity_but_not_static_keys(self):
        static = figure1_panel_grid(SMALL_FIG1, root_seed=11)
        from dataclasses import replace

        dynamic = figure1_panel_grid(
            replace(SMALL_FIG1, scenario="degrading-worker"), root_seed=11
        )
        assert {c.cache_key() for c in static}.isdisjoint(
            {c.cache_key() for c in dynamic}
        )
        # The static default is omitted from the params, so pre-scenario
        # cache entries remain addressable.
        assert all(c.param("scenario", "static") == "static" for c in static)

    def test_cache_hits_skip_recomputation(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        root_seed = 11
        cells = figure1_panel_grid(SMALL_FIG1, root_seed)
        first = run_campaign(cells, workers=1, cache=cache)
        assert first.n_computed == len(cells)
        assert first.n_cached == 0

        cells_again = figure1_panel_grid(SMALL_FIG1, root_seed)
        second = run_campaign(cells_again, workers=1, cache=cache)
        assert second.n_computed == 0
        assert second.n_cached == len(cells)
        assert second.metrics == first.metrics
        assert second.summaries == first.summaries

    def test_cached_campaign_reproduces_uncached_one(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        computed = run_figure1_panel(SMALL_FIG1, workers=1, cache=cache)
        cached = run_figure1_panel(SMALL_FIG1, workers=1, cache=cache)
        uncached = run_figure1_panel(SMALL_FIG1, workers=1, cache=None)
        assert cached.mean_normalised == computed.mean_normalised
        assert uncached.mean_normalised == computed.mean_normalised

    def test_baseline_cells_shared_across_amplitudes(self, tmp_path):
        from dataclasses import replace

        config = Figure2Config(n_platforms=1, n_tasks=30, n_perturbations=1, seed=5)
        cache = CampaignCache(tmp_path)
        run_figure2(config, cache=cache)
        misses_first = cache.misses
        # A different amplitude re-simulates only the perturbed cells; the
        # identical-task baselines are served from the cache.
        run_figure2(replace(config, perturbation_amplitude=0.2), cache=cache)
        n_heuristics = len(config.heuristics)
        assert cache.misses == misses_first + n_heuristics  # perturbed only
        assert cache.hits == n_heuristics  # the shared baselines

    def test_changing_a_parameter_misses_the_cache(self, tmp_path):
        from dataclasses import replace

        cache = CampaignCache(tmp_path / "cache")
        run_figure1_panel(SMALL_FIG1, cache=cache)
        baseline_entries = len(cache)
        run_figure1_panel(replace(SMALL_FIG1, n_tasks=SMALL_FIG1.n_tasks + 1), cache=cache)
        assert len(cache) == 2 * baseline_entries

    def test_summaries_group_by_scheduler(self):
        root_seed = 11
        cells = figure1_panel_grid(SMALL_FIG1, root_seed)
        result = run_campaign(
            cells, group_key=lambda cell: cell.param("scheduler")
        )
        assert set(result.summaries) == set(SMALL_FIG1.heuristics)
        srpt = result.summaries["SRPT"]["makespan"]
        assert srpt["n"] == float(SMALL_FIG1.n_platforms)
        assert srpt["min"] <= srpt["mean"] <= srpt["max"]

    def test_metrics_for_filters_by_params(self):
        root_seed = 11
        cells = figure1_panel_grid(SMALL_FIG1, root_seed)
        result = run_campaign(cells)
        ls_metrics = result.metrics_for(scheduler="LS")
        assert len(ls_metrics) == SMALL_FIG1.n_platforms

    def test_worker_exception_propagates(self):
        cells = [CampaignCell.make("no-such-experiment", 0)]
        with pytest.raises(CampaignError):
            run_campaign(cells, workers=1)


# ---------------------------------------------------------------------------
# One compute path: every backend runs chunks through run_cell_batch
# ---------------------------------------------------------------------------
#: Tiny grids of more than one chunk: 35 Figure 1 cells (it has a batch
#: runner) and 42 Figure 2 cells (it has none).
TINY_GRIDS = {
    "figure1": lambda: figure1_panel_grid(Figure1Config(n_platforms=5, n_tasks=20, seed=11), 11),
    "figure2": lambda: figure2_grid(
        Figure2Config(n_platforms=2, n_tasks=20, n_perturbations=2, seed=3), 3
    ),
}


def _by_scheduler(cell):
    return cell.param("scheduler")


@pytest.fixture(scope="module")
def serial_reference():
    """Each tiny grid as a serial reference campaign, checked cell by cell."""
    campaigns = {}
    for experiment, grid in TINY_GRIDS.items():
        cells = grid()
        campaigns[experiment] = run_campaign(cells, workers=1, group_key=_by_scheduler)
        assert list(campaigns[experiment].metrics) == [run_cell(cell) for cell in cells]
    return campaigns


class RecordingPool:
    """In-process stand-in for the process pool; records every submission."""

    submitted: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def submit(self, fn, *args):
        RecordingPool.submitted.append((fn, args))
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.submitted = []
    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.submitted


class TestOneComputePath:
    def test_array_backend_submits_run_cell_batch_chunks_to_the_pool(
        self, recording_pool, serial_reference
    ):
        cells = TINY_GRIDS["figure1"]()
        result = run_campaign(cells, workers=2, engine_backend="array")
        assert [fn for fn, _ in recording_pool] == [runner.run_cell_batch] * 2
        assert [backend for _, (_, backend) in recording_pool] == ["array"] * 2
        assert [[cell.index for cell in chunk] for _, (chunk, _) in recording_pool] == [
            list(range(18)),
            list(range(18, 35)),
        ]
        assert result.metrics == serial_reference["figure1"].metrics

    @pytest.mark.parametrize(
        "workers, sizes",
        [(2, [18, 17]), (4, [9, 9, 9, 8]), (8, [5, 5, 5, 5, 5, 5, 5]), (64, [1] * 35)],
    )
    def test_pool_chunks_give_every_worker_a_share(
        self, recording_pool, serial_reference, workers, sizes
    ):
        result = run_campaign(TINY_GRIDS["figure1"](), workers=workers)
        assert [len(chunk) for _, (chunk, _) in recording_pool] == sizes
        assert result.metrics == serial_reference["figure1"].metrics

    def test_a_single_chunk_never_builds_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single chunk must run inline")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        cells = TINY_GRIDS["figure1"]()[:1]
        result = run_campaign(cells, workers=2)
        assert list(result.metrics) == [run_cell(cells[0])]

    def test_inline_chunks_stay_at_the_batch_size(self, monkeypatch):
        chunks = []
        real = runner.run_cell_batch

        def recording_batch(cells, engine_backend):
            chunks.append(len(cells))
            return real(cells, engine_backend)

        monkeypatch.setattr(runner, "run_cell_batch", recording_batch)
        run_campaign(TINY_GRIDS["figure1"](), workers=1, engine_backend="array")
        assert chunks == [runner._BATCH_CHUNK, 35 - runner._BATCH_CHUNK]

    @pytest.mark.parametrize("experiment", sorted(TINY_GRIDS))
    @pytest.mark.parametrize(
        "backend, workers",
        [("reference", 1), ("reference", 2), ("array", 1), ("array", 2)],
    )
    def test_every_backend_and_worker_count_agree(
        self, experiment, backend, workers, serial_reference
    ):
        expected = serial_reference[experiment]
        result = run_campaign(
            TINY_GRIDS[experiment](),
            workers=workers,
            group_key=_by_scheduler,
            engine_backend=backend,
        )
        assert result.metrics == expected.metrics
        assert result.summaries == expected.summaries


# ---------------------------------------------------------------------------
# Campaign-backed experiment drivers stay consistent across worker counts
# ---------------------------------------------------------------------------
class TestExperimentsThroughCampaigns:
    def test_sweep_parallel_equals_serial(self):
        kwargs = dict(
            dimension="both",
            factors=(1.0, 4.0),
            n_workers=3,
            n_tasks=30,
            n_platforms=1,
            rng=6,
        )
        serial = run_heterogeneity_sweep(workers=1, **kwargs)
        parallel = run_heterogeneity_sweep(workers=2, **kwargs)
        assert serial.spread_curve("makespan") == parallel.spread_curve("makespan")

    def test_table1_through_campaign_cache(self, tmp_path):
        cache = CampaignCache(tmp_path)
        first = run_table1(cache=cache)
        second = run_table1(cache=cache)
        assert cache.hits == 9
        assert [row.game_value for row in first.rows] == [
            row.game_value for row in second.rows
        ]

    def test_figure1_multi_panel_shares_cache_across_runs(self, tmp_path):
        cache = CampaignCache(tmp_path)
        run_figure1(SMALL_FIG1, panels=["1a", "1d"], cache=cache)
        assert cache.misses > 0
        before = cache.misses
        run_figure1(SMALL_FIG1, panels=["1a", "1d"], cache=cache)
        assert cache.misses == before  # second pass fully cached
