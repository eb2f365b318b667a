"""The paper's experimental findings (Section 4.3), one test per claim.

``PAPER.md`` carries no text of the paper, so each test quotes the
sentence it checks.  Each test also states its seed and size, and at how
many of the seeds 2006-2010 the claim holds at that size and tolerance
(the seed substituted for every random stream the test draws).  Each test
runs at the one seed the experiment has always used; a claim that fails at
some of the other seeds is a finding about the reproduction, reported in
the docstring, not a reason to move the seed or widen the tolerance.

A Figure 1 "bar" is a heuristic's mean makespan (or sum-flow, max-flow)
normalised to SRPT on the same platform, so a bar below 1 beats SRPT.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.normalize import normalise_to_reference
from repro.core.engine import simulate
from repro.core.metrics import makespan, sum_flow
from repro.core.platform import PlatformKind
from repro.experiments.config import METRIC_NAMES, Figure1Config, Figure2Config
from repro.experiments.figure1 import run_figure1_panel
from repro.experiments.figure2 import run_figure2
from repro.experiments.sweep import run_heterogeneity_sweep
from repro.mpi_sim import default_cluster, run_cluster_campaign
from repro.schedulers import create_scheduler
from repro.schedulers.sljf import SLJFScheduler
from repro.workloads.platforms import PlatformSpec, random_platform
from repro.workloads.release import (
    all_at_zero,
    as_rng,
    bursty_releases,
    saturating_releases,
)

SEED = 2006
STATIC_HEURISTICS = ("LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC")
#: Figure 1(d)'s split: heuristics whose decisions account for the
#: communication times, and those oblivious to them.
COMM_AWARE = ("LS", "RR", "RRC", "SLJFWC")
COMM_OBLIVIOUS = ("SRPT", "RRP", "SLJF")


def _panel(kind: PlatformKind, n_platforms: int):
    return run_figure1_panel(
        Figure1Config(kind=kind, n_platforms=n_platforms, n_tasks=400, seed=SEED)
    )


def _best_static_makespan(panel) -> float:
    return min(panel.bar(name, "makespan") for name in STATIC_HEURISTICS)


def _mean_over_platforms(kind: PlatformKind, n_platforms: int, seed: int, measure) -> float:
    """Mean of ``measure(platform, rng)`` over random platforms of one class."""
    rng = as_rng(seed)
    spec = PlatformSpec(kind=kind)
    values = []
    for _ in range(n_platforms):
        platform = random_platform(spec, rng)
        values.append(measure(platform, rng))
    return float(np.mean(values))


@pytest.fixture(scope="module")
def panel_1a():
    return _panel(PlatformKind.HOMOGENEOUS, 5)


@pytest.fixture(scope="module")
def panel_1b():
    return _panel(PlatformKind.COMMUNICATION_HOMOGENEOUS, 6)


@pytest.fixture(scope="module")
def panel_1c():
    return _panel(PlatformKind.COMPUTATION_HOMOGENEOUS, 6)


@pytest.fixture(scope="module")
def panel_1d():
    return _panel(PlatformKind.HETEROGENEOUS, 6)


# --- Figure 1(a): fully homogeneous platforms ------------------------------


def test_1a_static_heuristics_beat_srpt_on_every_objective(panel_1a):
    """"[all static algorithms] exhibit better performance than the dynamic
    heuristic SRPT."

    Every static bar is below 1 on makespan, sum-flow and max-flow.  Seed
    2006, 5 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    """
    for name in STATIC_HEURISTICS:
        for metric in METRIC_NAMES:
            assert panel_1a.bar(name, metric) < 1.0, (name, metric)


def test_1a_static_heuristics_perform_equally_well(panel_1a):
    """"all static algorithms perform equally well on such platforms"

    On each objective the static bars lie within 0.05 of one another.
    Seed 2006, 5 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    """
    for metric in METRIC_NAMES:
        values = [panel_1a.bar(name, metric) for name in STATIC_HEURISTICS]
        assert max(values) - min(values) < 0.05, (metric, values)


# --- Figure 1(b): communication-homogeneous platforms ----------------------


def test_1b_rrc_is_the_worst_round_robin(panel_1b):
    """"RRC, which does not take processor heterogeneity into account,
    performs significantly worse than the others"

    RRC's makespan bar is at or above RR's and RRP's.  Seed 2006,
    6 platforms x 400 tasks; holds at 5 of seeds 2006-2010.  Deviation: the
    penalty is small (0.882 against 0.877 at seed 2006), because the
    bounded-backlog round-robin dispatch still adapts its allocation to the
    processor speeds (``docs/SCHEDULERS.md``, RR).
    """
    assert panel_1b.bar("RRC", "makespan") >= panel_1b.bar("RR", "makespan") - 1e-9
    assert panel_1b.bar("RRC", "makespan") >= panel_1b.bar("RRP", "makespan") - 1e-9


def test_1b_sljf_leads_the_makespan(panel_1b):
    """"we also observe that SLJF is the best approach for makespan
    minimization."

    SLJF's makespan bar is within 0.03 of the best static one.  Seed 2006,
    6 platforms x 400 tasks; holds at 5 of seeds 2006-2010.  Deviation:
    SLJF ties rather than wins (0.871 against LS's 0.868 at seed 2006); it
    is strictly the best at 1 of the 5 seeds (2010).
    """
    assert panel_1b.bar("SLJF", "makespan") <= _best_static_makespan(panel_1b) + 0.03


def test_1b_ls_and_sljf_beat_srpt(panel_1b):
    """The Figure 1(a) reading "[static algorithms] exhibit better
    performance than the dynamic heuristic SRPT", on 1(b)'s platforms.

    LS's and SLJF's makespan bars are below 1.  Seed 2006,
    6 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    """
    assert panel_1b.bar("LS", "makespan") < 1.0
    assert panel_1b.bar("SLJF", "makespan") < 1.0


# --- Figure 1(c): computation-homogeneous platforms ------------------------


def test_1c_rrp_is_the_worst_round_robin(panel_1c):
    """"RRP and SLJF, which do not take communication heterogeneity into
    account, perform significantly worse than the others" (RRP's half).

    RRP's makespan bar is at or above RR's and RRC's.  Seed 2006,
    6 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    """
    assert panel_1c.bar("RRP", "makespan") >= panel_1c.bar("RR", "makespan") - 1e-9
    assert panel_1c.bar("RRP", "makespan") >= panel_1c.bar("RRC", "makespan") - 1e-9


def test_1c_sljf_is_worse_than_sljfwc(panel_1c):
    """"RRP and SLJF, which do not take communication heterogeneity into
    account, perform significantly worse than the others" (SLJF's half).

    SLJF's makespan bar is at or above SLJFWC's.  Seed 2006,
    6 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    """
    assert panel_1c.bar("SLJF", "makespan") >= panel_1c.bar("SLJFWC", "makespan") - 1e-9


def test_1c_sljfwc_leads_the_makespan(panel_1c):
    """"we also observe that SLJFWC is the best approach for makespan
    minimization."

    SLJFWC's makespan bar is within 0.05 of the best static one.  Seed
    2006, 6 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    Deviation: SLJFWC trails RR and RRC (0.868 against 0.827 at seed 2006);
    it is strictly the best at 1 of the 5 seeds (2010).
    """
    assert panel_1c.bar("SLJFWC", "makespan") <= _best_static_makespan(panel_1c) + 0.05


# --- Figure 1(d): fully heterogeneous platforms ----------------------------


def test_1d_every_static_heuristic_beats_srpt(panel_1d):
    """The Figure 1(a) reading "[static algorithms] exhibit better
    performance than the dynamic heuristic SRPT", on 1(d)'s platforms.

    Every static makespan bar is below 1.  Seed 2006,
    6 platforms x 400 tasks; holds at 4 of seeds 2006-2010: at 2009 RR and
    RRP lose to SRPT (1.033).
    """
    for name in STATIC_HEURISTICS:
        assert panel_1d.bar(name, "makespan") < 1.0, name


@pytest.mark.parametrize("name", ["LS", "SLJFWC"])
def test_1d_ls_and_sljfwc_lead_the_makespan(panel_1d, name):
    """"the best algorithms are LS and SLJFWC."

    The heuristic's makespan bar is within 0.08 of the best static one.
    Seed 2006, 6 platforms x 400 tasks.  Deviation: the lead is not stable
    across seeds.  LS holds at 3 of seeds 2006-2010 (fails at 2009 and
    2010); SLJFWC holds at 4 (fails at 2008).
    """
    assert panel_1d.bar(name, "makespan") <= _best_static_makespan(panel_1d) + 0.08


def test_1d_communication_aware_heuristics_beat_oblivious_ones(panel_1d):
    """"we see that algorithms taking communication delays into account
    actually perform better."  (The paper's headline conclusion.)

    The mean makespan bar of LS, RR, RRC and SLJFWC is below that of SRPT,
    RRP and SLJF.  Seed 2006, 6 platforms x 400 tasks; holds at 5 of seeds
    2006-2010.
    """
    aware = np.mean([panel_1d.bar(name, "makespan") for name in COMM_AWARE])
    oblivious = np.mean([panel_1d.bar(name, "makespan") for name in COMM_OBLIVIOUS])
    assert aware < oblivious


# --- Figure 2: robustness to +/-10% task-size perturbations ----------------


@pytest.fixture(scope="module")
def figure2():
    config = Figure2Config(n_platforms=4, n_tasks=300, n_perturbations=2, seed=SEED)
    return config, run_figure2(config)


def test_figure2_makespan_is_robust(figure2):
    """"our algorithms are quite robust for makespan minimization problems"

    Every heuristic's perturbed/unperturbed makespan ratio lies in
    (0.9, 1.1).  Seed 2006, 4 platforms x 300 tasks x 2 perturbations;
    holds at 5 of seeds 2006-2010.
    """
    config, result = figure2
    for name in config.heuristics:
        assert 0.9 < result.bar(name, "makespan") < 1.1, name


def test_figure2_flow_metrics_are_less_robust(figure2):
    """"[...] but not as much for sum-flow or max-flow problems."

    The mean sum-flow and max-flow ratio is at least the mean makespan
    ratio minus 0.02.  Seed 2006, 4 platforms x 300 tasks x
    2 perturbations; holds at 5 of seeds 2006-2010.
    """
    config, result = figure2
    makespan_ratios = [result.bar(name, "makespan") for name in config.heuristics]
    flow_ratios = [
        result.bar(name, metric)
        for name in config.heuristics
        for metric in ("sum_flow", "max_flow")
    ]
    assert np.mean(flow_ratios) >= np.mean(makespan_ratios) - 0.02


# --- Beyond the published figures -----------------------------------------


@pytest.mark.parametrize("dimension", ["communication", "computation", "both"])
def test_heuristic_spread_grows_with_heterogeneity(dimension):
    """The paper's question, "the impact of heterogeneity on master-slave
    on-line scheduling", between its two data points (homogeneous and the
    testbed).

    Heterogeneity does not make the seven heuristics agree more: the
    best-to-worst makespan spread at max/min factor 16 is at least the
    spread at factor 1 minus 0.02, and the homogeneous point shows
    Figure 1(a)'s picture (spread below 0.15).  Seed 2006, factors 1, 4, 16
    x 3 platforms of 5 workers x 200 tasks; holds at 5 of seeds 2006-2010
    for each dimension.
    """
    sweep = run_heterogeneity_sweep(
        dimension=dimension,
        factors=(1.0, 4.0, 16.0),
        n_workers=5,
        n_tasks=200,
        n_platforms=3,
        rng=SEED,
    )
    curve = sweep.spread_curve("makespan")
    assert curve[-1][1] >= curve[0][1] - 0.02
    assert curve[0][1] < 0.15


_RELEASES = {
    "bag": lambda platform, rng: all_at_zero(300),
    "poisson": lambda platform, rng: saturating_releases(
        300, platform, load_factor=0.9, rng=rng
    ),
    "bursty": lambda platform, rng: bursty_releases(300, burst_size=25, gap=20.0, rng=rng),
}


@pytest.mark.parametrize("release", sorted(_RELEASES))
def test_aware_heuristics_match_srpt_sum_flow_under_online_releases(release):
    """"algorithms taking communication delays into account actually
    perform better", beyond the paper's bag of tasks released at time 0.

    LS's and SLJFWC's mean sum-flow is at most 1.05 x SRPT's on fully
    heterogeneous platforms, with tasks released all at once ("bag"), by a
    Poisson process at 0.9 of the sustainable rate, or in bursts of 25.
    Seed 7, 4 platforms x 300 tasks.  At seeds 2006-2010: bag holds at 4
    (fails at 2008), Poisson at 5, bursty at 3 (fails at 2007 and 2008).
    """
    def mean_sum_flow(name: str) -> float:
        def measure(platform, rng):
            tasks = _RELEASES[release](platform, rng)
            return sum_flow(simulate(create_scheduler(name), platform, tasks))

        return _mean_over_platforms(PlatformKind.HETEROGENEOUS, 4, 7, measure)

    srpt = mean_sum_flow("SRPT")
    assert mean_sum_flow("LS") <= srpt * 1.05
    assert mean_sum_flow("SLJFWC") <= srpt * 1.05


def test_sljf_full_lookahead_is_not_worse_than_a_short_one():
    """"we start to compute the assignment of a certain number of tasks
    (the greater this number, the better the final assignment)" (§4.1).

    Planning all 400 tasks gives a mean makespan at most 1.05 x that of
    planning 10: a short horizon degrades SLJF to list scheduling, which is
    already strong here, so the full plan stays close and usually wins.
    Communication-homogeneous platforms, task count hidden from the
    scheduler.  Seed 123, 4 platforms x 400 tasks; holds at 5 of seeds
    2006-2010.
    """
    tasks = all_at_zero(400)

    def mean_makespan(lookahead: int) -> float:
        def measure(platform, rng):
            scheduler = SLJFScheduler(lookahead=lookahead)
            return makespan(simulate(scheduler, platform, tasks, expose_task_count=False))

        return _mean_over_platforms(PlatformKind.COMMUNICATION_HOMOGENEOUS, 4, 123, measure)

    assert mean_makespan(400) <= mean_makespan(10) * 1.05


def test_bounded_round_robin_beats_strict_cyclic():
    """"RRC, which does not take processor heterogeneity into account,
    performs significantly worse than the others" can only hold if the
    round-robin dispatch adapts to processor speeds.

    The paper does not give the dispatch rule (``docs/SCHEDULERS.md``, RR).
    Strict cyclic dispatch sends every slave the same task count, the
    slowest as many as the fastest; the bounded-backlog default does not,
    and its mean makespan is lower on communication-homogeneous platforms.
    Seed 99, 5 platforms x 400 tasks; holds at 5 of seeds 2006-2010.
    """
    tasks = all_at_zero(400)

    def mean_makespan(name: str) -> float:
        def measure(platform, rng):
            return makespan(simulate(create_scheduler(name), platform, tasks))

        return _mean_over_platforms(PlatformKind.COMMUNICATION_HOMOGENEOUS, 5, 99, measure)

    assert mean_makespan("RR") < mean_makespan("RR-STRICT")


@pytest.fixture(scope="module")
def cluster_campaign():
    return run_cluster_campaign(
        PlatformKind.HETEROGENEOUS,
        n_tasks=300,
        cluster=default_cluster(rng=SEED),
        rng=SEED,
    )


def test_cluster_calibration_yields_a_five_slave_platform(cluster_campaign):
    """"a small heterogeneous master-slave platform with five different
    computers" (§4.2), dialled to a heterogeneity class by sending each
    matrix nc_i times and computing its determinant np_i times.

    The calibrated platform has 5 workers and a maximum relative error
    below 0.5.  Seed 2006 (cluster and calibration), 300 tasks; holds at 5
    of seeds 2006-2010.
    """
    assert cluster_campaign.platform.n_workers == 5
    assert cluster_campaign.calibration.max_relative_error < 0.5


def test_cluster_campaign_aware_heuristics_beat_srpt(cluster_campaign):
    """"algorithms taking communication delays into account actually
    perform better", on the calibrated cluster platform.

    LS's and SLJFWC's makespans normalised to SRPT are below 1.  Seed 2006,
    300 tasks on the fully heterogeneous calibration; holds at 4 of seeds
    2006-2010 (fails at 2008).
    """
    normalised = normalise_to_reference(cluster_campaign.metrics, "SRPT")
    assert normalised["LS"]["makespan"] < 1.0
    assert normalised["SLJFWC"]["makespan"] < 1.0
