"""Workload definitions: seeded request streams, frozen rates and limits, layer map.

Every input the program receives is generated here from ``--seed`` alone,
with the benchmark's own random streams (numpy's PCG64) and its own
Lewis-Shedler thinning, so a change to the program can never change the
inputs it is measured on.

The absolute ``light``/``busy`` rates and the p99 limits were chosen once,
from the single-shard capacity of the commit that introduced the benchmark
on a 2-core x86-64 virtual machine, and are frozen: later commits are
measured at the same offered load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The paper's seven heuristics (Section 4.3).
HEURISTICS = ("SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC")
RELEASES = ("all-at-zero", "poisson", "uniform")


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the operating points it is measured at."""

    name: str
    #: Mean offered rates (requests/s) of the two latency phases.
    light_rps: float
    busy_rps: float
    #: Latency limit (ms) a phase's p99 must meet to be marked PASS in the report.
    p99_limit_ms: float


UNIQUE_SMALL = Workload(name="unique-small", light_rps=85.0, busy_rps=120.0, p99_limit_ms=100.0)
HOT_REPEAT = Workload(name="hot-repeat", light_rps=500.0, busy_rps=1000.0, p99_limit_ms=60.0)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (UNIQUE_SMALL, HOT_REPEAT)}

#: hot-repeat shape: a pool of POOL_SIZE configs with Zipf(ZIPF_EXPONENT)
#: popularity, all journaled before the server boots; FRESH_BURST_SHARE of
#: arrivals instead start a burst of BURST_LENGTH back-to-back requests for
#: a config never seen before (a miss, plus duplicates that coalesce or hit).
#: The intensity swings by DIURNAL_SWING around its mean over DIURNAL_PERIOD_S.
POOL_SIZE = 300
ZIPF_EXPONENT = 1.1
FRESH_BURST_SHARE = 0.005
BURST_LENGTH = 3
DIURNAL_PERIOD_S = 2.0
DIURNAL_SWING = 0.8

#: Per-layer metric -> (unit, better, end-to-end metric it should move, on which workload).
LAYER_METRICS: Dict[str, Tuple[str, str, str, str]] = {
    "async_server.read_ms.p50": ("ms", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "async_server.write_ms.p50": ("ms", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "async_server.self_ms.p50": ("ms", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "schema.canonicalize_us.p50": ("us", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "schema.invalid": ("count", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "dispatcher.queue_wait_ms.p50": ("ms", "lower", "none: busy latency in the report", "unique-small"),
    "dispatcher.queue_wait_ms.p99": ("ms", "lower", "none: busy latency in the report", "unique-small"),
    "dispatcher.batch_size.mean": ("count", "higher", "server_cpu_ms_per_req", "unique-small"),
    "dispatcher.sims_per_request": ("ratio", "lower", "server_cpu_ms_per_req", "unique-small"),
    "dispatcher.coalesced_frac": ("ratio", "higher", "server_cpu_ms_per_req", "hot-repeat"),
    "dispatcher.shed_frac": ("ratio", "lower", "server_cpu_ms_per_req", "unique-small"),
    "cache.hit_ratio": ("ratio", "higher", "server_cpu_ms_per_req", "hot-repeat"),
    "cache.get_us.p50": ("us", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "cache.put_us.p50": ("us", "lower", "server_cpu_ms_per_req", "unique-small"),
    "cache.evictions": ("count", "lower", "server_cpu_ms_per_req", "unique-small"),
    "persistence.record_us.p50": ("us", "lower", "server_cpu_ms_per_req", "unique-small"),
    "persistence.journal_bytes_per_put": ("bytes", "lower", "server_cpu_ms_per_req", "unique-small"),
    "persistence.compactions": ("count", "lower", "server_cpu_ms_per_req", "unique-small"),
    "persistence.compact_ms.max": ("ms", "lower", "server_cpu_ms_per_req", "unique-small"),
    "persistence.replay_s": ("s", "lower", "setup_s", "hot-repeat"),
    "executor.build_tasks_us.p50": ("us", "lower", "server_cpu_ms_per_req", "unique-small"),
    "kernel.run_ms_per_job": ("ms", "lower", "server_cpu_ms_per_req", "unique-small"),
    "kernel.jobs_per_batch": ("count", "higher", "server_cpu_ms_per_req", "unique-small"),
    "engine.us_per_task": ("us", "lower", "server_cpu_ms_per_req", "unique-small"),
    "engine.self_frac": ("ratio", "lower", "server_cpu_ms_per_req", "unique-small"),
    "engine.view_calls_per_task": ("count", "lower", "server_cpu_ms_per_req", "unique-small"),
    "engine.view_us.p50": ("us", "lower", "server_cpu_ms_per_req", "unique-small"),
    "engine.events_per_task": ("count", "lower", "server_cpu_ms_per_req", "unique-small"),
    "schedulers.decide_calls_per_task": ("count", "lower", "server_cpu_ms_per_req", "unique-small"),
    **{
        f"schedulers.decide_us.{name}": ("us", "lower", "server_cpu_ms_per_req", "unique-small")
        for name in HEURISTICS
    },
    "metrics.evaluate_us_per_task": ("us", "lower", "server_cpu_ms_per_req", "unique-small"),
    "campaigns.run_cell_ms.p50": ("ms", "lower", "none: campaign path", "both"),
    "campaigns.aggregate_us.p50": ("us", "lower", "none: campaign path", "both"),
    "experiments.grid_build_s": ("s", "lower", "none: campaign path", "both"),
    "transport.serialize_us.p50": ("us", "lower", "server_cpu_ms_per_req", "hot-repeat"),
    "process.server_cpu_ms_per_req": ("ms", "lower", "server_cpu_ms_per_req", "both"),
    "process.gen_late_ms.p99": ("ms", "lower", "none: generator health", "both"),
    "trace.overhead_p50_frac": ("ratio", "lower", "none: cost of tracing", "both"),
}


# -- request generation -------------------------------------------------------
def _paper_config(
    rng: np.random.Generator, scheduler: str, seed: int, width: int = 0, n_tasks: int = 0
) -> Dict:
    """One paper-style request: 2-5 heterogeneous workers, 20-100 tasks.

    ``width`` and ``n_tasks`` are drawn here unless the caller fixes them.
    """
    width = width or int(rng.integers(2, 6))
    comm = [round(float(c), 3) for c in rng.uniform(0.05, 1.0, size=width)]
    comp = [round(float(p), 3) for p in rng.uniform(0.5, 4.0, size=width)]
    process = RELEASES[int(rng.integers(0, len(RELEASES)))]
    tasks: Dict = {"process": process, "n": n_tasks or int(rng.integers(20, 101))}
    if process == "poisson":
        tasks["rate"] = round(float(rng.uniform(0.5, 4.0)), 3)
    elif process == "uniform":
        tasks["horizon"] = round(float(rng.uniform(1.0, 20.0)), 3)
    return {
        "platform": {"comm": comm, "comp": comp},
        "tasks": tasks,
        "scheduler": scheduler,
        "seed": seed,
    }


def encode(request: Dict) -> str:
    """One request line (compact, key-sorted JSON)."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def poisson_arrivals(rng: np.random.Generator, rate: float, count: int) -> List[float]:
    """The first ``count`` arrival times of a homogeneous Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()


def diurnal_arrivals(rng: np.random.Generator, rate: float, count: int) -> List[float]:
    """The first ``count`` arrivals of an inhomogeneous Poisson process (Lewis-Shedler thinning).

    Intensity ``rate * (1 + swing * sin(2 pi t / period))`` — mean ``rate``,
    peaks at ``(1 + swing) * rate`` — thinned from a homogeneous envelope.
    """
    envelope = (1.0 + DIURNAL_SWING) * rate
    times: List[float] = []
    t = 0.0
    while len(times) < count:
        t += float(rng.exponential(1.0 / envelope))
        intensity = rate * (1.0 + DIURNAL_SWING * math.sin(2.0 * math.pi * t / DIURNAL_PERIOD_S))
        if float(rng.uniform(0.0, envelope)) < intensity:
            times.append(t)
    return times


class RequestSource:
    """The seeded request stream of one workload.

    ``phase(rate, count)`` returns the due times and request lines of one
    open-loop phase; successive phases continue the stream, so request ids
    (and, on ``unique-small``, configurations) never repeat within a run.
    Phases are sized in requests, not seconds, so every run puts the same
    number of writes through the cache and journal before each phase.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._rng = np.random.default_rng([seed, 0 if workload is UNIQUE_SMALL else 1])
        self._count = 0
        self._burst: List[Dict] = []
        self.pool: List[Dict] = []
        self._popularity = np.zeros(0)
        if workload is HOT_REPEAT:
            pool_rng = np.random.default_rng([seed, 2])
            self.pool = [
                _paper_config(pool_rng, HEURISTICS[i % len(HEURISTICS)], int(pool_rng.integers(0, 1 << 20)))
                for i in range(POOL_SIZE)
            ]
            weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_EXPONENT
            self._popularity = np.cumsum(weights / weights.sum())

    def _fresh_config(self, scheduler: str = "", width: int = 0, n_tasks: int = 0, ahead: int = 0) -> Dict:
        """A config never seen before, for the request ``ahead`` lines from now."""
        scheduler = scheduler or HEURISTICS[int(self._rng.integers(0, len(HEURISTICS)))]
        # Seeded by the request's index: no two fresh configs of a run share a key.
        seed = (1 << 21) + self.seed * 1_000_003 + self._count + ahead
        return _paper_config(self._rng, scheduler, seed, width, n_tasks)

    def _balanced_configs(self, count: int) -> List[Dict]:
        """``count`` fresh configs in which every heuristic, platform width and
        bag size occurs equally often, in a seeded order.

        Stratifying what a request costs keeps one phase's mix (and so its
        tail latency) alike across seeds; everything else is drawn freely.
        """
        heuristics = self._rng.permutation(np.resize(np.arange(len(HEURISTICS)), count))
        widths = self._rng.permutation(np.resize(np.arange(2, 6), count))
        strata = (np.arange(count) + self._rng.uniform(size=count)) * 81 / count
        sizes = self._rng.permutation(20 + strata.astype(int))
        return [
            self._fresh_config(HEURISTICS[int(h)], int(w), int(n), ahead=index)
            for index, (h, w, n) in enumerate(zip(heuristics, widths, sizes))
        ]

    def _next_config(self) -> Dict:
        if self._burst:
            return self._burst.pop()
        if self._rng.uniform(0.0, 1.0) < FRESH_BURST_SHARE:
            fresh = self._fresh_config()
            self._burst = [dict(fresh) for _ in range(BURST_LENGTH - 1)]
            return fresh
        rank = int(np.searchsorted(self._popularity, self._rng.uniform(0.0, 1.0), side="right"))
        return dict(self.pool[min(rank, POOL_SIZE - 1)])

    def _line(self, config: Dict, tag: str) -> str:
        request = dict(config)
        request["id"] = f"{tag}-{self._count:06d}"
        self._count += 1
        return encode(request)

    def probe(self) -> str:
        """One request answered before the timed phases (the set-up probe)."""
        config = dict(self.pool[0]) if self.workload is HOT_REPEAT else self._fresh_config()
        return self._line(config, "probe")

    def phase(self, rate: float, count: int, tag: str) -> Tuple[List[float], List[str]]:
        """Due times (s from phase start) and request lines of one phase."""
        if self.workload is HOT_REPEAT:
            due = diurnal_arrivals(self._rng, rate, count)
            configs = [self._next_config() for _ in due]
        else:
            due = poisson_arrivals(self._rng, rate, count)
            configs = self._balanced_configs(count)
        return due, [self._line(config, tag) for config in configs]

    def journal_lines(self) -> List[str]:
        """The pool, journaled before the server boots."""
        return [encode(dict(config, id=f"warm-{rank:04d}")) for rank, config in enumerate(self.pool)]


#: Share of ``--seconds`` given to the warm-up and to the light and busy phases.
WARMUP_SHARE = 0.03
LIGHT_SHARE = 0.5
BUSY_SHARE = 0.47
#: Chunks the light and the busy phase are each split into.
CHUNKS = 4
#: Fewest requests in the light or busy phase: enough for a p99
#: with more than ten samples beyond it.
MIN_PHASE_REQUESTS = 1100


def phase_requests(rate: float, share: float, seconds: float, minimum: int = MIN_PHASE_REQUESTS) -> int:
    """Requests in a phase offered at ``rate`` for ``share`` of ``seconds``."""
    return max(minimum, round(rate * share * seconds))


def phase_plan(workload: Workload, seconds: float) -> List[Tuple[str, float, int]]:
    """``(phase name, rate, requests)`` of the fixed phases of a run.

    After the warm-up, the light and busy phases are offered in CHUNKS
    alternating chunks (``light-1``, ``busy-1``, ``light-2``, ...), so
    both operating points sample the whole run: a slow spell of the
    machine is shared between them instead of falling on one.
    """
    light = -(-phase_requests(workload.light_rps, LIGHT_SHARE, seconds) // CHUNKS)
    busy = -(-phase_requests(workload.busy_rps, BUSY_SHARE, seconds) // CHUNKS)
    plan = [("warmup", workload.light_rps, phase_requests(workload.light_rps, WARMUP_SHARE, seconds, 1))]
    for chunk in range(1, CHUNKS + 1):
        plan += [(f"light-{chunk}", workload.light_rps, light), (f"busy-{chunk}", workload.busy_rps, busy)]
    return plan


def validate(workloads: Sequence[Workload] = tuple(WORKLOADS.values())) -> None:
    """Raise when the frozen constants are inconsistent."""
    if WARMUP_SHARE + LIGHT_SHARE + BUSY_SHARE > 1.0 + 1e-9:
        raise ValueError("phase shares exceed --seconds")
    for workload in workloads:
        if not 0 < workload.light_rps < workload.busy_rps:
            raise ValueError(f"{workload.name}: light must be below busy")
