"""Process-parallel campaign runner with caching and streaming aggregation.

:func:`run_campaign` executes a grid of :class:`CampaignCell` cells:

1. cells whose configuration hash is present in the (optional)
   :class:`~repro.campaigns.cache.CampaignCache` are served from disk;
2. the remaining cells are cut into same-experiment chunks of at most
   :data:`_BATCH_CHUNK` (fewer when the pool's workers would otherwise sit
   idle), and every chunk runs through :func:`run_cell_batch` — inline
   (``workers <= 1`` or a single chunk) or on a
   :class:`concurrent.futures.ProcessPoolExecutor` — whatever the engine
   backend;
3. results stream into a :class:`StreamingAggregator` *in grid order* — a
   small reorder buffer holds out-of-order completions until their turn —
   so the aggregated statistics are bit-identical no matter how many
   workers raced to produce them.

The determinism contract (see ``docs/ARCHITECTURE.md``): a campaign's output
is a pure function of its grid.  Cells draw randomness only through
:func:`~repro.campaigns.grid.cell_rng`, aggregation order is the grid order,
and cached results are byte-for-byte what the computation produced, so
``workers=N``, ``workers=1`` and an all-cache re-run agree exactly.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import RunningStat
from ..core.kernel import DEFAULT_BACKEND, available_backends
from ..exceptions import CampaignError
from .cache import CampaignCache
from .cells import batch_runner, run_cell
from .grid import CampaignCell

__all__ = ["CampaignResult", "StreamingAggregator", "run_campaign", "run_cell_batch"]

#: Keep a small bound on in-flight futures so huge grids do not serialise
#: all their pending chunks into executor queues at once.
_MAX_INFLIGHT_PER_WORKER = 4

#: Largest chunk: big enough to amortise a pool task's pickling and the
#: lockstep kernel's setup, small enough to keep memory flat on huge grids
#: (per-batch state is O(batch x workers x tasks)).  On the pool, chunks
#: shrink so that every worker gets one (see :func:`_chunk_size`).
_BATCH_CHUNK = 32


class StreamingAggregator:
    """Order-restoring streaming aggregation of per-cell metrics.

    ``add`` accepts results in *any* order (parallel workers complete
    non-deterministically) but internally releases them to the
    :class:`~repro.analysis.stats.RunningStat` accumulators strictly in grid
    order, which keeps every floating-point reduction deterministic.

    Cells are grouped by a caller-provided key function (e.g. scheduler
    name); each numeric metric of each group gets its own accumulator.
    """

    def __init__(
        self,
        n_cells: int,
        group_key: Optional[Callable[[CampaignCell], str]] = None,
    ) -> None:
        self._n_cells = n_cells
        self._group_key = group_key or (lambda cell: cell.experiment)
        self._pending: Dict[int, Tuple[CampaignCell, Dict[str, Any]]] = {}
        self._cursor = 0
        self._stats: Dict[str, Dict[str, RunningStat]] = {}

    def add(self, cell: CampaignCell, metrics: Dict[str, Any]) -> None:
        """Buffer one cell's metrics; release to the accumulators in grid order."""
        if cell.index in self._pending or cell.index < self._cursor:
            raise CampaignError(f"cell index {cell.index} aggregated twice")
        self._pending[cell.index] = (cell, metrics)
        while self._cursor in self._pending:
            ready_cell, ready_metrics = self._pending.pop(self._cursor)
            self._consume(ready_cell, ready_metrics)
            self._cursor += 1

    def _consume(self, cell: CampaignCell, metrics: Dict[str, Any]) -> None:
        group = self._stats.setdefault(self._group_key(cell), {})
        for name, value in metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                group.setdefault(name, RunningStat()).add(float(value))

    @property
    def complete(self) -> bool:
        """True once every cell of the grid has been aggregated."""
        return self._cursor == self._n_cells and not self._pending

    def summaries(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{group: {metric: {n, mean, std, min, max, geo_mean}}}``."""
        return {
            group: {metric: stat.as_dict() for metric, stat in sorted(metrics.items())}
            for group, metrics in sorted(self._stats.items())
        }


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced, in grid order."""

    cells: Tuple[CampaignCell, ...]
    #: Per-cell metrics, aligned with ``cells``.
    metrics: Tuple[Dict[str, Any], ...]
    #: Streaming summaries grouped by the aggregator's key function.
    summaries: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: How many cells were served from the cache vs. simulated.
    n_cached: int = 0
    n_computed: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    def metrics_for(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Metrics of every cell whose parameters match ``criteria``."""
        matched = []
        for cell, metrics in zip(self.cells, self.metrics):
            if all(cell.param(key, None) == value for key, value in criteria.items()):
                matched.append(metrics)
        return matched


def _validated_grid(cells: Sequence[CampaignCell]) -> Tuple[CampaignCell, ...]:
    grid = tuple(cells)
    for position, cell in enumerate(grid):
        if cell.index != position:
            raise CampaignError(
                f"campaign grid is not contiguous: cell at position {position} "
                f"carries index {cell.index}"
            )
    return grid


def _chunk_size(n_cells: int, workers: int) -> int:
    """Cells per chunk: :data:`_BATCH_CHUNK`, or fewer so ``workers`` share the grid."""
    return min(_BATCH_CHUNK, max(1, math.ceil(n_cells / max(workers, 1))))


def _experiment_chunks(
    cells: Sequence[CampaignCell], size: int
) -> List[List[CampaignCell]]:
    """Split a grid-ordered cell list into same-experiment runs of <= size."""
    chunks: List[List[CampaignCell]] = []
    for cell in cells:
        if (
            chunks
            and chunks[-1][0].experiment == cell.experiment
            and len(chunks[-1]) < size
        ):
            chunks[-1].append(cell)
        else:
            chunks.append([cell])
    return chunks


def run_cell_batch(
    cells: Sequence[CampaignCell], engine_backend: str = DEFAULT_BACKEND
) -> List[Dict[str, Any]]:
    """Execute a same-experiment chunk of cells; metrics aligned with ``cells``.

    This is the campaign's one compute step, inline or in a worker process.
    On the reference backend, and for experiments without a registered
    batch runner, it loops :func:`~repro.campaigns.cells.run_cell` (through
    this module's binding, which perfbench's traced run wraps); otherwise
    the chunk is one kernel batch.  Results are identical either way
    (backend parity contract).
    """
    cells = list(cells)
    if not cells:
        return []
    experiment = cells[0].experiment
    if any(cell.experiment != experiment for cell in cells):
        raise CampaignError("run_cell_batch requires cells of one experiment")
    batch = None if engine_backend == "reference" else batch_runner(experiment)
    if batch is None:
        return [run_cell(cell) for cell in cells]
    metrics_list = batch(cells, engine_backend)
    if len(metrics_list) != len(cells):
        raise CampaignError(
            f"batch runner for {experiment!r} returned {len(metrics_list)} "
            f"result(s) for {len(cells)} cell(s)"
        )
    return metrics_list


def default_worker_count() -> int:
    """Number of processes ``workers=0`` resolves to (the machine's CPUs)."""
    return max(os.cpu_count() or 1, 1)


def run_campaign(
    cells: Sequence[CampaignCell],
    workers: int = 1,
    cache: Optional[CampaignCache] = None,
    group_key: Optional[Callable[[CampaignCell], str]] = None,
    on_result: Optional[Callable[[CampaignCell, Dict[str, Any], bool], None]] = None,
    engine_backend: str = DEFAULT_BACKEND,
) -> CampaignResult:
    """Execute a campaign grid and aggregate its results deterministically.

    Parameters
    ----------
    cells:
        The grid, with contiguous indices ``0..len-1`` (grid order is the
        aggregation order).
    workers:
        ``<= 1`` runs every cell inline; ``0`` means "all CPUs"; otherwise
        the number of worker processes to fan uncached cells out to.
    cache:
        Optional on-disk result cache; hits skip simulation entirely and
        computed cells are stored back.
    group_key:
        Grouping function for the streaming summaries (defaults to the
        cell's experiment name).
    on_result:
        Progress callback ``(cell, metrics, was_cached)`` invoked in
        completion order.
    engine_backend:
        Which simulation kernel executes uncached cells (see
        :mod:`repro.core.kernel`); the CLI always runs ``"reference"``.
        Every backend takes the same path: chunks of at most
        :data:`_BATCH_CHUNK` through :func:`run_cell_batch`, inline or on
        the pool.  Results and
        caches are identical either way (backend parity contract).
    """
    if workers < 0:
        raise CampaignError(f"workers must be >= 0, got {workers}")
    if engine_backend.lower() not in available_backends():
        raise CampaignError(
            f"unknown engine backend {engine_backend!r}; "
            f"available: {available_backends()}"
        )
    engine_backend = engine_backend.lower()
    if workers == 0:
        workers = default_worker_count()

    grid = _validated_grid(cells)
    aggregator = StreamingAggregator(len(grid), group_key=group_key)
    results: List[Optional[Dict[str, Any]]] = [None] * len(grid)
    n_cached = 0

    def _record(cell: CampaignCell, metrics: Dict[str, Any], was_cached: bool) -> None:
        results[cell.index] = metrics
        aggregator.add(cell, metrics)
        if on_result is not None:
            on_result(cell, metrics, was_cached)

    # 1. serve what the cache already knows
    to_compute: List[CampaignCell] = []
    for cell in grid:
        cached = cache.load(cell) if cache is not None else None
        if cached is not None:
            n_cached += 1
            _record(cell, cached, True)
        else:
            to_compute.append(cell)

    # 2. compute the rest, one same-experiment chunk at a time
    chunks = _experiment_chunks(to_compute, _chunk_size(len(to_compute), workers))

    def _computed(chunk: List[CampaignCell], metrics_list: List[Dict[str, Any]]) -> None:
        for cell, metrics in zip(chunk, metrics_list):
            if cache is not None:
                cache.store(cell, metrics)
            _record(cell, metrics, False)

    if workers <= 1 or len(chunks) <= 1:
        for chunk in chunks:
            _computed(chunk, run_cell_batch(chunk, engine_backend))
    else:
        max_workers = min(workers, len(chunks))
        with ProcessPoolExecutor(max_workers=max_workers) as executor:
            queue = list(reversed(chunks))  # pop() from the front of the grid
            in_flight = {}
            while queue or in_flight:
                while queue and len(in_flight) < max_workers * _MAX_INFLIGHT_PER_WORKER:
                    chunk = queue.pop()
                    in_flight[executor.submit(run_cell_batch, chunk, engine_backend)] = chunk
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    # result() re-raises worker exceptions
                    _computed(in_flight.pop(future), future.result())

    if not aggregator.complete:  # pragma: no cover - internal invariant
        raise CampaignError("campaign finished with unaggregated cells")
    return CampaignResult(
        cells=grid,
        metrics=tuple(results),  # type: ignore[arg-type]
        summaries=aggregator.summaries(),
        n_cached=n_cached,
        n_computed=len(to_compute),
    )
