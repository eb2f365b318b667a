"""Master-slave platform model.

A platform is a master plus ``m`` slave workers :math:`P_1, \\dots, P_m`.
Worker :math:`P_j` is characterised by two positive numbers:

``c_j``
    the time the master's (single) outgoing port is busy while sending one
    task to :math:`P_j` — the *communication time*;
``p_j``
    the time :math:`P_j` needs to execute one task — the *computation time*.

The paper distinguishes four platform classes which drive both the theory
(Table 1) and the experiments (Figure 1):

* **fully homogeneous** — all ``c_j`` equal and all ``p_j`` equal;
* **communication-homogeneous** — all ``c_j`` equal, ``p_j`` heterogeneous;
* **computation-homogeneous** — all ``p_j`` equal, ``c_j`` heterogeneous;
* **fully heterogeneous** — both heterogeneous.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .._sums import left_sum
from ..exceptions import PlatformError

__all__ = ["Worker", "Platform", "PlatformKind"]

#: Relative tolerance used when deciding whether two worker parameters are
#: "equal" for classification purposes.  The experiments generate parameters
#: from floating-point arithmetic, so exact equality would be too brittle.
_CLASSIFY_RTOL = 1e-9


class PlatformKind(enum.Enum):
    """The four platform classes studied in the paper."""

    HOMOGENEOUS = "homogeneous"
    COMMUNICATION_HOMOGENEOUS = "communication-homogeneous"
    COMPUTATION_HOMOGENEOUS = "computation-homogeneous"
    HETEROGENEOUS = "heterogeneous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Worker:
    """A slave processor.

    Attributes
    ----------
    worker_id:
        Index of the worker inside its platform (0-based).
    c:
        Communication time for one unit task (``c_j`` in the paper).
    p:
        Computation time for one unit task (``p_j`` in the paper).
    name:
        Optional human-readable name (defaults to ``P{worker_id + 1}`` to
        match the paper's 1-based notation).
    """

    worker_id: int
    c: float
    p: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise PlatformError(f"worker_id must be non-negative, got {self.worker_id}")
        if not math.isfinite(self.c) or self.c <= 0.0:
            raise PlatformError(f"communication time must be positive, got {self.c}")
        if not math.isfinite(self.p) or self.p <= 0.0:
            raise PlatformError(f"computation time must be positive, got {self.p}")
        if not self.name:
            object.__setattr__(self, "name", f"P{self.worker_id + 1}")

    @property
    def turnaround(self) -> float:
        """``c_j + p_j`` — the time to serve a single task on an empty system.

        This is the key used by the paper's plain Round-Robin ordering."""
        return self.c + self.p

    def comm_time(self, comm_factor: float = 1.0) -> float:
        """Communication time for a task with the given size factor."""
        return self.c * comm_factor

    def comp_time(self, comp_factor: float = 1.0) -> float:
        """Computation time for a task with the given size factor."""
        return self.p * comp_factor


def _all_close(values: Sequence[float]) -> bool:
    if not values:
        return True
    lo, hi = min(values), max(values)
    return hi - lo <= _CLASSIFY_RTOL * max(abs(hi), abs(lo), 1.0)


class Platform:
    """An immutable master-slave platform.

    Workers are stored in the order given at construction; their
    ``worker_id`` fields must be ``0..m-1`` (the convenience constructor
    :meth:`from_times` assigns them automatically).
    """

    def __init__(self, workers: Iterable[Worker]):
        workers = list(workers)
        if not workers:
            raise PlatformError("a platform needs at least one worker")
        ids = [w.worker_id for w in workers]
        if sorted(ids) != list(range(len(workers))):
            raise PlatformError(
                "worker ids must be exactly 0..m-1, got " + repr(sorted(ids))
            )
        self._workers: List[Worker] = sorted(workers, key=lambda w: w.worker_id)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_times(
        cls,
        comm_times: Sequence[float],
        comp_times: Sequence[float],
        names: Optional[Sequence[str]] = None,
    ) -> "Platform":
        """Build a platform from parallel lists of ``c_j`` and ``p_j``."""
        if len(comm_times) != len(comp_times):
            raise PlatformError("comm_times and comp_times must have the same length")
        if names is not None and len(names) != len(comm_times):
            raise PlatformError("names must have the same length as the time lists")
        workers = [
            Worker(
                worker_id=j,
                c=float(comm_times[j]),
                p=float(comp_times[j]),
                name=names[j] if names is not None else "",
            )
            for j in range(len(comm_times))
        ]
        return cls(workers)

    @classmethod
    def homogeneous(cls, n_workers: int, c: float, p: float) -> "Platform":
        """A fully homogeneous platform with ``n_workers`` identical slaves."""
        return cls.from_times([c] * n_workers, [p] * n_workers)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[Worker]:
        return iter(self._workers)

    def __getitem__(self, worker_id: int) -> Worker:
        try:
            return self._workers[worker_id]
        except IndexError as exc:
            raise PlatformError(f"unknown worker_id {worker_id}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return self._workers == other._workers

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        pairs = ", ".join(f"(c={w.c:g}, p={w.p:g})" for w in self._workers)
        return f"Platform[{pairs}]"

    # -- accessors ----------------------------------------------------------
    @property
    def workers(self) -> Tuple[Worker, ...]:
        """The workers in id order."""
        return tuple(self._workers)

    @property
    def n_workers(self) -> int:
        """Number of slave workers ``m``."""
        return len(self._workers)

    @property
    def comm_times(self) -> List[float]:
        """``c_j`` per worker, in id order."""
        return [w.c for w in self._workers]

    @property
    def comp_times(self) -> List[float]:
        """``p_j`` per worker, in id order."""
        return [w.p for w in self._workers]

    # -- classification -----------------------------------------------------
    @property
    def communication_homogeneous(self) -> bool:
        """True when all ``c_j`` are (numerically) equal."""
        return _all_close(self.comm_times)

    @property
    def computation_homogeneous(self) -> bool:
        """True when all ``p_j`` are (numerically) equal."""
        return _all_close(self.comp_times)

    @property
    def kind(self) -> PlatformKind:
        """The platform class in the sense of Table 1 / Figure 1."""
        comm = self.communication_homogeneous
        comp = self.computation_homogeneous
        if comm and comp:
            return PlatformKind.HOMOGENEOUS
        if comm:
            return PlatformKind.COMMUNICATION_HOMOGENEOUS
        if comp:
            return PlatformKind.COMPUTATION_HOMOGENEOUS
        return PlatformKind.HETEROGENEOUS

    # -- heterogeneity measures ----------------------------------------------
    @property
    def communication_heterogeneity(self) -> float:
        """``max c_j / min c_j`` — 1.0 on communication-homogeneous platforms."""
        times = self.comm_times
        return max(times) / min(times)

    @property
    def computation_heterogeneity(self) -> float:
        """``max p_j / min p_j`` — 1.0 on computation-homogeneous platforms."""
        times = self.comp_times
        return max(times) / min(times)

    # -- orderings used by the heuristics ------------------------------------
    def order_by_comm(self) -> List[int]:
        """Worker ids ordered by increasing ``c_j`` (ties by id) — RRC order."""
        return sorted(range(self.n_workers), key=lambda j: (self._workers[j].c, j))

    def order_by_comp(self) -> List[int]:
        """Worker ids ordered by increasing ``p_j`` (ties by id) — RRP order."""
        return sorted(range(self.n_workers), key=lambda j: (self._workers[j].p, j))

    def order_by_turnaround(self) -> List[int]:
        """Worker ids ordered by increasing ``c_j + p_j`` (ties by id) — RR order."""
        return sorted(
            range(self.n_workers), key=lambda j: (self._workers[j].turnaround, j)
        )

    def fastest_worker(self) -> Worker:
        """The worker with the smallest computation time (``P_1`` in Section 3.2)."""
        return min(self._workers, key=lambda w: (w.p, w.worker_id))

    # -- aggregate quantities ------------------------------------------------
    @property
    def total_speed(self) -> float:
        """Aggregate processing rate :math:`\\sum_j 1/p_j` (tasks per time unit),
        ignoring communications."""
        return left_sum(1.0 / w.p for w in self._workers)

    def steady_state_throughput(self) -> float:
        """Upper bound on sustainable task throughput under the one-port model.

        The master can inject at most :math:`1/\\min_j c_j` tasks per time unit
        and the slaves can absorb at most :math:`\\sum_j 1/p_j`; the actual
        optimal steady-state rate for identical tasks is
        :math:`\\min(1/\\min_j c_j, \\sum_j 1/p_j)` when every task may go to any
        slave (classical master-slave throughput result).  Used as a sanity
        bound by the experiment harness.
        """
        injection = 1.0 / min(self.comm_times)
        absorption = self.total_speed
        return min(injection, absorption)

    def describe(self) -> Dict[str, object]:
        """A dictionary summary used by reports and experiment metadata."""
        return {
            "n_workers": self.n_workers,
            "kind": str(self.kind),
            "comm_times": self.comm_times,
            "comp_times": self.comp_times,
            "communication_heterogeneity": self.communication_heterogeneity,
            "computation_heterogeneity": self.computation_heterogeneity,
            "steady_state_throughput": self.steady_state_throughput(),
        }
