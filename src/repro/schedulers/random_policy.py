"""Randomised and fixed-assignment baselines.

These policies are not part of the paper's experimental comparison; they are
used by the test-suite (as adversarially bad references) and by
property-based tests (any feasible policy must produce a feasible
schedule).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.engine import Decision, SchedulerView
from ..core.platform import Platform
from ..exceptions import SchedulingError
from .base import OnlineScheduler

__all__ = ["RandomScheduler", "FixedAssignmentScheduler", "SingleWorkerScheduler"]


class RandomScheduler(OnlineScheduler):
    """Send each task, as soon as the port is free, to a uniformly random worker."""

    name = "RANDOM"

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        self._seed = seed
        self._rng = self._generator()

    def _generator(self):
        """A fresh generator from the policy's seed."""
        # numpy loads with the first random policy, not with the registry.
        import numpy as np

        return np.random.default_rng(self._seed)

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Re-seed the private generator for a reproducible fresh run."""
        super().reset(platform, n_tasks_hint)
        # Re-seed on reset so repeated runs of the same instance are identical.
        self._rng = self._generator()

    def decide(self, view: SchedulerView) -> Decision:
        """Assign the FIFO task to a uniformly random worker."""
        worker_id = int(self._rng.integers(0, len(view.workers)))
        return Decision.assign(view.next_pending.task_id, worker_id)


class FixedAssignmentScheduler(OnlineScheduler):
    """Replay a predetermined worker sequence (task ``k`` in FIFO order goes to
    ``assignment[k]``), sending as soon as the port is free.

    This is the building block of the exhaustive off-line search and of the
    adversary games: any deterministic eager strategy on identical tasks is
    fully described by such a sequence.
    """

    name = "FIXED"

    def __init__(self, assignment: Sequence[int]) -> None:
        super().__init__()
        self.assignment = list(assignment)
        self._cursor = 0

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Validate the assignment against the platform, rewind the cursor."""
        super().reset(platform, n_tasks_hint)
        for worker_id in self.assignment:
            if not 0 <= worker_id < platform.n_workers:
                raise SchedulingError(
                    f"fixed assignment targets unknown worker {worker_id}"
                )
        self._cursor = 0

    def decide(self, view: SchedulerView) -> Decision:
        """Assign the FIFO task to the next worker of the fixed sequence."""
        if self._cursor >= len(self.assignment):
            raise SchedulingError(
                "fixed assignment exhausted: more tasks than planned positions"
            )
        worker_id = self.assignment[self._cursor]
        self._cursor += 1
        return Decision.assign(view.next_pending.task_id, worker_id)


class SingleWorkerScheduler(OnlineScheduler):
    """Send every task to one designated worker (a deliberately poor baseline)."""

    name = "SINGLE"

    def __init__(self, worker_id: int = 0) -> None:
        super().__init__()
        self.worker_id = worker_id

    def reset(self, platform: Platform, n_tasks_hint: Optional[int] = None) -> None:
        """Check that the designated worker exists on the platform."""
        super().reset(platform, n_tasks_hint)
        if not 0 <= self.worker_id < platform.n_workers:
            raise SchedulingError(f"unknown worker {self.worker_id}")

    def decide(self, view: SchedulerView) -> Decision:
        """Assign the FIFO task to the designated worker."""
        return Decision.assign(view.next_pending.task_id, self.worker_id)
