"""Deterministic fault schedules for chaos-testing the sharded service.

The self-healing machinery (supervisor auto-restart, client
timeout/retry/breaker) is only trustworthy if its failure handling can be
*replayed*: a chaos run that cannot be reproduced cannot be debugged, and
a flaky chaos test is worse than none.  This module therefore separates
the **what/when** of fault injection (pure, seeded, declarative —
testable in microseconds) from the **doing** (signals against real
processes, owned by ``tools/chaos.py``):

* :class:`FaultEvent` — one fault: ``crash`` (SIGKILL a shard), ``stall``
  (SIGSTOP it for ``duration`` seconds, then SIGCONT — the shard is
  alive but silent, which is what exercises request timeouts), or
  ``drop`` (sever the client's connection mid-stream).  An event fires
  when a **monotone count** reaches its trigger (``at_request``); the
  caller picks the count's unit — submitted requests (deterministic) or
  elapsed centiseconds (a fixed wall-clock window) — and the schedule
  itself never reads a clock;
* :class:`FaultSchedule` — an ordered set of events, buildable from
  compact ``kind:shard@request[:duration]`` spec strings
  (:meth:`FaultSchedule.from_specs`) or sampled from a seeded burst
  model (:meth:`FaultSchedule.correlated_bursts`);
* the burst sampler implements the *correlated* failure shape of
  iterated Poisson processes (Hu et al., arXiv:2501.11322): faults
  arrive in bursts whose timing is one Poisson stream and whose size is
  another, rather than as independent single crashes — the regime that
  actually stresses capped-backoff restart and multi-shard degradation.

Everything here is pure data plus a seeded ``random.Random``; the same
``(spec, seed)`` pair always yields the same schedule, so
``tests/test_self_healing.py`` pins schedules exactly and a failing chaos
run can be re-driven unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..exceptions import ServiceError

__all__ = ["FaultEvent", "FaultSchedule", "FAULT_KINDS"]

#: The fault vocabulary the driver (``tools/chaos.py``) knows how to fire.
FAULT_KINDS = ("crash", "stall", "drop")

#: Burst model (:meth:`FaultSchedule.correlated_bursts`): mean number of
#: shards one burst takes down, the chance that a victim stalls instead
#: of crashing, and a stall's length in seconds.
_BURST_SIZE_MEAN = 1.5
_STALL_PROBABILITY = 0.25
_STALL_DURATION_S = 1.0


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault, ordered by its trigger count.

    Ordering is ``(at_request, shard, kind)`` via the dataclass field
    order, so a sorted schedule is deterministic even when several events
    share a trigger point.
    """

    #: Trigger on the caller's monotone count — submitted requests or
    #: elapsed centiseconds.  With submitted requests (0-based) the event
    #: fires just before request ``at_request`` is submitted.
    at_request: int
    #: Target shard index.
    shard: int
    #: One of :data:`FAULT_KINDS`.
    kind: str = "crash"
    #: Stall length in seconds (``stall`` only; ignored otherwise).
    duration: float = 0.0

    def __post_init__(self) -> None:
        """Validate the event against the fault vocabulary."""
        if self.kind not in FAULT_KINDS:
            raise ServiceError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_request < 0:
            raise ServiceError(f"at_request must be >= 0, got {self.at_request}")
        if self.shard < 0:
            raise ServiceError(f"shard must be >= 0, got {self.shard}")
        if self.kind == "stall" and self.duration <= 0:
            raise ServiceError(
                f"stall events need a duration > 0, got {self.duration}"
            )

    @classmethod
    def from_spec(cls, spec: str) -> "FaultEvent":
        """Parse one ``kind:shard@request[:duration]`` spec string.

        Examples: ``crash:1@100`` (SIGKILL shard 1 at request 100),
        ``stall:2@200:1.5`` (SIGSTOP shard 2 at request 200 for 1.5s),
        ``drop:0@50`` (sever the client's shard-0 connection at request 50).
        """
        try:
            head, at_part = spec.split("@", 1)
            kind, shard_part = head.split(":", 1)
            if ":" in at_part:
                at_text, duration_text = at_part.split(":", 1)
                duration = float(duration_text)
            else:
                at_text, duration = at_part, 0.0
            return cls(
                at_request=int(at_text),
                shard=int(shard_part),
                kind=kind,
                duration=duration,
            )
        except (ValueError, TypeError) as exc:
            raise ServiceError(
                f"malformed fault spec {spec!r}; expected "
                "'kind:shard@request[:duration]', e.g. 'crash:1@100' or "
                "'stall:2@200:1.5'"
            ) from exc

    def to_spec(self) -> str:
        """The event as its compact spec string (inverse of :meth:`from_spec`)."""
        base = f"{self.kind}:{self.shard}@{self.at_request}"
        if self.kind == "stall":
            return f"{base}:{self.duration:g}"
        return base


@dataclass
class FaultSchedule:
    """An ordered, replayable set of :class:`FaultEvent`.

    The harness calls :meth:`due` with its monotone trigger count (the
    submitted-request count, or elapsed centiseconds); events are handed
    out exactly once, in order.  The schedule itself holds no process
    handles and never touches a clock — it is pure data, so equality
    between two schedules built from the same ``(spec, seed)`` is exact.
    """

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Normalize to sorted order and reset the replay cursor."""
        self.events = sorted(self.events)
        self._cursor = 0

    @classmethod
    def from_specs(cls, specs: Iterable[str]) -> "FaultSchedule":
        """Build a schedule from ``kind:shard@request[:duration]`` strings."""
        return cls([FaultEvent.from_spec(spec) for spec in specs])

    @classmethod
    def correlated_bursts(
        cls,
        seed: int,
        *,
        n_shards: int,
        n_requests: int,
        n_bursts: int = 2,
    ) -> "FaultSchedule":
        """Sample a correlated-burst schedule from a seeded iterated model.

        Two seeded draws per burst, after the iterated-Poisson shape of
        catastrophic-risk models (arXiv:2501.11322): *when* the burst
        lands (uniform over the middle 80% of the request stream — the
        edges are boring: nothing in flight) and *how many* shards it
        takes down together (1 + Poisson(``_BURST_SIZE_MEAN - 1``),
        clipped to the shard count).  Within a burst each victim is
        independently a crash or, with ``_STALL_PROBABILITY``, a stall of
        ``_STALL_DURATION_S`` — so one replayed schedule exercises restart
        and timeout paths in the same run.
        """
        if n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
        if n_requests < 1:
            raise ServiceError(f"n_requests must be >= 1, got {n_requests}")
        rng = random.Random(seed)
        lo, hi = int(n_requests * 0.1), max(int(n_requests * 0.9), 1)
        events: List[FaultEvent] = []
        for _ in range(max(n_bursts, 0)):
            at_request = rng.randrange(lo, hi) if hi > lo else lo
            size = min(n_shards, 1 + _poisson(rng, _BURST_SIZE_MEAN - 1.0))
            victims = rng.sample(range(n_shards), size)
            for shard in victims:
                if rng.random() < _STALL_PROBABILITY:
                    events.append(
                        FaultEvent(at_request, shard, "stall", _STALL_DURATION_S)
                    )
                else:
                    events.append(FaultEvent(at_request, shard, "crash"))
        return cls(events)

    def due(self, submitted: int) -> List[FaultEvent]:
        """Events whose trigger has been reached by the count ``submitted``.

        Monotone replay cursor: each event is returned exactly once, and
        calls must pass non-decreasing counts (the driver's natural order).
        """
        fired: List[FaultEvent] = []
        while (
            self._cursor < len(self.events)
            and self.events[self._cursor].at_request <= submitted
        ):
            fired.append(self.events[self._cursor])
            self._cursor += 1
        return fired

    def reset(self) -> None:
        """Rewind the replay cursor (drive the same schedule again)."""
        self._cursor = 0

    @property
    def remaining(self) -> int:
        """Events not yet handed out by :meth:`due`."""
        return len(self.events) - self._cursor

    def shards_touched(self) -> List[int]:
        """Sorted shard indices any event targets (chaos-report summary)."""
        return sorted({event.shard for event in self.events})

    def to_specs(self) -> List[str]:
        """The schedule as spec strings — the replay recipe for a report."""
        return [event.to_spec() for event in self.events]

    def summary(self) -> Dict[str, object]:
        """Counts per fault kind plus the replay recipe (chaos reports)."""
        kinds: Dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return {
            "events": len(self.events),
            "kinds": kinds,
            "shards": self.shards_touched(),
            "specs": self.to_specs(),
        }


def _poisson(rng: random.Random, mean: float) -> int:
    """One Poisson(``mean``) draw via Knuth's product method (small means)."""
    limit = 2.718281828459045 ** (-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count
