"""Self-healing shard supervisor — auto-restart with capped backoff.

``repro serve --listen HOST:PORT --shards N`` boots N shard server
processes on consecutive ports.  Before this module the supervisor was a
spawn-and-wait loop: a SIGKILLed shard stayed dead forever and every
request routed to it failed over to typed ``shard-unavailable`` responses
until the operator intervened.  :class:`ShardSupervisor` closes that gap:

* **monitoring** — children are polled; a shard that exits while the
  supervisor is not draining is a *crash*;
* **auto-restart** — a crashed shard is respawned **on its original
  port** (the routing arithmetic never moves, so clients reconnect to the
  same address) after a delay from :class:`RestartPolicy`: capped
  exponential backoff plus seeded jitter, so a crash-looping shard can
  never hot-loop respawns and a correlated burst of crashes (the MIPP
  failure model of arXiv:2501.11322) does not synchronize its restarts;
* **give-up** — after ``max_restarts`` *consecutive* crashes (a child
  that stays up for :data:`STABLE_AFTER_S` seconds resets its counter)
  the shard is abandoned and the supervisor keeps serving the surviving
  shards; the final exit code reports the degradation;
* **observability** — every death (with its restart delay) and every
  give-up is announced on stderr; each (re)spawn is announced by the
  spawner, for ``repro serve`` the CLI's ``shard I/N: HOST:PORT pid=P
  restarts=K`` line (``tools/chaos.py`` parses both to aim its faults
  and audit the backoff).  The restart count rides into the child on the
  ``REPRO_SHARD_RESTARTS`` environment variable so the shard's own
  ``{"type": "metrics"}`` response reports it;
* **signal forwarding** — SIGTERM/SIGINT is forwarded to every live
  child (each drains gracefully), pending restarts are cancelled, and
  the supervisor exits once every child has.

Time is injectable (``clock``/``sleep`` callables), so the restart
backoff sequence is unit-testable without real sleeps
(``tests/test_self_healing.py``).
"""

from __future__ import annotations

import math
import random
import signal as signal_module
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, TextIO

from ..exceptions import ServiceError

__all__ = [
    "BACKOFF_JITTER",
    "BACKOFF_MULTIPLIER",
    "MAX_BACKOFF_S",
    "STABLE_AFTER_S",
    "RestartPolicy",
    "ShardState",
    "ShardSupervisor",
]

#: Growth factor of the backoff delay between consecutive crashes.
BACKOFF_MULTIPLIER = 2.0
#: Relative jitter amplitude of a restart delay (``0.1`` = ±10%).
BACKOFF_JITTER = 0.1
#: Cap on the pre-jitter delay, in seconds, unless ``base_delay`` is larger.
MAX_BACKOFF_S = 8.0
#: Seconds a child must stay up for its crash counter to reset.
STABLE_AFTER_S = 30.0
#: Upper bound on the monitor's sleep between polls, in seconds.
_POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class RestartPolicy:
    """Backoff and give-up discipline for restarting a crashed shard.

    The delay before restart attempt ``k`` (1-based, counting consecutive
    crashes) is ``min(max_delay, base_delay * BACKOFF_MULTIPLIER ** (k - 1))``
    with ``max_delay = max(MAX_BACKOFF_S, base_delay)``, scaled by a
    jitter factor drawn uniformly from
    ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`` — the classic capped
    exponential backoff that prevents both hot-loop respawns and
    synchronized restart herds.
    """

    #: Delay before the first restart attempt, in seconds.
    base_delay: float = 0.5
    #: Consecutive crashes after which the shard is abandoned.
    max_restarts: int = 5

    def __post_init__(self) -> None:
        """Validate the policy's numeric ranges."""
        if not 0 < self.base_delay < math.inf:
            raise ServiceError(f"base_delay must be positive, got {self.base_delay}")
        if self.max_restarts < 0:
            raise ServiceError(f"max_restarts must be >= 0, got {self.max_restarts}")

    def delay(self, consecutive_crashes: int, rng: Optional[random.Random] = None) -> float:
        """The backoff delay before restart attempt ``consecutive_crashes``.

        Deterministic given the ``rng`` state — chaos runs seed it, so a
        replayed fault schedule reproduces the same restart timeline.
        """
        if consecutive_crashes < 1:
            raise ServiceError(
                f"consecutive_crashes must be >= 1, got {consecutive_crashes}"
            )
        raw = min(
            max(MAX_BACKOFF_S, self.base_delay),
            self.base_delay * BACKOFF_MULTIPLIER ** (consecutive_crashes - 1),
        )
        if rng is not None:
            raw *= 1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0)
        return raw


@dataclass
class ShardState:
    """Mutable supervision state of one shard slot."""

    #: Shard index (its port offset in the consecutive-port topology).
    index: int
    #: Live process handle, or ``None`` while dead/awaiting restart.
    process: Optional[Any] = None
    #: ``clock()`` timestamp of the last (re)spawn.
    started_at: float = 0.0
    #: Crashes since the last stable run (drives the backoff exponent).
    consecutive_crashes: int = 0
    #: Total restarts over the supervisor's lifetime.
    restarts: int = 0
    #: ``clock()`` deadline of the pending restart, if one is scheduled.
    restart_due: Optional[float] = None
    #: True once the crash-loop give-up tripped; the slot is abandoned.
    gave_up: bool = False
    #: Exit codes observed for this slot (the last one is the final one).
    exit_codes: List[int] = field(default_factory=list)


class ShardSupervisor:
    """Monitor shard children; restart crashes with capped backoff.

    Parameters
    ----------
    spawn:
        ``spawn(index, restarts) -> process`` — (re)creates shard
        ``index``'s child.  The handle must expose ``poll()``,
        ``send_signal(signum)``, ``wait()`` and ``pid``
        (:class:`subprocess.Popen` does; tests inject fakes).  The
        ``restarts`` argument is the lifetime restart count, which the CLI
        spawner exports as ``REPRO_SHARD_RESTARTS``.
    n_shards:
        Number of shard slots.
    policy:
        The :class:`RestartPolicy` (backoff + give-up discipline).  The
        jitter stream is ``random.Random(0)``, so restart timelines are
        reproducible.
    clock, sleep:
        Injectable time sources (``time.monotonic``/``time.sleep`` by
        default); tests drive :meth:`poll_once` under a fake clock with
        no real sleeps.
    err:
        Stream for the restart and give-up announcements (``None``
        silences them).
    """

    def __init__(
        self,
        spawn: Callable[[int, int], Any],
        n_shards: int,
        *,
        policy: Optional[RestartPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        err: Optional[TextIO] = None,
    ) -> None:
        if n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
        self._spawn = spawn
        self.policy = policy if policy is not None else RestartPolicy()
        self._rng = random.Random(0)
        self._clock = clock
        self._sleep = sleep
        self._err = err
        self.shards = [ShardState(index) for index in range(n_shards)]
        self.stopping = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn every shard child once."""
        for state in self.shards:
            self._spawn_shard(state)

    def _spawn_shard(self, state: ShardState) -> None:
        """(Re)spawn one shard slot; the spawner announces the new child."""
        state.process = self._spawn(state.index, state.restarts)
        state.started_at = self._clock()
        state.restart_due = None

    def _announce(self, message: str) -> None:
        if self._err is not None:
            print(f"supervisor: {message}", file=self._err, flush=True)

    # -- monitoring ---------------------------------------------------------
    def poll_once(self) -> Optional[float]:
        """One monitor pass; returns seconds until the next scheduled action.

        Detects deaths, schedules/executes restarts, trips the give-up.
        Returns ``None`` when every slot is terminal (exited while
        stopping, or gave up) — the run loop's exit condition — and
        ``math.inf`` when children are live but nothing is scheduled (the
        run loop then just sleeps its poll interval).  Pure state
        transition under the injected clock: tests call it directly.
        """
        now = self._clock()
        next_due: Optional[float] = None
        any_open = False
        for state in self.shards:
            if state.gave_up:
                continue
            if state.process is not None:
                code = state.process.poll()
                if code is None:
                    any_open = True
                    # A stable run forgives past crashes: the backoff
                    # exponent resets so a rare crash weeks apart restarts
                    # at base_delay, not at the cap.
                    if (
                        state.consecutive_crashes
                        and now - state.started_at >= STABLE_AFTER_S
                    ):
                        state.consecutive_crashes = 0
                    continue
                # Death observed.
                state.exit_codes.append(code)
                state.process = None
                if self.stopping:
                    continue  # a drained child exiting is not a crash
                state.consecutive_crashes += 1
                if state.consecutive_crashes > self.policy.max_restarts:
                    state.gave_up = True
                    self._announce(
                        f"shard {state.index + 1}/{len(self.shards)} crashed "
                        f"{state.consecutive_crashes} time(s) in a row "
                        f"(exit {code}); giving up"
                    )
                    continue
                delay = self.policy.delay(state.consecutive_crashes, self._rng)
                state.restart_due = now + delay
                any_open = True
                self._announce(
                    f"shard {state.index + 1}/{len(self.shards)} died "
                    f"(exit {code}); restart {state.restarts + 1} in "
                    f"{delay:.3f}s (crash {state.consecutive_crashes}/"
                    f"{self.policy.max_restarts})"
                )
            elif state.restart_due is not None:
                any_open = True
                if self.stopping:
                    state.restart_due = None
                    continue
                if now >= state.restart_due:
                    state.restarts += 1
                    self._spawn_shard(state)
                else:
                    remaining = state.restart_due - now
                    next_due = remaining if next_due is None else min(next_due, remaining)
        if not any_open:
            return None
        return next_due if next_due is not None else math.inf

    def run(self) -> int:
        """Supervise until every child has exited (post-stop) or given up.

        Installs SIGTERM/SIGINT handlers that forward the signal to every
        child and stop restarting.  Returns ``0`` when every shard exited
        cleanly and none was abandoned, ``1`` otherwise.
        """
        previous = {}
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                previous[signum] = signal_module.signal(
                    signum, lambda *_args: self.request_stop()
                )
            except ValueError:  # pragma: no cover - non-main thread
                pass
        try:
            self.start()
            while True:
                next_due = self.poll_once()
                if next_due is None:
                    break
                self._sleep(min(_POLL_INTERVAL_S, max(next_due, 0.0)))
        finally:
            for signum, handler in previous.items():
                signal_module.signal(signum, handler)
        clean = all(
            not state.gave_up
            and (not state.exit_codes or state.exit_codes[-1] == 0)
            for state in self.shards
        )
        return 0 if clean else 1

    def request_stop(self) -> None:
        """Stop restarting, forward SIGTERM to live children (idempotent)."""
        self.stopping = True
        for state in self.shards:
            state.restart_due = None
            if state.process is not None and state.process.poll() is None:
                try:
                    state.process.send_signal(signal_module.SIGTERM)
                except (ProcessLookupError, OSError):  # pragma: no cover
                    pass

    @property
    def total_restarts(self) -> int:
        """Restarts summed over every shard slot."""
        return sum(state.restarts for state in self.shards)
