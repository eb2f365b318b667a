"""Numpy struct-of-arrays simulation backend (the ``"array"`` kernel).

The reference engine replays one run at a time through a Python event loop;
this backend simulates a whole *batch* of independent jobs in lockstep, with
the per-job state laid out as numpy arrays over ``(job, worker)`` and
``(job, task)`` so every step of the event loop becomes a handful of
vectorized operations across the batch:

* **Phase A (consult)** — for every job whose port is free and that has
  pending tasks, the scheduling rule is evaluated as array expressions over
  the worker axis (argmin ties resolve to the lowest worker id exactly like
  the reference schedulers' lexicographic keys);
* **Phase C (pop)** — each job's next event is picked from four candidate
  columns ordered exactly like :class:`~repro.core.events.EventKind`
  (compute completion, send completion, platform event, task release) with
  the push-sequence tie-break reproduced via per-worker sequence numbers;
* masked handlers then apply completions/arrivals/releases across the batch
  at once, including ``PLATFORM_EVENT`` re-pricing on dynamic platforms.

Bit-exactness
-------------
The backend reproduces the reference engine's floating-point arithmetic
expression for expression (same operand order, same ``max``/divide
structure; ``x * 1.0`` and ``x / 1.0`` are exact identities in IEEE-754, so
the unified dynamic-pricing path is bit-identical to the static one).  The
committed engine digests (``tests/test_engine_digests.py``) assert
event-for-event trace equality and bit-identical metrics with the reference
backend on the full scheduler × scenario grid.

Only the seven paper heuristics are vectorized (their decision rules are
pure functions of the worker state); any other scheduler — RANDOM, the
strict round-robins with their cyclic cursor, user-registered policies —
is transparently delegated to :class:`~repro.core.kernel.ReferenceKernel`
job by job, preserving the parity contract for every batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._sums import left_sum
from ..exceptions import SchedulingError, SchedulingStalledError
from .kernel import KernelJob, KernelResult, ReferenceKernel, SimulationKernel
from .schedule import Schedule, TaskRecord

__all__ = ["ArrayKernel", "VECTORIZED_SCHEDULERS"]

_INF = float("inf")
_BIGI = np.int64(2**62)  # sequence sentinel: larger than any real push count

#: Scheduler registry names the lockstep simulator can vectorize.
VECTORIZED_SCHEDULERS = frozenset(
    {"LS", "SRPT", "RR", "RRC", "RRP", "SLJF", "SLJFWC"}
)

# Per-job scheduler codes used to group rows by decision rule.
_CODE = {"LS": 0, "SRPT": 1, "RR": 2, "RRC": 3, "RRP": 4, "SLJF": 5, "SLJFWC": 6}
#: Bounded round-robin backlog bound (the family's constructor default).
_RR_MAX_BACKLOG = 2


class ArrayKernel(SimulationKernel):
    """Batched numpy backend: lockstep simulation of many jobs at once.

    Jobs whose scheduler is not in :data:`VECTORIZED_SCHEDULERS` fall back
    to the reference engine individually; the rest of the batch still runs
    through the vectorized path, and results come back aligned with the
    input order either way.
    """

    name = "array"

    def run_batch(self, jobs: Sequence[KernelJob]) -> List[KernelResult]:
        """Simulate the batch; vectorize what we can, delegate the rest."""
        jobs = list(jobs)
        results: List[Optional[KernelResult]] = [None] * len(jobs)
        fast: List[int] = []
        reference = None
        for index, job in enumerate(jobs):
            if job.scheduler.strip().upper() in VECTORIZED_SCHEDULERS:
                fast.append(index)
            else:
                if reference is None:
                    reference = ReferenceKernel()
                results[index] = reference.run(job)
        if fast:
            for index, result in zip(fast, _simulate_lockstep([jobs[i] for i in fast])):
                results[index] = result
        return [r for r in results if r is not None]


class _Batch:
    """Struct-of-arrays state for one lockstep run (internal)."""

    def __init__(self, jobs: Sequence[KernelJob]) -> None:
        from ..schedulers.sljf import DEFAULT_LOOKAHEAD, backward_plan

        B = len(jobs)
        self.jobs = jobs
        self.n = np.array([len(j.tasks) for j in jobs], dtype=np.int64)
        self.m = np.array([len(j.platform) for j in jobs], dtype=np.int64)
        N = int(self.n.max())
        M = int(self.m.max())
        self.N, self.M = N, M

        # Normalise trivial timelines away, exactly like the engine does.
        self.timelines = [
            j.timeline if j.timeline is not None and not j.timeline.is_trivial else None
            for j in jobs
        ]
        self.any_tl = any(t is not None for t in self.timelines)

        # -- task arrays (FIFO order; released tasks form a prefix) ----------
        self.rel = np.full((B, N + 1), _INF)
        self.tcf = np.ones((B, N))
        self.tpf = np.ones((B, N))
        self.tid = np.zeros((B, N), dtype=np.int64)
        for b, job in enumerate(jobs):
            for i, task in enumerate(job.tasks):
                self.rel[b, i] = task.release
                self.tcf[b, i] = task.comm_factor
                self.tpf[b, i] = task.comp_factor
                self.tid[b, i] = task.task_id

        # -- worker arrays (padded workers carry finite dummies) -------------
        self.base_c = np.ones((B, M))
        self.base_p = np.ones((B, M))
        self.wmask = np.zeros((B, M), dtype=bool)
        for b, job in enumerate(jobs):
            for j, worker in enumerate(job.platform):
                self.base_c[b, j] = worker.c
                self.base_p[b, j] = worker.p
                self.wmask[b, j] = True

        # -- per-scheduler static data ----------------------------------------
        code = np.zeros(B, dtype=np.int64)
        self.rr_rank = np.full((B, M), _BIGI, dtype=np.int64)
        self.quota = np.zeros((B, M), dtype=np.int64)
        for b, job in enumerate(jobs):
            c = _CODE[job.scheduler.strip().upper()]
            code[b] = c
            if c in (2, 3, 4):
                order = (
                    job.platform.order_by_turnaround()
                    if c == 2
                    else job.platform.order_by_comm()
                    if c == 3
                    else job.platform.order_by_comp()
                )
                for rank, j in enumerate(order):
                    self.rr_rank[b, j] = rank
            elif c in (5, 6):
                horizon = len(job.tasks) if job.expose_task_count else DEFAULT_LOOKAHEAD
                for j in backward_plan(job.platform, horizon, with_communication=c == 6):
                    self.quota[b, j] += 1
        self.fam_ls = code == 0
        self.fam_srpt = code == 1
        self.fam_rr = (code >= 2) & (code <= 4)
        self.fam_sl = code >= 5
        # Single-family batches (the common campaign/service shape) skip the
        # per-consult family dispatch entirely.
        self.uniform: Optional[str] = None
        for name, mask in (
            ("ls", self.fam_ls),
            ("srpt", self.fam_srpt),
            ("rr", self.fam_rr),
            ("sl", self.fam_sl),
        ):
            if mask.all():
                self.uniform = name
                break

        # -- timeline tracks, rebuilt through the public inclusive lookups ---
        self.has_tl = np.array([t is not None for t in self.timelines])
        breakpoints: List[List[List[float]]] = []
        K = 1
        for b, tl in enumerate(self.timelines):
            per_worker: List[List[float]] = []
            for j in range(int(self.m[b])):
                times = [0.0]
                if tl is not None:
                    for event in tl.events:
                        if event.worker_id == j and event.time != times[-1]:
                            times.append(event.time)
                per_worker.append(times)
                K = max(K, len(times))
            breakpoints.append(per_worker)
        self.tr_t = np.full((B, M, K), _INF)
        self.tr_cs = np.ones((B, M, K))
        self.tr_ps = np.ones((B, M, K))
        self.tr_av = np.ones((B, M, K), dtype=bool)
        for b, tl in enumerate(self.timelines):
            for j, times in enumerate(breakpoints[b]):
                for k, t in enumerate(times):
                    self.tr_t[b, j, k] = t
                    if tl is not None:
                        self.tr_cs[b, j, k] = tl.comm_speed(j, t)
                        self.tr_ps[b, j, k] = tl.comp_speed(j, t)
                        self.tr_av[b, j, k] = tl.available(j, t)

        # -- platform events, in (time, worker) order like the engine queue --
        E = max((len(t.events) if t is not None else 0) for t in self.timelines)
        self.pe_t = np.full((B, E + 1), _INF)
        self.pe_w = np.zeros((B, E + 1), dtype=np.int64)
        for b, tl in enumerate(self.timelines):
            if tl is not None:
                for i, event in enumerate(tl.events):
                    self.pe_t[b, i] = event.time
                    self.pe_w[b, i] = event.worker_id
        n_events = np.array(
            [len(t.events) if t is not None else 0 for t in self.timelines],
            dtype=np.int64,
        )
        self.max_events = 100 * np.maximum(self.n, 1) + 1000 + n_events

        # -- mutable simulation state -----------------------------------------
        self.now = np.zeros(B)
        self.channel_free_at = np.zeros(B)
        self.head = np.zeros(B, dtype=np.int64)  # tasks assigned so far
        self.released = np.zeros(B, dtype=np.int64)
        self.ncomp = np.zeros(B, dtype=np.int64)
        self.processed = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)
        # push-sequence counter: platform events took 0..E-1, releases E..E+n-1
        self.seq = n_events + self.n
        self.pe_ptr = np.zeros(B, dtype=np.int64)

        self.ready = np.zeros((B, M))
        self.backlog = np.zeros((B, M), dtype=np.int64)
        self.computing_end = np.full((B, M), _INF)
        self.computing_seq = np.full((B, M), _BIGI, dtype=np.int64)
        # cached effective values shown to schedulers (engine's eff_c/eff_p):
        self.eff_c = self.base_c / self.tr_cs[:, :, 0]
        self.eff_p = self.base_p / self.tr_ps[:, :, 0]
        self.avail = self.tr_av[:, :, 0].copy()

        # In-flight sends, FIFO by send_end.  More than one can be pending
        # per job: at an exact timestamp tie the engine consults (and may
        # start a new send) after a same-time completion but before the old
        # SEND_COMPLETE entry pops — capacity 4 is unreachable in practice.
        C = 4
        self.infl_w = np.full((B, C), -1, dtype=np.int64)
        self.infl_task = np.zeros((B, C), dtype=np.int64)
        self.infl_end = np.full((B, C), _INF)
        self.infl_cnt = np.zeros(B, dtype=np.int64)
        # Per-worker mirror of the engine's `_WorkerState.inflight` (newest
        # send to the worker, cleared by any send-completion on it); used
        # only by the re-pricing pass, exactly like the engine.
        self.wi_task = np.full((B, M), -1, dtype=np.int64)
        self.wi_end = np.full((B, M), _INF)

        # per-worker FIFO input queues as index chains into the task axis
        self.ch_task = np.zeros((B, M, N), dtype=np.int64)
        self.ch_arr = np.zeros((B, M), dtype=np.int64)
        self.ch_next = np.zeros((B, M), dtype=np.int64)

        # trace output
        self.snd_s = np.zeros((B, N))
        self.snd_e = np.zeros((B, N))
        self.cmp_s = np.zeros((B, N))
        self.cmp_e = np.zeros((B, N))
        self.asg_w = np.zeros((B, N), dtype=np.int64)

    # -- fresh timeline lookups (the pricing path, never cached) ------------
    def speeds_at(
        self, rows: np.ndarray, cols: np.ndarray, t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Comm/comp speed multipliers and availability at time ``t``.

        Inclusive lookup (state after every breakpoint ``<= t``), matching
        the engine's direct-timeline pricing of work started at ``t``.
        """
        sub = self.tr_t[rows, cols]  # (R, K)
        idx = (sub <= t[:, None]).sum(axis=1) - 1
        return (
            self.tr_cs[rows, cols, idx],
            self.tr_ps[rows, cols, idx],
            self.tr_av[rows, cols, idx],
        )

    def view_ready(self, rows: np.ndarray) -> np.ndarray:
        """Scheduler-visible ready times (``WorkerView.ready_time``)."""
        t = self.now[rows][:, None]
        return np.where(
            self.backlog[rows] > 0, np.maximum(self.ready[rows], t), t
        )


def _simulate_lockstep(jobs: Sequence[KernelJob]) -> List[KernelResult]:
    """Run every job to completion in one vectorized lockstep pass."""
    s = _Batch(jobs)
    guard_limit = int(s.n.max()) + 11

    rounds = 0
    while not s.done.all():
        _phase_consult(s, guard_limit)
        s.done |= s.ncomp >= s.n
        if s.done.all():
            break
        _phase_pop(s)
        s.done |= s.ncomp >= s.n
        rounds += 1
        # The budget is a runaway backstop, not a precise limit — checking
        # it every 256 rounds keeps the guard out of the per-event cost.
        if rounds % 256 == 0 and (s.processed > s.max_events).any():
            raise SchedulingError(
                "simulation exceeded the event budget; "
                "the scheduler is probably requesting wake-ups in a loop"
            )
    return _finalize(s)


# ---------------------------------------------------------------------------
# Phase A: scheduler consultation
# ---------------------------------------------------------------------------
def _phase_consult(s: _Batch, guard_limit: int) -> None:
    """Consult eligible jobs until each assigns-to-saturation or waits."""
    rows = np.flatnonzero(
        ~s.done & (s.channel_free_at <= s.now + 1e-15) & (s.released > s.head)
    )
    if rows.size == 0:
        return
    if s.any_tl:
        sync_rows = rows[s.has_tl[rows]]
        if sync_rows.size:
            _sync_rows(s, sync_rows)

    # A row that waits once is done consulting for this instant (the engine
    # breaks out of its consult loop on WAIT), so only rows that just
    # assigned are re-checked for another free-port assignment.
    guard = 0
    while rows.size:
        guard += 1
        if guard > guard_limit:
            raise SchedulingError(
                "scheduler returned more assignments than possible in one instant"
            )
        choice = _decide(s, rows)
        assign = choice >= 0
        if not assign.any():
            return
        assigned = rows[assign]
        _apply_assign(s, assigned, choice[assign])
        rows = assigned[
            (s.channel_free_at[assigned] <= s.now[assigned] + 1e-15)
            & (s.released[assigned] > s.head[assigned])
        ]


def _decide(s: _Batch, rows: np.ndarray) -> np.ndarray:
    """Vectorized scheduler decisions for ``rows``; -1 means wait."""
    if s.uniform is not None:
        return _UNIFORM_RULES[s.uniform](s, rows)
    choice = np.full(rows.size, -1, dtype=np.int64)
    ls = s.fam_ls[rows]
    if ls.any():
        choice[ls] = _ls_rule(s, rows[ls])
    srpt = s.fam_srpt[rows]
    if srpt.any():
        choice[srpt] = _srpt_rule(s, rows[srpt])
    rr = s.fam_rr[rows]
    if rr.any():
        choice[rr] = _rr_rule(s, rows[rr])
    sl = s.fam_sl[rows]
    if sl.any():
        choice[sl] = _sljf_rule(s, rows[sl])
    return choice


def _ls_rule(s: _Batch, r: np.ndarray) -> np.ndarray:
    """LS: argmin of estimated completion of the FIFO task (ties: lowest id)."""
    cf = s.tcf[r, s.head[r]][:, None]
    pf = s.tpf[r, s.head[r]][:, None]
    est = (
        np.maximum(s.now[r][:, None] + s.eff_c[r] * cf, s.view_ready(r))
        + s.eff_p[r] * pf
    )
    est[~s.wmask[r]] = _INF
    return est.argmin(axis=1)


def _srpt_rule(s: _Batch, r: np.ndarray) -> np.ndarray:
    """SRPT: fastest free worker by ``(p, c, id)``; wait when none is free."""
    free = (s.backlog[r] == 0) & s.wmask[r]
    k1 = np.where(free, s.eff_p[r], _INF)
    m1 = k1.min(axis=1)
    cand = k1 == m1[:, None]
    k2 = np.where(cand, s.eff_c[r], _INF)
    cand &= k2 == k2.min(axis=1)[:, None]
    out = cand.argmax(axis=1).astype(np.int64)
    out[~np.isfinite(m1)] = -1
    return out


def _rr_rule(s: _Batch, r: np.ndarray) -> np.ndarray:
    """Bounded round-robin: first under-backlog worker in prescribed order."""
    key = np.where(s.backlog[r] < _RR_MAX_BACKLOG, s.rr_rank[r], _BIGI)
    out = key.argmin(axis=1).astype(np.int64)
    out[key.min(axis=1) >= _BIGI] = -1
    return out


def _sljf_rule(s: _Batch, r: np.ndarray) -> np.ndarray:
    """SLJF/SLJFWC: quota-driven dispatch, LS rule once the plan is spent."""
    has_q = (s.quota[r] > 0) & s.wmask[r]
    any_q = has_q.any(axis=1)
    out = np.full(r.size, -1, dtype=np.int64)
    if (~any_q).any():
        out[~any_q] = _ls_rule(s, r[~any_q])
    if any_q.any():
        ra = r[any_q]
        hq = has_q[any_q]
        k1 = np.where(
            hq, np.maximum(s.view_ready(ra) - s.now[ra][:, None], 0.0), _INF
        )
        cand = k1 == k1.min(axis=1)[:, None]
        k2 = np.where(cand, -(s.quota[ra] * s.eff_p[ra]), _INF)
        cand &= k2 == k2.min(axis=1)[:, None]
        picked = cand.argmax(axis=1)
        s.quota[ra, picked] -= 1
        out[any_q] = picked
    return out


#: Dispatch table for single-family batches (see ``_Batch.uniform``).
_UNIFORM_RULES = {
    "ls": _ls_rule,
    "srpt": _srpt_rule,
    "rr": _rr_rule,
    "sl": _sljf_rule,
}


def _apply_assign(s: _Batch, r: np.ndarray, w: np.ndarray) -> None:
    """Start sending each row's FIFO task to its chosen worker."""
    h = s.head[r]
    t = s.now[r]
    dc = s.base_c[r, w] * s.tcf[r, h]
    dp = s.base_p[r, w] * s.tpf[r, h]
    if s.any_tl:
        cs, ps, _ = s.speeds_at(r, w, t)
        dc = dc / cs
        dp = dp / ps
    send_end = t + dc
    s.channel_free_at[r] = send_end
    s.ready[r, w] = np.maximum(s.ready[r, w], send_end) + dp
    s.backlog[r, w] += 1
    slot = s.infl_cnt[r]
    if (slot >= s.infl_w.shape[1]).any():
        raise SchedulingError("too many concurrent in-flight sends in one job")
    s.infl_w[r, slot] = w
    s.infl_task[r, slot] = h
    s.infl_end[r, slot] = send_end
    s.infl_cnt[r] += 1
    s.wi_task[r, w] = h
    s.wi_end[r, w] = send_end
    s.seq[r] += 1
    s.snd_s[r, h] = t
    s.snd_e[r, h] = send_end
    s.asg_w[r, h] = w
    s.head[r] += 1


# ---------------------------------------------------------------------------
# Dynamic-platform sync / re-pricing
# ---------------------------------------------------------------------------
def _sync_rows(s: _Batch, rows: np.ndarray) -> None:
    """Sync every worker of the given jobs from the timeline at ``now``."""
    idx = (s.tr_t[rows] <= s.now[rows][:, None, None]).sum(axis=2) - 1
    gather = idx[:, :, None]
    new_cs = np.take_along_axis(s.tr_cs[rows], gather, axis=2)[:, :, 0]
    new_ps = np.take_along_axis(s.tr_ps[rows], gather, axis=2)[:, :, 0]
    new_av = np.take_along_axis(s.tr_av[rows], gather, axis=2)[:, :, 0]
    new_eff_c = s.base_c[rows] / new_cs
    new_eff_p = s.base_p[rows] / new_ps
    changed = (
        (new_av != s.avail[rows])
        | (new_eff_c != s.eff_c[rows])
        | (new_eff_p != s.eff_p[rows])
    )
    if not changed.any():
        return
    s.eff_c[rows] = new_eff_c
    s.eff_p[rows] = new_eff_p
    s.avail[rows] = new_av
    for ri, ji in zip(*np.nonzero(changed)):
        _reprice(s, int(rows[ri]), int(ji))


def _sync_one(s: _Batch, b: int, j: int) -> bool:
    """Sync one worker from its timeline; True when anything changed."""
    tl = s.timelines[b]
    worker = s.jobs[b].platform[j]
    now_b = float(s.now[b])
    av = tl.available(j, now_b)
    ec = tl.effective_comm_time(worker, 1.0, now_b)
    ep = tl.effective_comp_time(worker, 1.0, now_b)
    if av == s.avail[b, j] and ec == s.eff_c[b, j] and ep == s.eff_p[b, j]:
        return False
    s.avail[b, j] = av
    s.eff_c[b, j] = ec
    s.eff_p[b, j] = ep
    return True


def _reprice(s: _Batch, b: int, j: int) -> None:
    """Recompute one worker's ready-time estimate (rates-persist, in order)."""
    if s.backlog[b, j] == 0:
        s.ready[b, j] = s.now[b]
        return
    tl = s.timelines[b]
    worker = s.jobs[b].platform[j]
    now_b = float(s.now[b])
    t = float(s.computing_end[b, j])
    if t == _INF:
        t = now_b
    for k in range(int(s.ch_next[b, j]), int(s.ch_arr[b, j])):
        task_index = int(s.ch_task[b, j, k])
        t += tl.effective_comp_time(worker, float(s.tpf[b, task_index]), now_b)
    if s.wi_task[b, j] >= 0:
        task_index = int(s.wi_task[b, j])
        t = max(t, float(s.wi_end[b, j])) + tl.effective_comp_time(
            worker, float(s.tpf[b, task_index]), now_b
        )
    s.ready[b, j] = t


# ---------------------------------------------------------------------------
# Phase C: pop the next event per job and apply the handlers
# ---------------------------------------------------------------------------
def _phase_pop(s: _Batch) -> None:
    """Advance every unfinished job by exactly one event (releases in bulk)."""
    act = np.flatnonzero(~s.done)
    ce = s.computing_end[act]
    t0 = ce.min(axis=1)
    t1 = s.infl_end[act, 0]
    t2 = s.pe_t[act, s.pe_ptr[act]]
    t3 = s.rel[act, s.released[act]]
    tt = np.stack([t0, t1, t2, t3], axis=1)
    kind = tt.argmin(axis=1)
    tmin = tt[np.arange(act.size), kind]
    if np.isinf(tmin).any():
        stuck = act[np.isinf(tmin)][0]
        remaining = int(s.released[stuck] - s.head[stuck])
        raise SchedulingStalledError(
            "scheduler declined to act and no future event exists; "
            f"{remaining} task(s) remain unassigned"
        )
    s.now[act] = np.maximum(s.now[act], tmin)
    s.processed[act] += 1

    start_r: List[np.ndarray] = []
    start_j: List[np.ndarray] = []
    counts = np.bincount(kind, minlength=4)

    # kind 0: COMPUTE_COMPLETE (same-time ties pop in push order)
    if counts[0]:
        sel0 = kind == 0
        r0 = act[sel0]
        tie = ce[sel0] == t0[sel0][:, None]
        j0 = np.where(tie, s.computing_seq[r0], _BIGI).argmin(axis=1)
        s.computing_end[r0, j0] = _INF
        s.computing_seq[r0, j0] = _BIGI
        s.backlog[r0, j0] -= 1
        s.ncomp[r0] += 1
        start_r.append(r0)
        start_j.append(j0)

    # kind 1: SEND_COMPLETE (arrival into the worker's FIFO queue)
    if counts[1]:
        sel1 = kind == 1
        r1 = act[sel1]
        j1 = s.infl_w[r1, 0]
        s.ch_task[r1, j1, s.ch_arr[r1, j1]] = s.infl_task[r1, 0]
        s.ch_arr[r1, j1] += 1
        s.infl_w[r1, :-1] = s.infl_w[r1, 1:]
        s.infl_task[r1, :-1] = s.infl_task[r1, 1:]
        s.infl_end[r1, :-1] = s.infl_end[r1, 1:]
        s.infl_w[r1, -1] = -1
        s.infl_end[r1, -1] = _INF
        s.infl_cnt[r1] -= 1
        s.wi_task[r1, j1] = -1
        s.wi_end[r1, j1] = _INF
        start_r.append(r1)
        start_j.append(j1)

    # kind 2: PLATFORM_EVENT (rare; per-job sync + re-price)
    if counts[2]:
        for b in act[kind == 2]:
            b = int(b)
            event_index = int(s.pe_ptr[b])
            s.pe_ptr[b] += 1
            j = int(s.pe_w[b, event_index])
            if _sync_one(s, b, j):
                _reprice(s, b, j)
            if (
                s.avail[b, j]
                and s.computing_end[b, j] == _INF
                and s.ch_next[b, j] < s.ch_arr[b, j]
            ):
                start_r.append(np.array([b], dtype=np.int64))
                start_j.append(np.array([j], dtype=np.int64))

    # kind 3: TASK_RELEASE — fast-forward runs of releases that cannot
    # trigger a consultation (port busy throughout) in one step.
    if counts[3]:
        sel3 = kind == 3
        r3 = act[sel3]
        other = tt[sel3, :3].min(axis=1)
        start = s.released[r3]
        rr = s.rel[r3]
        positions = np.arange(s.N + 1)[None, :]
        prev = np.empty_like(rr)
        prev[:, 1:] = rr[:, :-1]
        prev[:, 0] = _INF
        ok = (
            (positions > start[:, None])
            & (positions < s.n[r3][:, None])
            & (rr < other[:, None])
            & (s.channel_free_at[r3][:, None] > prev + 1e-15)
        )
        first_bad = (~ok & (positions > start[:, None])).argmax(axis=1)
        extra = first_bad - (start + 1)
        s.released[r3] = start + 1 + extra
        s.processed[r3] += extra
        s.now[r3] = np.maximum(s.now[r3], rr[np.arange(r3.size), start + extra])

    if start_r:
        _start_next(s, np.concatenate(start_r), np.concatenate(start_j))


def _start_next(s: _Batch, r: np.ndarray, j: np.ndarray) -> None:
    """Start the next queued computation on idle, available workers."""
    cond = (s.computing_end[r, j] == _INF) & (s.ch_next[r, j] < s.ch_arr[r, j])
    if s.any_tl:
        _, ps, av = s.speeds_at(r, j, s.now[r])
        cond &= av
    if not cond.any():
        return
    rr, jj = r[cond], j[cond]
    task_index = s.ch_task[rr, jj, s.ch_next[rr, jj]]
    dp = s.base_p[rr, jj] * s.tpf[rr, task_index]
    if s.any_tl:
        dp = dp / ps[cond]
    finish = s.now[rr] + dp
    s.computing_end[rr, jj] = finish
    s.computing_seq[rr, jj] = s.seq[rr]
    s.seq[rr] += 1
    s.ch_next[rr, jj] += 1
    s.cmp_s[rr, task_index] = s.now[rr]
    s.cmp_e[rr, task_index] = finish


# ---------------------------------------------------------------------------
# Finalisation
# ---------------------------------------------------------------------------
def _metrics_from_arrays(
    rel: np.ndarray,
    snd_s: np.ndarray,
    snd_e: np.ndarray,
    cmp_s: np.ndarray,
    cmp_e: np.ndarray,
    tid: np.ndarray,
) -> Dict[str, float]:
    """``evaluate(schedule).as_dict()`` computed straight from the arrays.

    Bit-exact replication of :func:`repro.core.metrics.evaluate`: the sums
    are :func:`~repro._sums.left_sum` folds of Python floats over the
    records in schedule order (``(send_start, task_id)``), the exact
    iteration order and operand order the reference path uses, so the
    floating-point results are identical down to the last ulp.  Asserted by
    the committed engine digests (``tests/test_engine_digests.py``) and by
    the kernel unit tests.
    """
    order = np.lexsort((tid, snd_s))
    n = rel.shape[0]
    total = float(cmp_e.max())
    sum_flow = left_sum((cmp_e - rel)[order].tolist())
    comm_busy = left_sum((snd_e - snd_s)[order].tolist())
    queue_sum = left_sum((cmp_s - snd_e)[order].tolist())
    return {
        "n_tasks": float(n),
        "makespan": total,
        "max_flow": float((cmp_e - rel).max()),
        "sum_flow": sum_flow,
        "mean_flow": sum_flow / n,
        "sum_completion": left_sum(cmp_e[order].tolist()),
        "master_utilisation": comm_busy / total if total > 0 else 0.0,
        "mean_queue_wait": queue_sum / n,
    }


def _schedule_factory(job: KernelJob, timeline, columns) -> Schedule:
    """Materialise one job's :class:`Schedule` from its trace columns."""
    tid, asg_w, rel, snd_s, snd_e, cmp_s, cmp_e = (
        column.tolist() for column in columns
    )
    rows = zip(tid, asg_w, rel, snd_s, snd_e, cmp_s, cmp_e)
    records = list(map(TaskRecord._make, rows))
    return Schedule(job.platform, job.tasks, records, timeline=timeline)


def _finalize(s: _Batch) -> List[KernelResult]:
    """Produce per-job results: eager metrics, lazily materialised schedules."""
    results: List[KernelResult] = []
    for b, job in enumerate(s.jobs):
        nb = int(s.n[b])
        metrics = _metrics_from_arrays(
            s.rel[b, :nb],
            s.snd_s[b, :nb],
            s.snd_e[b, :nb],
            s.cmp_s[b, :nb],
            s.cmp_e[b, :nb],
            s.tid[b, :nb],
        )
        columns = (
            s.tid[b, :nb].copy(),
            s.asg_w[b, :nb].copy(),
            s.rel[b, :nb].copy(),
            s.snd_s[b, :nb].copy(),
            s.snd_e[b, :nb].copy(),
            s.cmp_s[b, :nb].copy(),
            s.cmp_e[b, :nb].copy(),
        )
        timeline = s.timelines[b]
        results.append(
            KernelResult(
                metrics=metrics,
                schedule_factory=(
                    lambda job=job, timeline=timeline, columns=columns: (
                        _schedule_factory(job, timeline, columns)
                    )
                ),
            )
        )
    return results
