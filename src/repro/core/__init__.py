"""Core substrate: task & platform model, one-port engine, schedules, metrics.

Everything else in :mod:`repro` (heuristics, lower-bound games, the simulated
MPI cluster and the experiment harness) is built on these primitives.  Import
them from their defining modules (:mod:`~repro.core.engine`,
:mod:`~repro.core.events`, :mod:`~repro.core.metrics`,
:mod:`~repro.core.platform`, :mod:`~repro.core.schedule`,
:mod:`~repro.core.task`, :mod:`~repro.core.trace`); the most used ones are
also re-exported by :mod:`repro` itself.
"""
