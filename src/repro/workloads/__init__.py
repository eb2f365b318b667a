"""Workload generation: release processes, random platforms, perturbations.

Import from the defining modules: :mod:`~repro.workloads.release`,
:mod:`~repro.workloads.platforms` and :mod:`~repro.workloads.perturbation`.
"""
