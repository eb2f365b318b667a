"""The committed golden-trace corpus must match the current engine exactly.

``tests/golden/*.json`` (written by ``tools/golden_traces.py --regen``) pins
the canonical trace of every paper heuristic on three built-in scenarios.
An engine change that moves any float in any trace fails here with the
scenario and heuristic named; if the change is intentional, regenerate the
corpus and review the JSON diff alongside the engine diff.

The corpus doubles as the CI differential fixture: the array backend is
replayed against the same committed rows, so both backends are pinned to
one artefact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(_TOOLS) not in sys.path:
    sys.path.insert(0, str(_TOOLS))

from golden_traces import GOLDEN_DIR, GOLDEN_SCENARIOS, build_corpus  # noqa: E402

from repro.core.kernel import KernelJob, create_kernel  # noqa: E402
from repro.core.platform import Platform  # noqa: E402
from repro.scenarios import create_scenario  # noqa: E402
from repro.schedulers.base import PAPER_HEURISTICS  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    """The corpus recomputed once from the current engine."""
    return build_corpus()


def _committed(scenario_name):
    path = GOLDEN_DIR / f"{scenario_name}.json"
    assert path.exists(), f"{path} missing; run tools/golden_traces.py --regen"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario_name", GOLDEN_SCENARIOS)
def test_engine_matches_committed_golden_traces(corpus, scenario_name):
    committed = _committed(scenario_name)
    current = corpus[scenario_name]
    assert set(committed["traces"]) == set(PAPER_HEURISTICS)
    for name in PAPER_HEURISTICS:
        assert committed["traces"][name] == current["traces"][name], (
            f"{name} trace drifted on {scenario_name!r}; if intentional, "
            "regenerate with tools/golden_traces.py --regen"
        )
    # provenance fields are part of the artefact too
    assert set(committed) == set(current)
    for key in ("scenario", "platform", "n_tasks", "seed"):
        assert committed[key] == current[key]


@pytest.mark.parametrize("scenario_name", GOLDEN_SCENARIOS)
def test_array_backend_reproduces_the_golden_corpus(scenario_name):
    committed = _committed(scenario_name)
    platform = Platform.from_times(
        committed["platform"]["comm"], committed["platform"]["comp"]
    )
    import numpy as np

    instance = create_scenario(scenario_name).build(
        platform, committed["n_tasks"], np.random.default_rng(committed["seed"])
    )
    jobs = [
        KernelJob(name, platform, instance.tasks, timeline=instance.timeline)
        for name in PAPER_HEURISTICS
    ]
    results = create_kernel("array").run_batch(jobs)
    for name, result in zip(PAPER_HEURISTICS, results):
        assert result.trace() == committed["traces"][name]
