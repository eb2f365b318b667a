"""Every backend reproduces the committed engine digests.

``tests/golden/engine_digests.jsonl`` (written by
``tools/engine_digests.py --write``) pins the reference engine's decisions
on 408 cases: one digest of the trace rows and metrics per case.  A change
that moves one task of one case fails here with that case's id; if the
change is intentional, regenerate the file and review its diff, which lists
every moved case with its old and new metrics.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.kernel import create_kernel
from repro.core.platform import Platform
from repro.schedulers.base import PAPER_HEURISTICS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "engine_digests.py"

_spec = importlib.util.spec_from_file_location("engine_digests", TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

#: The committed file, kept before any test points the tool elsewhere.
COMMITTED_FILE = digests.DIGEST_FILE


FAMILIES = ("grid", "hidden", "random", "golden", "shape")


@functools.lru_cache(maxsize=None)
def _lines(backend):
    """The digest lines of one backend, computed once per session."""
    return tuple(digests.digest_lines(backend))


@functools.lru_cache(maxsize=None)
def _problems(backend):
    """What the check reports for one backend against the committed file."""
    return tuple(digests.check(_lines(backend)))


def _family(case_id):
    return case_id.split("/", 1)[0]


def _committed():
    """The committed lines, parsed."""
    text = COMMITTED_FILE.read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", digests.BACKENDS)
def test_backend_reproduces_every_committed_digest(backend, family):
    # One test per family, so a failure names the backend and the family.
    assert [problem for problem in _problems(backend) if _family(problem[0]) == family] == []


def test_every_committed_line_belongs_to_a_family():
    assert {_family(line["case"]) for line in _committed()} == set(FAMILIES)


def test_write_reproduces_the_committed_bytes():
    # --write renders exactly this text, so regenerating an unchanged
    # engine leaves the file byte-identical.
    assert digests.render(_lines("reference")) == COMMITTED_FILE.read_text(encoding="utf-8")


def test_the_cases_cover_every_family_once():
    families = digests.families()
    assert {name: len(cases) for name, cases in families.items()} == {
        "grid": 7 * 8 * 5,
        "hidden": 7 * 2 * 2,
        "random": 60,
        "golden": 7 * 3,
        "shape": 19,
    }
    ids = [case_id for cases in families.values() for case_id, _ in cases]
    assert len(set(ids)) == len(ids)
    # Both sides of the array kernel: its vectorized rules and its per-job
    # delegation to the reference engine.
    schedulers = {job.scheduler for cases in families.values() for _, job in cases}
    assert schedulers >= set(PAPER_HEURISTICS)
    assert schedulers & set(digests.FALLBACK_SCHEDULERS)
    assert {job.expose_task_count for _, job in families["random"]} == {True, False}


def test_grid_platform_is_fully_heterogeneous():
    # The grid platform must exercise both heterogeneity dimensions,
    # otherwise scheduler tie-breaks would mask real divergences.
    comms = [worker.c for worker in digests.GRID_PLATFORM]
    comps = [worker.p for worker in digests.GRID_PLATFORM]
    assert len(set(comms)) == len(comms)
    assert len(set(comps)) == len(comps)


def test_random_corpus_generation_is_deterministic():
    first = digests.random_cases(8, seed=3)
    second = digests.random_cases(8, seed=3)
    for a, b in zip(first, second):
        assert a.scheduler == b.scheduler
        assert a.expose_task_count == b.expose_task_count
        assert [(w.c, w.p) for w in a.platform] == [(w.c, w.p) for w in b.platform]
        assert a.tasks.releases == b.tasks.releases
    other = digests.random_cases(8, seed=4)
    assert [job.tasks.releases for job in other] != [job.tasks.releases for job in first]


def test_hidden_task_count_moves_some_decision():
    # The hidden family pins a code path of its own only if hiding the task
    # count changes what some heuristic decides (the SLJF/SLJFWC horizon).
    kernel = create_kernel("reference")
    moved = [
        case_id
        for case_id, job in digests.families()["hidden"]
        if kernel.run(job).trace() != kernel.run(replace(job, expose_task_count=True)).trace()
    ]
    assert moved
    assert {case_id.rsplit("/", 1)[1] for case_id in moved} <= {"SLJF", "SLJFWC"}


@pytest.mark.parametrize(
    "case_id",
    [
        "grid/node-failure/3/SLJF",
        "hidden/degrading-worker/1/SLJFWC",
        "random/17/RR",
        "golden/degrading-worker/SRPT",
        "shape/mixed/GREEDY-COMM",
    ],
)
def test_a_changed_case_is_reported_by_its_id_alone(case_id):
    # One worker's link made slower in one case moves that case's digest,
    # and the check names that case alone.
    lines = _committed()
    cases = [case for family in digests.families().values() for case in family]
    index = [case_id for case_id, _ in cases].index(case_id)
    case_id, job = cases[index]
    links = [worker.c for worker in job.platform]
    links[0] *= 1.5
    platform = Platform.from_times(links, [worker.p for worker in job.platform])
    lines[index] = digests.digest_line(
        case_id, create_kernel("reference").run(replace(job, platform=platform))
    )
    problems = digests.check(lines)
    assert [problem_id for problem_id, _ in problems] == [case_id]
    assert problems[0][1].startswith("moved: ")


def test_missing_and_unknown_lines_are_reported(tmp_path):
    committed = _committed()
    dropped = committed[0]["case"]
    unknown = {**committed[1], "case": "grid/no-such-scenario/0/LS"}
    path = tmp_path / "engine_digests.jsonl"
    path.write_text(digests.render(committed[1:] + [unknown]), encoding="utf-8")
    assert digests.check(committed, path) == [
        (dropped, "missing from the file"),
        ("grid/no-such-scenario/0/LS", "in the file but no longer built"),
    ]


def _with_file(monkeypatch, tmp_path, lines):
    """Point the tool at a copy of the file holding ``lines``; every backend
    reuses this session's digest lines instead of running again."""
    path = tmp_path / "engine_digests.jsonl"
    path.write_text(digests.render(lines), encoding="utf-8")
    monkeypatch.setattr(digests, "DIGEST_FILE", path)
    monkeypatch.setattr(digests, "digest_lines", lambda backend: list(_lines(backend)))
    return path


def test_tool_exits_0_when_every_digest_holds(monkeypatch, tmp_path, capsys):
    lines = _committed()
    _with_file(monkeypatch, tmp_path, lines)
    assert digests.main([]) == 0
    out = capsys.readouterr().out
    for backend in digests.BACKENDS:
        assert f"{backend}: {len(lines)} case(s), 0 differ [ok]" in out


def test_tool_exits_1_and_names_each_moved_case(monkeypatch, tmp_path, capsys):
    lines = _committed()
    moved = lines[5]["case"]
    lines[5] = {**lines[5], "makespan": lines[5]["makespan"] + 1.0}
    _with_file(monkeypatch, tmp_path, lines)
    assert digests.main([]) == 1
    out = capsys.readouterr().out
    for backend in digests.BACKENDS:
        assert f"{backend}: {len(lines)} case(s), 1 differ [FAIL]" in out
    assert out.count(f"  {moved}: moved: makespan ") == len(digests.BACKENDS)


def test_tool_write_regenerates_the_committed_bytes(monkeypatch, tmp_path):
    path = _with_file(monkeypatch, tmp_path, [])
    assert digests.main(["--write"]) == 0
    assert path.read_bytes() == COMMITTED_FILE.read_bytes()
