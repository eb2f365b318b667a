"""What ``repro serve`` imports at start-up, and the lazy package exports.

Every shard, and every restart of one, imports its modules before it can
answer its first request.  The package ``__init__``s therefore resolve
their re-exported names on first access (:mod:`repro._lazy`) and the CLI
imports each non-serve handler's modules inside that handler, and a shard
imports the compute path (numpy, the executor, the engine, the heuristics)
at its first cache miss.  These tests pin the serve import set in a fresh
interpreter after boot, after a journaled hit and after a miss, check that
the lazy names resolve to the defining modules' objects, and check that
the registries stay complete where they are read.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Set

import pytest

from repro.cli import _build_service, build_parser, main
from repro.scenarios import available_scenarios
from repro.service import ScheduleService, serve_lines

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Modules a shard never runs: the adversary games, the experiment and
#: campaign harnesses, the scenario library, the kernel interface and its
#: array backend, the Gantt renderer, the sharding client, the supervisor,
#: the fault model, the process pool and the profiler.
NOT_ON_SERVE_PATH = (
    "repro.theory",
    "repro.experiments",
    "repro.analysis",
    "repro.mpi_sim",
    "repro.scenarios",
    "repro.campaigns.runner",
    "repro.campaigns.cells",
    "repro.campaigns.cache",
    "repro.core.kernel",
    "repro.core.kernel_array",
    "repro.core.trace",
    "repro.service.sharding",
    "repro.service.supervisor",
    "repro.service.faults",
    "multiprocessing",
    "cProfile",
)

#: The ``repro`` modules a shard has loaded once it has booted, warm-loaded
#: its journal and answered cache hits: parse, canonicalize, cache lookup
#: and serialize, and nothing of the compute path.
BOOT_MODULES = frozenset((
    "repro",
    "repro._hashing",
    "repro._lazy",
    "repro.cli",
    "repro.exceptions",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.schedulers",
    "repro.schedulers.base",
    "repro.service",
    "repro.service.async_server",
    "repro.service.cache",
    "repro.service.dispatcher",
    "repro.service.observability",
    "repro.service.persistence",
    "repro.service.schema",
    "repro.service.server",
))

#: What the first cache miss adds, for a request naming ``LS``: the
#: executor, its seeding, the task builder, the engine, the metrics and
#: the one heuristic module the request runs.
MISS_MODULES = frozenset((
    "repro.campaigns",
    "repro.campaigns.grid",
    "repro.core",
    "repro.core.engine",
    "repro.core.events",
    "repro.core.metrics",
    "repro.core.platform",
    "repro.core.schedule",
    "repro.core.task",
    "repro.schedulers.list_scheduling",
    "repro.service.executor",
    "repro.workloads",
    "repro.workloads.release",
))

#: A request journaled before the shard boots (answered as a hit), and one
#: it has never seen (its first miss).
JOURNALED = {
    "platform": {"comm": [1.0, 2.0], "comp": [2.0, 1.0]},
    "tasks": {"process": "poisson", "n": 6, "rate": 1.5},
    "scheduler": "LS",
    "seed": 3,
}
FRESH = dict(JOURNALED, seed=4)

#: Names re-exported under ``__all__`` that are not functions or classes,
#: so carry no ``__module__``: where each is defined.
CONSTANTS = {
    "PAPER_HEURISTICS": "repro.schedulers.base",
    "MAX_BRUTE_FORCE_TASKS": "repro.schedulers.offline",
    "RELEASE_PROCESSES": "repro.service.schema",
    "SCHEMA_VERSION": "repro.service.schema",
    "FAULT_KINDS": "repro.service.faults",
    "CELL_RUNNERS": "repro.campaigns.cells",
}


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter with ``src`` on the path; its JSON stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout)


def serve_args(state_dir: Path) -> List[str]:
    """The ``repro serve`` argv of a listening shard with a journal."""
    return ["serve", "--listen", "127.0.0.1:0", "--state-dir", str(state_dir), "--quiet"]


def test_serve_path_imports_only_what_a_shard_runs(tmp_path):
    """A shard boots and answers hits without the compute path; a miss loads it."""
    with _build_service(build_parser().parse_args(serve_args(tmp_path))) as service:
        service.serve_chunk([json.dumps(JOURNALED)])
    lines = [json.dumps(JOURNALED), json.dumps(FRESH), json.dumps(JOURNALED)]
    states = run_fresh(
        "import json, sys\n"
        "from repro.cli import _build_service, build_parser\n"
        "from repro.service.server import response_line\n"
        "def loaded():\n"
        "    return sorted(sys.modules)\n"
        f"args = build_parser().parse_args({serve_args(tmp_path)!r})\n"
        "states, out = {}, []\n"
        "with _build_service(args) as service:\n"
        "    states['boot'] = loaded()\n"
        f"    for state, line in zip(('hit', 'miss', 'hit_again'), {lines!r}):\n"
        "        out.extend(response_line(r) for r in service.serve_chunk([line]))\n"
        "        states[state] = loaded()\n"
        "states['responses'] = out\n"
        "print(json.dumps(states))\n"
    )

    def repro_modules(state: str) -> Set[str]:
        return {name for name in states[state] if name == "repro" or name.startswith("repro.")}

    assert repro_modules("boot") == BOOT_MODULES
    assert repro_modules("hit") == BOOT_MODULES
    assert "numpy" not in states["hit"]
    assert repro_modules("miss") == BOOT_MODULES | MISS_MODULES
    assert "numpy" in states["miss"]
    assert states["hit_again"] == states["miss"]
    unexpected = [
        name
        for name in states["miss"]
        if any(name == root or name.startswith(root + ".") for root in NOT_ON_SERVE_PATH)
    ]
    assert unexpected == []

    # The lazily booted shard answers byte for byte like an eager process.
    importlib.import_module("repro.service.executor")
    expected = io.StringIO()
    serve_lines(lines, ScheduleService(), expected)
    assert states["responses"] == expected.getvalue().splitlines()
    assert [json.loads(line)["status"] for line in states["responses"]] == ["ok"] * 3

    # The docs quote the measured counts; keep them from drifting.
    for doc in ("ARCHITECTURE.md", "SERVICE.md"):
        text = (REPO_ROOT / "docs" / doc).read_text(encoding="utf-8")
        quoted = re.findall(r"(\d+)\s+`repro`\s+modules", text)
        assert quoted == [str(len(BOOT_MODULES)), str(len(BOOT_MODULES | MISS_MODULES))], (
            doc,
            quoted,
        )


@pytest.mark.parametrize(
    "package", ["repro", "repro.service", "repro.campaigns", "repro.schedulers"]
)
def test_lazy_exports_resolve_to_the_defining_objects(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed, name
        if name == "__version__":
            continue
        if isinstance(value, type(module)):
            assert value is importlib.import_module(f"{package}.{name}"), name
            continue
        defining = CONSTANTS.get(name) or value.__module__
        assert getattr(importlib.import_module(defining), name) is value, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_schema_alone_accepts_every_registered_scheduler():
    registered = run_fresh(
        "import json\n"
        "from repro.schedulers import available_schedulers\n"
        "print(json.dumps(available_schedulers()))\n"
    )
    assert "SRPT" in registered
    rejected = run_fresh(
        "import json\n"
        "import repro.service.schema as schema\n"
        "from repro.exceptions import RequestValidationError\n"
        "rejected = []\n"
        f"for name in {registered!r}:\n"
        "    payload = {'platform': {'comm': [1.0, 2.0], 'comp': [2.0, 1.0]},\n"
        "               'tasks': {'process': 'all-at-zero', 'n': 4},\n"
        "               'scheduler': name, 'seed': 0}\n"
        "    try:\n"
        "        schema.canonicalize_request(payload)\n"
        "    except RequestValidationError:\n"
        "        rejected.append(name)\n"
        "print(json.dumps(rejected))\n"
    )
    assert rejected == []


def test_unknown_campaign_scenario_exits_2_naming_every_scenario(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "figure1", "--scenario", "nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "'nope'" in err
    for name in available_scenarios():
        assert repr(name) in err, name
