"""What ``repro serve`` imports at start-up, and the lazy package exports.

Every shard, and every restart of one, imports its modules before it can
answer its first request.  The package ``__init__``s therefore resolve
their re-exported names on first access (:mod:`repro._lazy`) and the CLI
imports each non-serve handler's modules inside that handler.  These tests
pin the serve import set in a fresh interpreter, check that the lazy names
resolve to the defining modules' objects, and check that the registries
filled by import side effects stay complete where they are read.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios import available_scenarios

SRC = Path(__file__).resolve().parent.parent / "src"

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

#: Upper bound on the ``repro`` modules a shard loads: 36 do, where the
#: eager package ``__init__``s loaded 68.
MAX_SERVE_MODULES = 40

#: Names re-exported under ``__all__`` that are not functions or classes,
#: so carry no ``__module__``: where each is defined.
CONSTANTS = {
    "PAPER_HEURISTICS": "repro.schedulers.base",
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


def test_serve_path_imports_only_what_a_shard_runs(tmp_path):
    loaded = run_fresh(
        "import json, sys\n"
        "from repro.cli import _build_service, build_parser\n"
        "args = build_parser().parse_args(['serve', '--listen', '127.0.0.1:0',"
        f" '--state-dir', {str(tmp_path)!r}, '--quiet'])\n"
        "with _build_service(args):\n"
        "    pass\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    unexpected = [
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in NOT_ON_SERVE_PATH)
    ]
    assert unexpected == []
    repro_modules = [name for name in loaded if name == "repro" or name.startswith("repro.")]
    assert len(repro_modules) <= MAX_SERVE_MODULES, repro_modules


@pytest.mark.parametrize("package", ["repro", "repro.service", "repro.campaigns"])
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
