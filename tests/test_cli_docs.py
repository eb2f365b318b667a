"""docs/CLI.md must match :func:`repro.cli.build_parser` exactly.

The reference documents every subcommand as a ``## `repro <name>` ``
section, and every nested one (``repro campaign figure1``) as a
``## `repro <name> <sub>` `` section, whose flag table lists each option as
a row starting with ``| `--flag` |`` (positionals as
``| `name` (positional) |``).  A flag that several nested subcommands share
through a parent parser is documented once, in their parent's section.
This test re-derives the same inventory from the parser and fails on any
drift in either direction, so the documentation cannot rot.
"""

from __future__ import annotations

import argparse
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import build_parser

DOC_PATH = Path(__file__).resolve().parent.parent / "docs" / "CLI.md"

_SECTION_RE = re.compile(
    r"^## `repro (?P<name>[a-z0-9-]+(?: [a-z0-9-]+)?)`$", re.MULTILINE
)
_ROW_RE = re.compile(r"^\| `(?P<token>[a-z-]+|--[a-z-]+)`(?P<positional> \(positional\))? \|", re.MULTILINE)


def _documented_commands() -> dict:
    """``{"campaign figure1": {"flags": set, "positionals": set}, ...}`` from CLI.md."""
    text = DOC_PATH.read_text(encoding="utf-8")
    matches = list(_SECTION_RE.finditer(text))
    assert matches, "docs/CLI.md has no '## `repro <command>`' sections"
    sections = {}
    for match, nxt in zip(matches, matches[1:] + [None]):
        body = text[match.end(): nxt.start() if nxt else len(text)]
        flags, positionals = set(), set()
        for row in _ROW_RE.finditer(body):
            token = row.group("token")
            if token.startswith("--"):
                flags.add(token)
            else:
                assert row.group("positional"), (
                    f"docs/CLI.md row {token!r} under {match.group('name')!r} "
                    "is neither a --flag nor marked (positional)"
                )
                positionals.add(token)
        sections[match.group("name")] = {"flags": flags, "positionals": positionals}
    return sections


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """``{name: subparser}`` of a parser's subcommands (empty if it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _inventory(actions) -> dict:
    flags, positionals = set(), set()
    for action in actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            flags.update(opt for opt in action.option_strings if opt.startswith("--"))
        else:
            positionals.add(action.dest)
    return {"flags": flags, "positionals": positionals}


def _parser_commands() -> dict:
    """The same inventory, introspected from the argparse tree.

    An action that two nested subcommands share (the same object, added
    through ``parents=``) is counted in their parent's section only.
    """
    sections = {}
    for name, subparser in _subparsers(build_parser()).items():
        nested = _subparsers(subparser)
        uses = Counter(id(action) for child in nested.values() for action in child._actions)
        shared = [
            action
            for child in nested.values()
            for action in child._actions
            if uses[id(action)] > 1
        ]
        sections[name] = _inventory(subparser._actions + shared)
        for child_name, child in nested.items():
            own = [action for action in child._actions if uses[id(action)] == 1]
            sections[f"{name} {child_name}"] = _inventory(own)
    return sections


def test_every_subcommand_is_documented():
    documented = set(_documented_commands())
    actual = set(_parser_commands())
    assert documented == actual, (
        f"undocumented subcommands: {sorted(actual - documented)}; "
        f"stale documentation: {sorted(documented - actual)}"
    )


@pytest.mark.parametrize("command", sorted(_parser_commands()))
def test_documented_flags_match_parser(command):
    documented = _documented_commands()[command]
    actual = _parser_commands()[command]
    assert documented["flags"] == actual["flags"], (
        f"`repro {command}`: undocumented flags "
        f"{sorted(actual['flags'] - documented['flags'])}; stale flags "
        f"{sorted(documented['flags'] - actual['flags'])}"
    )
    assert documented["positionals"] == actual["positionals"], (
        f"`repro {command}`: positional mismatch (doc "
        f"{sorted(documented['positionals'])} vs parser "
        f"{sorted(actual['positionals'])})"
    )


def test_scenario_rows_name_every_registered_scenario():
    # ``--scenario`` is checked on use, not through ``choices=`` (building
    # the parser must not import the scenario library), so its usage line
    # lists no names and the reference must.
    from repro.scenarios import available_scenarios

    rows = re.findall(r"^\| `--scenario` \|.*$", DOC_PATH.read_text(encoding="utf-8"), re.M)
    assert len(rows) == 1, rows  # `repro campaign` is the only command with it
    for row in rows:
        missing = [name for name in available_scenarios() if f"`{name}`" not in row]
        assert not missing, (row, missing)
