"""Every file the documentation points a reader at exists.

README.md, ``docs/*.md``, the verify skill and the docstrings under
``src/repro`` cite files in two forms: a ``*.md`` name (``CHANGES.md``), or
a repository path containing ``/`` (``docs/SERVICE.md``,
``schedulers/sljf.py``, ``tests/golden/``, ``docs/*.md``).  Each must
resolve relative to the repository root, ``docs``, ``src/repro``, ``src``
or the citing file's directory, so a reader is never sent to a file that
was deleted or never written.  Bare module names in tree listings
(``engine.py``) are out of scope.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

_MD_NAME = re.compile(r"(?<![\w./*-])((?:[\w.-]+/)*[\w-]+\.md)\b")
# One or more ``dir/`` segments, then either ``name.ext`` (which may be a
# glob) or nothing.  A path must not follow a word character, ``.``, ``/``
# or ``:`` (URLs, absolute paths), a segment starts with a letter (``1/p_j``
# is maths), an all-caps first segment is a placeholder (``DIR/shard-NN/``),
# and a bare ``word/`` ending a line is prose wrapped after a slash.
_REPO_PATH = re.compile(
    r"(?<![\w./:*-])((?![A-Z]+/)(?:\.?[A-Za-z_][\w-]*/)+"
    r"(?:[\w*-]+\.[A-Za-z*]+(?![\w/*])|(?![\w/*\n])))"
)


def _cited_texts() -> Iterator[Tuple[Path, str]]:
    """``(citing file, text)`` for every document and docstring in scope."""
    docs = [REPO_ROOT / "README.md", REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    docs += sorted((REPO_ROOT / "docs").glob("*.md"))
    for doc in docs:
        yield doc, doc.read_text(encoding="utf-8")
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(node, clean=False)
                if docstring:
                    yield module, docstring


def _resolves(citation: str, citing: Path) -> bool:
    for base in (REPO_ROOT, REPO_ROOT / "docs", PACKAGE, PACKAGE.parent, citing.parent):
        if "*" in citation:
            if any(base.glob(citation)):
                return True
        elif (base / citation).exists():
            return True
    return False


def _dangling() -> List[str]:
    found = []
    for citing, text in _cited_texts():
        citations = set(_MD_NAME.findall(text)) | set(_REPO_PATH.findall(text))
        for citation in sorted(citations):
            if not _resolves(citation, citing):
                found.append(f"{citing.relative_to(REPO_ROOT)}: {citation}")
    return found


def test_every_cited_file_exists():
    assert _dangling() == []


def test_the_scan_sees_each_form_of_citation():
    # guards the regexes: a scan that matches nothing would pass vacuously
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/SERVICE.md" in _REPO_PATH.findall(readme)
    assert "tests/" in _REPO_PATH.findall("tests/         tier-1 suite")
    assert _REPO_PATH.findall("see `docs/*.md` and benchmarks/bench_x_*.py") == [
        "docs/*.md",
        "benchmarks/bench_x_*.py",
    ]
    assert _MD_NAME.findall("recorded in DESIGN.md (Substitutions)") == ["DESIGN.md"]
    assert _REPO_PATH.findall(
        "c_j/p_j, RR/RRC/RRP, 1/p_j, https://a.org/b/c.md, /tmp/c/, DIR/x/, and/\nor"
    ) == []
    assert not _resolves("DESIGN.md", PACKAGE / "cli.py")
