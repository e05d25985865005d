"""Every repo path the user-facing docs name exists.

README.md, ``docs/*.md``, the skill notes, the CI workflow and
``pytest.ini`` tell a reader which script to run and which test pins a
claim.  A file deleted or renamed must leave those docs in the same
change, so each path under ``benchmarks/``, ``tests/``, ``src/`` or
``examples/`` (and each ``BENCH*.json``) they mention must exist, and
each ``path::name`` must name a ``def`` or ``class`` in that file.

ROADMAP.md and CHANGES.md are history and name deleted files on purpose;
``benchmarks/ledger/`` is the frozen benchmark and is not scanned.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

DOCS = (
    [REPO_ROOT / "README.md", REPO_ROOT / "pytest.ini"]
    + sorted((REPO_ROOT / "docs").glob("*.md"))
    + sorted((REPO_ROOT / ".claude" / "skills").glob("**/SKILL.md"))
    + [REPO_ROOT / ".github" / "workflows" / "ci.yml"]
)

#: a repo-relative path (``*`` globs allowed), optionally ``::name``;
#: not the tail of a longer path or URL
REFERENCE = re.compile(
    r"(?<![\w/.-])"
    r"((?:benchmarks|tests|src|examples)/[\w./*-]*[\w*]|BENCH[\w*]*\.json)"
    r"(?:::(\w+))?"
)


def references():
    """``(doc, path, name or None)`` for every path the docs name; a
    template such as ``golden_<scheduler>.json`` is not a path."""
    for doc in DOCS:
        text = doc.read_text()
        for match in REFERENCE.finditer(text):
            if text[match.end():match.end() + 1] in ("<", "{"):
                continue
            path, name = match.groups()
            yield doc.relative_to(REPO_ROOT), path, name


def defined_names(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }


def test_docs_name_paths():
    """The scan sees the docs' references (guards a regex that matches
    nothing, which would pass vacuously)."""
    assert len(list(references())) > 50


def test_doc_paths_exist():
    missing = [
        f"{doc}: {path}"
        for doc, path, _ in references()
        if not any(REPO_ROOT.glob(path))
    ]
    assert not missing, "docs name paths that do not exist:\n" + "\n".join(
        missing
    )


def test_doc_path_names_are_defined():
    unknown = [
        f"{doc}: {path}::{name}"
        for doc, path, name in references()
        if name is not None
        and (REPO_ROOT / path).is_file()
        and name not in defined_names(REPO_ROOT / path)
    ]
    assert not unknown, "docs name a def/class that is gone:\n" + "\n".join(
        unknown
    )
