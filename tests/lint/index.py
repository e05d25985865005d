"""The one index every lint rule reads.

:func:`repo_index` parses every ``.py`` under ``src/``, ``benchmarks/``
and ``examples/`` once per session and reads the docs corpus once; each
rule in ``tests/lint`` is a plain function over an :class:`Index` that
returns a set of finding keys.  An :class:`Index` built from a
``{path: text}`` dict is the same thing in memory, which is how
``test_cases.py`` feeds the rules their fixtures.

Call targets resolve one way, through :meth:`Module.resolve`: the first
segment of a ``Name`` / ``Attribute`` chain is looked up in the module's
import table (``import numpy as np``, ``from repro.fl import RunConfig as
C``), so ``np.random.rand`` reads ``numpy.random.rand`` and ``C`` reads
``repro.fl.RunConfig``.  Scopes are not modelled: a local that shadows an
import is rare enough for a lint pass.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
import os
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the trees whose ``.py`` files the index parses
USERS = ("src", "benchmarks", "examples")
#: the library itself, which most rules police
PACKAGE = "src/repro/"
#: the docs corpus: what users read for paths, knobs and registries
#: (globs over repo-relative paths)
DOCS = (
    "README.md",
    "pytest.ini",
    "docs/*.md",
    ".claude/skills/*/SKILL.md",
    ".github/workflows/ci.yml",
)
#: text the index reads besides the parsed trees: the docs corpus and the
#: golden tests
CORPUS = DOCS + ("tests/engine/*.py",)
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a ``Name`` / ``Attribute`` chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Module:
    """One parsed file: its tree, every node in ``ast.walk`` order, and
    its import table (local spelling -> canonical dotted name)."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self.nodes = list(ast.walk(self.tree))
        self.calls = [n for n in self.nodes if isinstance(n, ast.Call)]
        self.aliases: Dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.aliases[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name != "*":
                        self.aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The canonical dotted name ``node`` spells, or ``None``."""
        name = dotted(node)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        root = self.aliases.get(root, root)
        return f"{root}.{rest}" if rest else root

    def callee(self, call: ast.Call) -> Optional[str]:
        """A call's bare callee name: ``f`` of ``f(...)``, ``obj.f(...)``
        and of ``g(...)`` after ``from m import f as g``."""
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return self.aliases.get(func.id, func.id).rpartition(".")[2]
        return None


class Index:
    """Parsed modules, file texts and the set of paths of one tree.

    ``texts`` maps repo-relative paths to contents; every ``.py`` among
    them under :data:`USERS` is parsed.  The ``paths`` argument adds files
    the index knows exist without reading them (golden fixtures, test
    modules): ``files`` holds both, and the ``paths`` attribute adds their
    parent directories.  With a ``root``, a text asked for and not yet read
    is read from disk.
    """

    def __init__(
        self,
        texts: Dict[str, str],
        paths: Iterable[str] = (),
        root: Optional[Path] = None,
    ):
        self.texts = dict(texts)
        self.root = root
        self.modules = {
            path: Module(path, text)
            for path, text in sorted(self.texts.items())
            if path.endswith(".py") and path.split("/")[0] in USERS
        }
        self.files = frozenset(paths) | set(self.texts)
        self.paths = self.files | {
            str(parent) for f in self.files for parent in PurePosixPath(f).parents
        }

    def under(self, *prefixes: str) -> List[Module]:
        """The parsed modules whose path starts with one of ``prefixes``."""
        return [m for p, m in self.modules.items() if p.startswith(prefixes)]

    def package(self) -> List[Module]:
        return self.under(PACKAGE)

    def text(self, path: str) -> Optional[str]:
        """The contents of ``path``, or ``None`` when it does not exist."""
        if path not in self.texts and self.root is not None and path in self.files:
            self.texts[path] = (self.root / path).read_text()
        return self.texts.get(path)

    def glob(self, pattern: str) -> List[str]:
        """The known paths ``pattern`` matches, ``*`` within one part."""
        if "*" not in pattern:
            return [pattern] if pattern in self.paths else []
        depth = pattern.count("/")
        return sorted(
            p
            for p in self.paths
            if p.count("/") == depth and fnmatch.fnmatchcase(p, pattern)
        )

    @functools.cached_property
    def docs(self) -> str:
        """README.md and every ``docs/*.md``, joined."""
        return "\n".join(
            self.texts[p] for p in ["README.md", *self.glob("docs/*.md")]
            if p in self.texts
        )


@functools.lru_cache(maxsize=None)
def repo_index(root: Path = REPO_ROOT) -> Index:
    """The index of the checkout at ``root``, built once per session."""
    paths = []
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
        rel = Path(folder).relative_to(root)
        paths += [(rel / name).as_posix() for name in files]
    index = Index({}, paths, root)
    wanted = [p for p in paths if p.endswith(".py") and p.split("/")[0] in USERS]
    wanted += [p for pattern in CORPUS for p in index.glob(pattern)]
    return Index({p: (root / p).read_text() for p in wanted}, paths, root)
