"""The registries — ``SCHEDULERS`` and ``BACKENDS`` — against what pins
and documents them.

* ``golden-coverage`` — each scheduler's round shape is pinned bit for bit
  by ``tests/engine/golden_<name>.json``, which some ``tests/engine`` test
  references and offers a ``--regen`` path for, so a semantic change shows
  up as a golden diff with a documented way to accept it.
* ``readme-backends`` / ``quickstart-backends`` — the README's "Execution
  backend" capability row and the ``execution_backend`` bullet of
  ``examples/quickstart.py``'s docstring name exactly ``BACKENDS``, in
  registry order.
* ``readme-schedulers`` / ``architecture-schedulers`` — the README's
  "Scheduler" capability row and the scheduler table of
  ``docs/architecture.md`` name exactly ``SCHEDULERS``, in any order, each
  once.

Both registries are read from the source as literal tuples; keys name the
scheduler, or the listing that disagrees.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from tests.lint.index import Index

SCHEDULERS = ("src/repro/engine/schedulers.py", "SCHEDULERS")
BACKENDS = ("src/repro/runtime/backends.py", "BACKENDS")


def registry(index: Index, where: tuple) -> Optional[tuple]:
    """The literal tuple of names assigned at module level, or ``None``."""
    path, name = where
    for node in index.modules[path].tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
            and isinstance(node.value, (ast.Tuple, ast.List))
            and all(isinstance(e, ast.Constant) for e in node.value.elts)
        ):
            return tuple(e.value for e in node.value.elts)
    return None


def golden_coverage(index: Index) -> set:
    names = registry(index, SCHEDULERS)
    if names is None:
        return {"SCHEDULERS is not a literal tuple"}
    tests = {p: index.text(p) for p in index.glob("tests/engine/*.py")}
    found = set()
    for name in names:
        golden = f"golden_{name}.json"
        referring = [text for text in tests.values() if golden in text]
        if f"tests/engine/{golden}" not in index.paths:
            found.add(f"{name}: no {golden}")
        elif not referring:
            found.add(f"{name}: no test references {golden}")
        elif not any("regen" in text for text in referring):
            found.add(f"{name}: no --regen path for {golden}")
    return found


def _readme_row(index: Index, axis: str) -> Optional[tuple]:
    rows = [
        line
        for line in index.text("README.md").splitlines()
        if line.startswith(f"| **{axis}**")
    ]
    if len(rows) != 1:
        return None
    return tuple(re.findall(r"`([^`]+)`", rows[0].split("|")[2]))


def _architecture_schedulers(index: Index) -> Optional[tuple]:
    lines = index.text("docs/architecture.md").splitlines()
    if "| scheduler | deviation |" not in lines:
        return None
    names = []
    for line in lines[lines.index("| scheduler | deviation |") + 2:]:
        if not line.startswith("|"):
            break
        cell = re.fullmatch(r"`(\w+)`", line.split("|")[1].strip())
        names.append(cell[1] if cell else line)
    return tuple(names)


def _quickstart_backends(index: Index) -> Optional[tuple]:
    doc = ast.get_docstring(index.modules["examples/quickstart.py"].tree) or ""
    # the knob's bullet, not a later example that picks one backend
    bullets = re.findall(r'^\* ``execution_backend=((?:"\w+"(?: \| )?)+)``', doc, re.M)
    return tuple(re.findall(r'"(\w+)"', bullets[0])) if len(bullets) == 1 else None


def _disagrees(where: str, names: Optional[tuple], registered: tuple, ordered: bool) -> set:
    if names is not None and (
        names == registered
        if ordered
        else sorted(names) == sorted(registered) and len(set(names)) == len(names)
    ):
        return set()
    return {where}


def readme_backends(index: Index) -> set:
    return _disagrees(
        "README.md Execution backend row",
        _readme_row(index, "Execution backend"),
        registry(index, BACKENDS),
        ordered=True,
    )


def quickstart_backends(index: Index) -> set:
    return _disagrees(
        "examples/quickstart.py execution_backend bullet",
        _quickstart_backends(index),
        registry(index, BACKENDS),
        ordered=True,
    )


def readme_schedulers(index: Index) -> set:
    return _disagrees(
        "README.md Scheduler row",
        _readme_row(index, "Scheduler"),
        registry(index, SCHEDULERS),
        ordered=False,
    )


def architecture_schedulers(index: Index) -> set:
    return _disagrees(
        "docs/architecture.md scheduler table",
        _architecture_schedulers(index),
        registry(index, SCHEDULERS),
        ordered=False,
    )
