"""Every public name in ``src/repro`` has a user outside the tests.

A name in any module's or package's ``__all__`` must appear in some
``src/``, ``benchmarks/`` or ``examples/`` file as an AST ``Name``, an
``Attribute`` or an imported name.  Uses inside the name's own module
count; its own ``def`` / ``class``, ``__all__`` lists (strings) and a
package ``__init__``'s re-export imports do not, and neither do
docstrings or comments: a ``:class:`` reference keeps nothing alive.  A
definition under a registration decorator (``@register``,
``@MODELS.register(...)``) is reached, because registering it is its use.

Names are matched by their bare identifier, so a same-named attribute
elsewhere counts as a use; the check errs towards keeping a name.  A name
only tests reach stays only with a one-line reason on :data:`ALLOWED`:
a paper artifact uses it, ``docs/extending.md`` names it, or it is a test
seam or a reference oracle.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "examples")

#: public names only tests reach, each with the reason it stays
ALLOWED = {
    "PoissonSampler": "the only sampler with dp_sample_rate < 1: without "
    "it the accountant's sampled-Gaussian branch cannot run",
    "softmax": "oracle for CrossEntropyLoss's gradient in "
    "tests/nn/test_loss_optim.py and tests/properties/test_props.py",
    "analyze_source": "the lint checkers' in-memory test seam",
}


def exported_names() -> dict:
    """``name -> [module paths]`` for every ``__all__`` under ``repro``."""
    out: dict = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                for elt in node.value.elts:
                    out.setdefault(elt.value, []).append(
                        str(path.relative_to(REPO_ROOT))
                    )
    return out


def _registers(decorator: ast.expr) -> bool:
    """``@register``, ``@register(...)`` or ``@X.register(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "attr", getattr(decorator, "id", None))
    return name == "register"


@functools.lru_cache(maxsize=None)
def referenced_names() -> frozenset:
    """Every identifier some ``src/`` / ``benchmarks/`` / ``examples/``
    file uses, under the rules in the module docstring."""
    names = set()
    for root in USERS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(alias.name for alias in node.names)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and any(_registers(d) for d in node.decorator_list):
                    names.add(node.name)
    return frozenset(names)


def test_scan_sees_the_public_surface():
    """The scan reads every ``__all__`` (guards a walk that finds nothing,
    which would pass vacuously) and counts registration as a use."""
    exported = exported_names()
    assert len(exported) > 200
    assert "DeterminismChecker" in exported
    assert "DeterminismChecker" in referenced_names()


def test_every_public_name_is_reached():
    reached = referenced_names()
    orphans = [
        f"{name} ({', '.join(paths)})"
        for name, paths in sorted(exported_names().items())
        if name not in reached and name not in ALLOWED
    ]
    assert not orphans, (
        "public names no src/, benchmarks/ or examples/ file uses; delete "
        "them (and their tests) or allow-list them with a reason:\n"
        + "\n".join(orphans)
    )


def test_allow_list_is_not_stale():
    exported = exported_names()
    reached = referenced_names()
    stale = [
        name
        for name in sorted(ALLOWED)
        if name not in exported or name in reached
    ]
    assert not stale, (
        "allow-listed names that are now reached or gone; drop them from "
        "ALLOWED:\n" + "\n".join(stale)
    )
