"""Every ``RunConfig`` field is a knob some caller outside the tests sets.

The ``RunConfig`` twin of ``test_reachability.py``: a field must be passed
by some ``src/`` or ``benchmarks/`` file other than ``fl/config.py``
itself, as a keyword argument or as a string key of a dict literal.  A
keyword whose value is ``<obj>.<the same name>`` does not count: that
forwards a field someone else set (``momentum=config.momentum``), it sets
nothing.  Tests and examples do not count either.  A field no caller sets
holds one value for every run, so it is a constant, not a knob; one that
stays anyway needs a one-line reason on :data:`ALLOWED`.

The read side is the twin: a field must also be read, as an attribute
(``config.x``) or a constant ``getattr`` name, somewhere in ``src/``
outside ``RunConfig.validate``.  A field only ``validate()`` looks at is
checked and then ignored, so it does nothing for any run.

Names are matched by their bare identifier, so a same-named keyword of
another constructor counts as setting the field (``mean_on_fraction=0.8``
to ``DutyCycleTrace``) and a same-named attribute of another object as
reading it; the checks err towards keeping a field.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path

from repro.fl import RunConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
CALLERS = ("src", "benchmarks")
CONFIG_MODULE = REPO_ROOT / "src" / "repro" / "fl" / "config.py"

#: fields no caller sets, each with the reason it stays
ALLOWED = {
    "availability_trace": "classic availability knob; ROADMAP 9(d) decides "
    "whether the classic trace folds into population presets",
}


def _forwards(keyword: ast.keyword) -> bool:
    """``name=<obj>.name``: passes on a value, sets nothing."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg


@functools.lru_cache(maxsize=None)
def set_names() -> frozenset:
    """Every keyword argument and dict-literal string key the callers
    write, under the rules in the module docstring."""
    names = set()
    for root in CALLERS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path == CONFIG_MODULE:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    names.update(
                        kw.arg
                        for kw in node.keywords
                        if kw.arg is not None and not _forwards(kw)
                    )
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
    return frozenset(names)


def _validate_nodes(tree: ast.AST) -> set:
    """ids of every node inside ``RunConfig.validate``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "RunConfig":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "validate":
                    return {id(node) for node in ast.walk(fn)}
    return set()


@functools.lru_cache(maxsize=None)
def read_names() -> frozenset:
    """Every attribute ``src/`` reads and every constant ``getattr`` name
    it asks for, outside ``RunConfig.validate``."""
    names = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _validate_nodes(tree) if path == CONFIG_MODULE else set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                names.add(node.args[1].value)
    return frozenset(names)


def field_names() -> list:
    return [f.name for f in dataclasses.fields(RunConfig)]


def test_scan_sees_the_callers():
    """The scan finds keyword arguments (guards a walk that finds nothing,
    which would pass vacuously) and skips forwarding."""
    names = set_names()
    assert {"scheduler", "execution_backend", "rounds"} <= names
    tree = ast.parse("f(momentum=config.momentum, lr=config.base_lr)")
    call = tree.body[0].value
    assert [_forwards(kw) for kw in call.keywords] == [True, False]


def test_every_field_is_set_by_a_caller():
    names = set_names()
    unset = [
        name
        for name in field_names()
        if name not in names and name not in ALLOWED
    ]
    assert not unset, (
        "RunConfig fields no src/ or benchmarks/ caller sets; make them "
        "constants where they are read (and delete their validate() checks "
        "and doc rows) or allow-list them with a reason:\n" + "\n".join(unset)
    )


def test_allow_list_is_not_stale():
    fields = set(field_names())
    names = set_names()
    stale = [
        name
        for name in sorted(ALLOWED)
        if name not in fields or name in names
    ]
    assert not stale, (
        "allow-listed fields that are now set or gone; drop them from "
        "ALLOWED:\n" + "\n".join(stale)
    )


def test_every_field_is_read_outside_validate():
    names = read_names()
    assert {"scheduler", "execution_backend", "rounds"} <= names
    unread = [name for name in field_names() if name not in names]
    assert not unread, (
        "RunConfig fields nothing in src/ reads outside RunConfig.validate: "
        "they are checked and then ignored.  Delete them (with their "
        "validate() checks and doc rows) or read them:\n" + "\n".join(unread)
    )
