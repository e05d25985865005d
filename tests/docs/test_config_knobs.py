"""Every ``RunConfig`` field is a knob some caller outside the tests sets.

The ``RunConfig`` twin of ``test_reachability.py``: a field must be passed
by some ``src/`` or ``benchmarks/`` file other than ``fl/config.py``
itself, as a keyword argument or as a string key of a dict literal.  A
keyword whose value is ``<obj>.<the same name>`` does not count: that
forwards a field someone else set (``momentum=config.momentum``), it sets
nothing.  Tests and examples do not count either.  A field no caller sets
holds one value for every run, so it is a constant, not a knob; one that
stays anyway needs a one-line reason on :data:`ALLOWED`.

Names are matched by their bare identifier, so a same-named keyword of
another constructor counts as setting the field (``mean_on_fraction=0.8``
to ``DutyCycleTrace``); the check errs towards keeping a field.
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
