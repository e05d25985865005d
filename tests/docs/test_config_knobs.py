"""Every ``RunConfig`` field is a knob some caller outside the tests sets.

The ``RunConfig`` twin of ``test_reachability.py``: a field must be passed
by some ``src/`` or ``benchmarks/`` file other than ``fl/config.py``
itself, as a keyword argument or as a string key of a dict literal.  A
keyword whose value is ``<obj>.<the same name>`` does not count: that
forwards a field someone else set (``momentum=config.momentum``), it sets
nothing.  Nor does a keyword to a ``src/`` callable that declares that
parameter itself (``DutyCycleTrace(mean_on_fraction=0.8)`` sets the
trace's fraction, not the config's) — unless that name is also forwarded
into a config somewhere, as ``x=<obj>.x`` to a callee that does not
declare ``x`` (``eval_top_k=1`` to ``Scenario`` counts, because
``build_config`` forwards ``eval_top_k=scenario.eval_top_k`` into the
config's ``dict``).  Tests and examples do not count either.  A field no
caller sets holds one value for every run, so it is a constant, not a
knob; one that stays anyway needs a one-line reason on :data:`ALLOWED`.

The read side is the twin: a field must also be read, as an attribute
(``config.x``) or a constant ``getattr`` name, somewhere in ``src/``
outside ``RunConfig.validate``.  A field only ``validate()`` looks at is
checked and then ignored, so it does nothing for any run.

Callees are matched by their bare name (``Name(...)`` or
``obj.name(...)``) against every function and class ``src/`` defines
(``RunConfig`` itself aside); a class declares its ``__init__``
parameters and its annotated fields.  Read-side names are matched by
their bare identifier too, so a same-named attribute of another object
counts as reading a field; the read check errs towards keeping one.
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
    "mean_on_fraction": "classic availability knob (callers set only the "
    "traces' own parameter); ROADMAP 9(d) folds it into a population preset",
    "dropout_prob": "classic availability knob (callers set only the "
    "population's own parameter); ROADMAP 9(d) folds it into a population "
    "preset",
}


def _forwards(keyword: ast.keyword) -> bool:
    """``name=<obj>.name``: passes on a value, sets nothing."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg


def _callee(call: ast.Call):
    """A call's bare callee name: ``f`` of ``f(...)`` and ``obj.f(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def declared_params(trees) -> dict:
    """Callable name -> every parameter a same-named function or class
    in ``trees`` declares (a class: its ``__init__`` and its annotated
    fields).  ``RunConfig`` is left out: a keyword to it sets a field."""
    declared: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                names = {a.arg for a in params}
            elif isinstance(node, ast.ClassDef) and node.name != "RunConfig":
                names = set()
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        names.add(item.target.id)
                    elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        args = item.args
                        names.update(
                            a.arg for a in args.args + args.kwonlyargs
                        )
            else:
                continue
            declared.setdefault(node.name, set()).update(names)
    return declared


def names_set(trees, declared: dict) -> frozenset:
    """Every keyword argument and dict-literal string key ``trees`` write,
    under the rules in the module docstring, given the ``src/``
    declarations ``declared``."""
    calls = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    # names forwarded into a config: x=<obj>.x to a callee not declaring x
    into_config = {
        kw.arg
        for call in calls
        for kw in call.keywords
        if kw.arg is not None
        and _forwards(kw)
        and kw.arg not in declared.get(_callee(call), ())
    }
    names = set()
    for call in calls:
        own = declared.get(_callee(call), ())
        names.update(
            kw.arg
            for kw in call.keywords
            if kw.arg is not None
            and not _forwards(kw)
            and (kw.arg not in own or kw.arg in into_config)
        )
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                names.update(
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
    return frozenset(names)


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text())


@functools.lru_cache(maxsize=None)
def set_names() -> frozenset:
    """Every field name the callers set, under the rules in the module
    docstring."""
    src = [_parse(p) for p in sorted((REPO_ROOT / "src").rglob("*.py"))]
    callers = [
        _parse(path)
        for root in CALLERS
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if path != CONFIG_MODULE
    ]
    return names_set(callers, declared_params(src))


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
    assert {"scheduler", "execution_backend", "rounds", "eval_top_k"} <= names
    tree = ast.parse("f(momentum=config.momentum, lr=config.base_lr)")
    call = tree.body[0].value
    assert [_forwards(kw) for kw in call.keywords] == [True, False]


def test_a_callees_own_parameter_sets_no_field():
    """``Trace(p=0.8)`` sets the trace's ``p``; it counts as setting a
    field only once some call forwards ``p`` into a config."""
    declared = declared_params(
        [ast.parse("class Trace:\n    def __init__(self, n, p=1.0): ...")]
    )
    assert declared["Trace"] == {"self", "n", "p"}
    alone = [ast.parse("Trace(3, p=0.8)\nRunConfig(rounds=2)")]
    assert names_set(alone, declared) == {"rounds"}
    through = alone + [ast.parse("dict(p=scenario.p)")]
    assert names_set(through, declared) == {"rounds", "p"}
    # forwarding to a callee that declares the name is no config
    beside = alone + [ast.parse("Trace(1, p=config.p)")]
    assert names_set(beside, declared) == {"rounds"}


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
