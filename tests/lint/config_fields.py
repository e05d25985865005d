"""``RunConfig``'s fields, from all four sides.

A field is a knob only if ``validate()`` checks it, the docs name it, a
caller sets it and the run reads it:

* ``config-validated`` — ``RunConfig.validate`` reads the field, so an
  out-of-range or ignored value fails at construction, not deep in a run.
  A read is ``self.<field>``, or the field's name as a whole string
  constant outside a ``raise`` (``for flag in ("a", "b"): getattr(self,
  flag)``).  A name that survives only in an error message, or a
  docstring, checks nothing;
* ``config-documented`` — README.md or a ``docs/*.md`` page names it;
* ``config-set`` — some ``src/`` or ``benchmarks/`` file other than
  ``fl/config.py`` passes it, as a keyword or a dict-literal string key.
  A keyword ``x=<obj>.x`` forwards a value someone else set and counts
  for nothing.  Nor does a keyword to a ``src/`` callable that declares
  the parameter itself (``DutyCycleTrace(mean_on_fraction=0.8)`` sets
  the trace's fraction) — unless some call forwards that name into a
  config, as ``x=<obj>.x`` to a callee that does not declare ``x``.
  Callees match by bare name (:meth:`~tests.lint.index.Module.callee`)
  against every function and class ``src/`` defines; a class declares
  its ``__init__`` parameters and its annotated fields.  A field no
  caller sets holds one value for every run: a constant, not a knob;
* ``config-read`` — ``src/`` reads it outside ``validate()``, as an
  attribute or a constant ``getattr`` name.  Names match by identifier,
  so the read side errs towards keeping a field.

Keys are field names.
"""

from __future__ import annotations

import ast
import re

from tests.lint.index import FUNCTIONS, Index

CONFIG = "src/repro/fl/config.py"
CALLERS = ("src/", "benchmarks/")


def mentions(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def find_method(cls: ast.ClassDef, name: str):
    return next((n for n in cls.body if isinstance(n, FUNCTIONS) and n.name == name), None)


def _config(index: Index):
    """``(RunConfig class, its field names, validate() or None)``."""
    cls = next(
        node
        for node in index.modules[CONFIG].nodes
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
    )
    fields = [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    return cls, fields, find_method(cls, "validate")


def validated_names(validate) -> set:
    """Every ``self.<name>`` read and every string constant ``validate``
    holds outside its ``raise`` statements and bare string statements."""
    if validate is None:
        return set()
    skip = {
        id(inner)
        for node in ast.walk(validate)
        if isinstance(node, ast.Raise)
        or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        for inner in ast.walk(node)
    }
    names = set()
    for node in ast.walk(validate):
        if id(node) in skip:
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def config_validated(index: Index) -> set:
    _, fields, validate = _config(index)
    return set(fields) - validated_names(validate)


def config_documented(index: Index) -> set:
    _, fields, _ = _config(index)
    return {name for name in fields if not mentions(name, index.docs)}


def declared_params(index: Index) -> dict:
    """Callable name -> every parameter a same-named ``src/`` function or
    class declares.  ``RunConfig`` is left out: a keyword to it sets a
    field."""
    declared: dict = {}
    for mod in index.under("src/"):
        for node in mod.nodes:
            if isinstance(node, FUNCTIONS):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            elif isinstance(node, ast.ClassDef) and node.name != "RunConfig":
                names = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                }
                init = find_method(node, "__init__")
                if init is not None:
                    names.update(a.arg for a in init.args.args + init.args.kwonlyargs)
            else:
                continue
            declared.setdefault(node.name, set()).update(names)
    return declared


def forwards(keyword: ast.keyword) -> bool:
    """``name=<obj>.name``: passes a value on, sets nothing."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg


def set_names(index: Index) -> set:
    """Every field name the callers set, under the rules above."""
    callers = [m for m in index.under(*CALLERS) if m.path != CONFIG]
    declared = declared_params(index)
    calls = [(c, declared.get(m.callee(c), ())) for m in callers for c in m.calls]
    into_config = {
        kw.arg
        for call, own in calls
        for kw in call.keywords
        if kw.arg is not None and forwards(kw) and kw.arg not in own
    }
    names = {
        kw.arg
        for call, own in calls
        for kw in call.keywords
        if kw.arg is not None
        and not forwards(kw)
        and (kw.arg not in own or kw.arg in into_config)
    }
    names.update(
        key.value
        for m in callers
        for node in m.nodes
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    )
    return names


def config_set(index: Index) -> set:
    _, fields, _ = _config(index)
    return set(fields) - set_names(index)


def read_names(index: Index) -> set:
    _, _, validate = _config(index)
    skip = set() if validate is None else set(map(id, ast.walk(validate)))
    names = set()
    for mod in index.under("src/"):
        for node in mod.nodes:
            if id(node) in skip:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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
    return names


def config_read(index: Index) -> set:
    _, fields, _ = _config(index)
    return set(fields) - read_names(index)
