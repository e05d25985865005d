"""Rules over who reaches what: names, methods, switches, keywords, paths.

* ``public-names`` — a name in any ``src/repro`` module's ``__all__`` must
  be used in ``src/``, ``benchmarks/`` or ``examples/`` (see
  :func:`referenced`).  A ``:class:`` reference in a docstring keeps
  nothing alive.
* ``public-methods`` — the same test for every public method of a
  ``src/repro`` class (keys ``Class.method``).
* ``switch-callers`` — a boolean parameter with a default (its default is
  ``True`` / ``False`` or its annotation names ``bool``) of a ``def`` in
  ``src/`` selects a code path, so some ``src/`` or ``benchmarks/`` call
  must pass it by keyword to that callable; otherwise only tests take the
  other branch.  A ``def __init__`` is the switch of its class
  (``Linear.bias``), any other ``def`` of its own name; a keyword counts
  only for the callee it is passed to (:meth:`Module.callee`), and a
  forwarded ``x=<obj>.x`` turns nothing.
* ``call-keywords`` — every keyword a ``benchmarks/`` or ``examples/`` call
  passes to a name imported from ``repro`` is a parameter of the live
  callee's :func:`inspect.signature` (those files run outside tier-1, so a
  keyword left behind by a deleted parameter would fail only there).
  Callees taking ``**kwargs`` accept anything; calls on objects are out of
  a static scan's reach.  Keys read ``path:line Callee(keyword=)``.
* ``doc-paths`` — every ``benchmarks/``, ``tests/``, ``src/`` or
  ``examples/`` path (``*`` globs allowed) and ``BENCH*.json`` the README,
  ``docs/*.md``, the skill notes, the CI workflow and ``pytest.ini`` name
  exists.  ROADMAP.md and CHANGES.md are history and name deleted files
  on purpose.  Keys read ``doc: path``.
* ``doc-names`` — each ``path::name`` those docs give names a ``def`` or
  ``class`` in the file at ``path``.  Keys read ``doc: path::name``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re

from tests.lint.config_fields import forwards
from tests.lint.index import DOCS, FUNCTIONS, USERS, Index

#: a repo-relative path, optionally ``::name``; not the tail of a longer
#: path or URL, and not a template such as ``golden_<scheduler>.json``
REFERENCE = re.compile(
    r"(?<![\w/.-])"
    r"((?:benchmarks|tests|src|examples)/[\w./*-]*[\w*]|BENCH[\w*]*\.json)"
    r"(?:::(\w+))?"
)


def registers(decorator: ast.expr) -> bool:
    """``@register``, ``@register(...)`` or ``@X.register(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "attr", getattr(decorator, "id", None)) == "register"


def referenced(index: Index) -> set:
    """Every identifier some ``src/`` / ``benchmarks/`` / ``examples/``
    file uses: a ``Name``, an ``Attribute``, a name imported outside a
    package ``__init__`` (a re-export is no use), or a definition under a
    registration decorator (``@register``, ``@MODELS.register(...)``),
    since registering it is its use.  Its own ``def`` and ``__all__``
    strings do not count."""
    names = set()
    for mod in index.under(*USERS):
        reexports = mod.path.endswith("/__init__.py")
        for node in mod.nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not reexports:
                names.update(alias.name for alias in node.names)
            elif isinstance(node, FUNCTIONS + (ast.ClassDef,)) and any(
                map(registers, node.decorator_list)
            ):
                names.add(node.name)
    return names


def exported(index: Index) -> set:
    """Every name in a ``src/repro`` module's ``__all__``."""
    return {
        elt.value
        for mod in index.package()
        for node in mod.tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def public_names(index: Index) -> set:
    return exported(index) - referenced(index)


def public_methods(index: Index) -> set:
    reached = referenced(index)
    return {
        f"{cls.name}.{fn.name}"
        for mod in index.package()
        for cls in mod.nodes
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, FUNCTIONS)
        and not fn.name.startswith("_")
        and fn.name not in reached
    }


def _is_bool(arg: ast.arg, default: ast.expr) -> bool:
    if isinstance(default, ast.Constant) and isinstance(default.value, bool):
        return True
    return arg.annotation is not None and "bool" in ast.unparse(arg.annotation)


def switches(index: Index) -> dict:
    """``"Owner.param"`` -> ``(callee name, param)`` for every boolean
    parameter with a default of every ``def`` in ``src/``."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, FUNCTIONS):
                visit(child, owner)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = list(
                zip(positional[len(positional) - len(args.defaults):], args.defaults)
            ) + [
                (arg, default)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            if child.name == "__init__":
                callee = label = owner
            else:
                callee = child.name
                label = f"{owner}.{child.name}" if owner else child.name
            for arg, default in defaulted:
                if _is_bool(arg, default):
                    found[f"{label}.{arg.arg}"] = (callee, arg.arg)
            visit(child, None)

    for mod in index.under("src/"):
        visit(mod.tree, None)
    return found


def switch_callers(index: Index) -> set:
    turned = {
        (mod.callee(call), kw.arg)
        for mod in index.under("src/", "benchmarks/")
        for call in mod.calls
        for kw in call.keywords
        if kw.arg is not None and not forwards(kw)
    }
    return {label for label, pair in switches(index).items() if pair not in turned}


def live(name: str):
    """The object the dotted ``name`` (``repro.fl.RunConfig``) names,
    importing submodules on the way."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if inspect.ismodule(obj) and not hasattr(obj, attr):
            obj = importlib.import_module(".".join(parts[:i]))
        else:
            obj = getattr(obj, attr)
    return obj


def _parameters(obj):
    """The keyword names ``obj`` accepts, or ``None`` when it takes
    ``**kwargs`` or has no signature to read."""
    if not callable(obj):
        return None
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return None
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}


def keyword_calls(index: Index) -> list:
    """``(module, call, accepted keywords)`` for every keyword call in
    ``benchmarks/`` and ``examples/`` to a callee imported from ``repro``
    whose signature can be read."""
    checked = []
    for mod in index.under("benchmarks/", "examples/"):
        for call in mod.calls:
            name = mod.resolve(call.func) if call.keywords else None
            if name is None or name.split(".")[0] != "repro":
                continue
            accepted = _parameters(live(name))
            if accepted is not None:
                checked.append((mod, call, accepted))
    return checked


def call_keywords(index: Index) -> set:
    return {
        f"{mod.path}:{call.lineno} {ast.unparse(call.func)}({kw.arg}=)"
        for mod, call, accepted in keyword_calls(index)
        for kw in call.keywords
        if kw.arg is not None and kw.arg not in accepted
    }


def references(index: Index) -> list:
    """``(doc, path, name or None)`` for every path the docs name."""
    return [
        (doc, *match.groups())
        for pattern in DOCS
        for doc in index.glob(pattern)
        for match in REFERENCE.finditer(index.text(doc))
        if index.text(doc)[match.end():match.end() + 1] not in ("<", "{")
    ]


def doc_paths(index: Index) -> set:
    return {f"{doc}: {path}" for doc, path, _ in references(index) if not index.glob(path)}


def doc_names(index: Index) -> set:
    found, defined = set(), {}
    for doc, path, name in references(index):
        if name is None or path not in index.files:
            continue
        if path not in defined:
            defined[path] = {
                node.name
                for node in ast.walk(ast.parse(index.text(path)))
                if isinstance(node, FUNCTIONS + (ast.ClassDef,))
            }
        if name not in defined[path]:
            found.add(f"{doc}: {path}::{name}")
    return found
