"""Every boolean switch in ``src/repro`` is turned by some caller.

The function-parameter twin of ``test_config_knobs.py``: a parameter of
a ``def`` in ``src/repro`` that has a default and is a boolean (its
default is ``True`` / ``False`` or its annotation names ``bool``) selects
a code path.  Some ``src/`` or ``benchmarks/`` call must pass it by
keyword; otherwise only tests ever take the other branch, and it is one
more combination to keep correct for no run.  One that stays anyway needs
a one-line reason on :data:`ALLOWED`.  A required boolean (no default) is
data every caller passes, not a switch.

Callees are resolved by name: a ``def __init__`` is the switch of its
class (``Linear.bias``), any other ``def`` of its own name
(``format_series.plot``), and a call counts for the callable its bare name
(``f(...)`` / ``obj.f(...)``) names — through a ``from repro… import f as
g`` alias, as ``test_call_keywords.py`` follows imports.  So a keyword
counts only for the callable it is passed to: ``Conv2d(bias=False)`` turns
``Conv2d.bias``, not ``Linear.bias``, and a numpy ``copy=`` turns nothing
of ours.  Which keywords a call passes is ``test_config_knobs.names_set``
over that call (a forwarded ``x=<obj>.x`` sets nothing).
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from tests.docs.test_config_knobs import _callee, names_set

REPO_ROOT = Path(__file__).resolve().parents[2]
CALLERS = ("src", "benchmarks")

#: switches no caller turns, each with the reason it stays
ALLOWED: dict = {}


def _is_bool(arg: ast.arg, default: ast.expr) -> bool:
    if isinstance(default, ast.Constant) and isinstance(default.value, bool):
        return True
    return arg.annotation is not None and "bool" in ast.unparse(arg.annotation)


def switches(trees) -> dict:
    """``"Owner.param"`` -> ``(callee name, param)`` for every boolean
    parameter with a default of every ``def`` in ``trees``."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
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

    for tree in trees:
        visit(tree, None)
    return found


def turned(trees) -> dict:
    """Callee name -> every keyword some call in ``trees`` passes it."""
    calls: dict = {}
    for tree in trees:
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
            for alias in node.names
            if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                calls.setdefault(aliases.get(name, name), []).append(node)
    return {name: names_set(nodes, {}) for name, nodes in calls.items()}


def unturned(found: dict, keywords: dict) -> list:
    """The labels of ``found`` whose callee no call in ``keywords`` passes
    the switch to."""
    return sorted(
        label
        for label, (callee, param) in found.items()
        if param not in keywords.get(callee, ())
    )


def _parse_all(*roots) -> list:
    return [
        ast.parse(path.read_text())
        for root in roots
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
    ]


@functools.lru_cache(maxsize=None)
def scan() -> tuple:
    """``(every switch label, the labels no caller turns)``."""
    found = switches(_parse_all("src"))
    return frozenset(found), tuple(unturned(found, turned(_parse_all(*CALLERS))))


def test_scan_sees_the_switches():
    """Guards a scan that finds nothing, which would pass vacuously."""
    found, unturned = scan()
    assert {"Conv2d.bias", "PrivateStrategy.values_only"} <= found
    assert "Conv2d.bias" not in unturned


def test_a_keyword_counts_only_for_its_callee():
    src = [ast.parse(
        "class Linear:\n    def __init__(self, n, bias=True): ...\n"
        "class Conv2d:\n    def __init__(self, n, bias=True): ...\n"
        "def load(path, copy: bool = False): ...\n"
    )]
    found = switches(src)
    assert set(found) == {"Linear.bias", "Conv2d.bias", "load.copy"}
    # another callable's keyword, or a forwarded value, turns nothing
    callers = [ast.parse(
        "Conv2d(3, bias=False)\nnp.asarray(x, copy=False)\n"
        "Linear(2, bias=layer.bias)\n"
    )]
    assert unturned(found, turned(callers)) == ["Linear.bias", "load.copy"]
    # a call through an import alias counts for the imported name
    callers.append(ast.parse("from repro.io import load as fetch\nfetch(p, copy=True)"))
    assert unturned(found, turned(callers)) == ["Linear.bias"]


def test_every_switch_has_a_caller():
    _, unturned = scan()
    missing = [label for label in unturned if label not in ALLOWED]
    assert not missing, (
        "boolean parameters no src/ or benchmarks/ call passes by keyword: "
        "only tests take their other branch.  Delete the switch (with its "
        "branch, docs and the tests that only exercised it) or allow-list "
        "it with a reason:\n" + "\n".join(missing)
    )


def test_allow_list_is_not_stale():
    found, unturned = scan()
    stale = [
        label
        for label in sorted(ALLOWED)
        if label not in found or label not in unturned
    ]
    assert not stale, (
        "allow-listed switches that are now turned or gone; drop them from "
        "ALLOWED:\n" + "\n".join(stale)
    )
