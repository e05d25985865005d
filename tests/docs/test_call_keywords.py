"""Every keyword the benchmarks and examples pass to the library exists.

``benchmarks/`` (the ledger included) and ``examples/`` call into
``repro`` from files no tier-1 test imports: a bench's body runs only
under ``-m bench``, an example's long path only when someone runs it.  A
keyword left behind when a parameter is deleted (``WorkerSpec(momentum=…)``
after ``momentum`` left the spec) then fails in a CI step, not here.
This scan closes that gap statically: for every call, anywhere in those
files, to a name imported from ``repro.*`` (``from repro.x import Name``
or an attribute chain off ``import repro.x as m``), each keyword must be
a parameter of the callee's :func:`inspect.signature`.  Callees that take
``**kwargs`` accept anything and are skipped; calls on objects (``server
.run_round()``) are out of reach of a static scan.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CALLERS = ("benchmarks", "examples")


def _resolve(module: str, name: str):
    """``module.name``, importing it as a submodule when it is not an
    attribute yet."""
    mod = importlib.import_module(module)
    try:
        return getattr(mod, name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _imported(tree: ast.AST) -> dict:
    """Local name -> object, for every ``repro`` import in the file (at
    any depth: benches import inside their bodies)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                for alias in node.names:
                    names[alias.asname or alias.name] = _resolve(
                        module, alias.name
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    if alias.asname:
                        names[alias.asname] = importlib.import_module(alias.name)
                    else:
                        importlib.import_module(alias.name)
                        names["repro"] = importlib.import_module("repro")
    return names


def _callee(func: ast.expr, names: dict):
    """The object a call's ``func`` names, or ``None`` when it does not
    start at a ``repro`` import."""
    chain = []
    while isinstance(func, ast.Attribute):
        chain.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return None
    obj = names[func.id]
    for attr in reversed(chain):
        obj = (
            _resolve(obj.__name__, attr)
            if inspect.ismodule(obj)
            else getattr(obj, attr)
        )
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


@functools.lru_cache(maxsize=None)
def scan() -> tuple:
    """``(calls checked, stale keywords)``; each stale keyword reads
    ``path:line Callee(keyword=)``."""
    checked, stale = 0, []
    for root in CALLERS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = _imported(tree)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and node.keywords):
                    continue
                accepted = _parameters(_callee(node.func, names))
                if accepted is None:
                    continue
                checked += 1
                rel = path.relative_to(REPO_ROOT)
                stale.extend(
                    f"{rel}:{node.lineno} {ast.unparse(node.func)}({kw.arg}=)"
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in accepted
                )
    return checked, tuple(stale)


def test_scan_sees_the_calls():
    """Guards a scan that resolves nothing, which would pass vacuously."""
    checked, _ = scan()
    assert checked >= 50


def test_every_keyword_is_a_parameter():
    _, stale = scan()
    assert not stale, (
        "keywords the callee does not take (a deleted or renamed "
        "parameter?):\n" + "\n".join(stale)
    )
