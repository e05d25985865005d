"""Rule ``lifecycle-pairing``: every opened round is closed on all exits.

The compression-strategy contract (``repro.compression.base``) requires
every ``begin_round`` to be paired with exactly one ``end_round`` (normal
path) or ``abort_round`` (failure path) — stateful mask schedules (GlueFL
shift, APF freeze) corrupt silently when a round is left open, the bug
class PR 3 fixed by hand in the async scheduler.  This rule checks each
function that opens a round for the sanctioned pairing shape:
**try-pairing** — the opened region runs inside/before a ``try`` whose
handlers or ``finally`` close the round, as in the engine's one opener,
the ``repro.engine.steps.strategy_round`` context manager.

Forwarding wrappers (methods themselves named ``begin_round`` and so on)
are exempt — they *are* the lifecycle surface, not a caller of it.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Checker, Finding, SourceFile, register

__all__ = ["LifecycleChecker"]

LIFECYCLE_METHODS = ("begin_round", "end_round", "abort_round")
CLOSERS = ("end_round", "abort_round")


def _calls_with_attr(node: ast.AST, attrs) -> List[ast.Call]:
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in attrs
    ]


def _try_pairs(fn: ast.AST, begin: ast.Call) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try):
            continue
        guarded = node.handlers + [
            ast.Module(body=node.finalbody, type_ignores=[])
        ]
        if not any(_calls_with_attr(g, CLOSERS) for g in guarded):
            continue
        covers_begin = (
            node.lineno <= begin.lineno <= (node.end_lineno or node.lineno)
        )
        follows_begin = node.lineno >= begin.lineno
        if covers_begin or follows_begin:
            return True
    return False


@register
class LifecycleChecker(Checker):
    rule = "lifecycle-pairing"
    description = (
        "code paths calling begin_round must reach end_round or "
        "abort_round on every exit (try-pairing)"
    )
    hint = (
        "open the round with repro.engine.steps.strategy_round, or wrap "
        "the opened region in try/finally calling abort_round unless the "
        "round was ended"
    )

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for fn in ast.walk(source.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in LIFECYCLE_METHODS:
                continue
            begins = [
                c
                for c in _calls_with_attr(fn, ("begin_round",))
                if _owning_function(source.tree, c) is fn
            ]
            if not begins:
                continue
            closers = [
                c
                for c in _calls_with_attr(fn, CLOSERS)
                if _owning_function(source.tree, c) is fn
            ]
            for begin in begins:
                if not closers:
                    findings.append(
                        self.finding(
                            source,
                            begin,
                            f"{fn.name}() opens a round but never calls "
                            "end_round/abort_round — the round leaks open "
                            "on every path",
                        )
                    )
                    continue
                if not _try_pairs(fn, begin):
                    findings.append(
                        self.finding(
                            source,
                            begin,
                            f"{fn.name}() opens a round without exception "
                            "pairing — a raise between begin_round and "
                            "end_round leaves the round open",
                        )
                    )
        return findings


def _owning_function(tree: ast.AST, target: ast.AST):
    """The innermost function whose body contains ``target``."""
    owner = None

    class _Walk(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def generic_visit(self, node):
            nonlocal owner
            if node is target and self.stack:
                owner = self.stack[-1]
            is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn:
                self.stack.append(node)
            super().generic_visit(node)
            if is_fn:
                self.stack.pop()

    _Walk().visit(tree)
    return owner
