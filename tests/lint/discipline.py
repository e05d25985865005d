"""Rules over the library's code: one clock, one dtype gate, paired rounds.

* ``determinism`` — GlueFL's rounds are bit-identical per seed (the
  goldens pin them byte for byte), so a wall-clock read would leak host
  time into simulated timing and an unseeded or module-level RNG draw
  would decouple a run from its seed.  Time comes from
  :class:`~repro.engine.clock.SimClock`, randomness from a named stream
  (:mod:`repro.utils.rng`); no module is exempt, and a future seam goes
  on the allow-list with its reason.
* ``bare-dtype`` — the run's precision policy (``resolve_dtype``) holds
  only if every array the hot paths build states its dtype: a bare
  ``np.zeros(d)`` is float64 under a float32 run, and a bare
  ``np.memmap`` is uint8, reinterpreting its file outright.
* ``lifecycle-pairing`` — every ``begin_round`` must reach ``end_round``
  or ``abort_round`` on every exit (GlueFL's sticky-mask regeneration and
  APF's freeze schedule corrupt silently when a round stays open): the
  opened region runs inside or before a ``try`` whose handlers or
  ``finally`` close it, as in :func:`repro.engine.steps.strategy_round`.
  Methods named after the lifecycle itself are the surface, not callers.

Keys read ``path:line name()``.
"""

from __future__ import annotations

import ast

from tests.lint.index import FUNCTIONS, Index

#: wall-clock reads
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: numpy.random constructors that are fine when given a seed
SEEDED = {"numpy.random.default_rng", "numpy.random.RandomState"}
#: numpy.random names that never draw (types, bit generators, seeding)
RNG_TYPES = {
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
}

#: the precision-policy hot paths
HOT_DIRS = ("repro/nn/", "repro/compression/", "repro/runtime/")
HOT_FILES = ("repro/fl/aggregation.py",)
#: constructors whose default dtype escapes the policy, and the number of
#: positional arguments that already pin it
BARE = {
    "numpy.zeros": None,
    "numpy.ones": None,
    "numpy.empty": None,
    "numpy.full": 3,
    "numpy.array": 2,
    "numpy.arange": None,
    "numpy.memmap": None,
}

LIFECYCLE = ("begin_round", "end_round", "abort_round")
CLOSERS = ("end_round", "abort_round")


def _unseeded(call: ast.Call) -> bool:
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in call.keywords:
        if kw.arg in ("seed", None):
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
    return True


def determinism(index: Index) -> set:
    found = set()
    for mod in index.package():
        stdlib_random = any(
            target.split(".")[0] == "random" for target in mod.aliases.values()
        )
        for call in mod.calls:
            name = mod.resolve(call.func)
            if name is None:
                continue
            if (
                name in WALL_CLOCK
                or (name in SEEDED and _unseeded(call))
                or (
                    name.startswith("numpy.random.")
                    and name not in RNG_TYPES | SEEDED
                )
                or (stdlib_random and name.startswith("random.") and name.count(".") == 1)
            ):
                found.add(f"{mod.path}:{call.lineno} {name}()")
    return found


def bare_dtype(index: Index) -> set:
    found = set()
    for mod in index.package():
        if not (any(d in mod.path for d in HOT_DIRS) or mod.path.endswith(HOT_FILES)):
            continue
        for call in mod.calls:
            name = mod.resolve(call.func)
            if name not in BARE or any(kw.arg == "dtype" for kw in call.keywords):
                continue
            pinning = BARE[name]
            if pinning is None or len(call.args) < pinning:
                found.add(f"{mod.path}:{call.lineno} {name}()")
    return found


def _owned_calls(tree: ast.AST) -> list:
    """``(function, calls)`` per function: the calls its body makes
    outside any nested function."""
    owned = []

    def visit(node, calls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                owned.append((child, []))
                visit(child, owned[-1][1])
                continue
            if calls is not None and isinstance(child, ast.Call):
                calls.append(child)
            visit(child, calls)

    visit(tree, None)
    return owned


def _method(call: ast.Call):
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _closes(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Call) and _method(n) in CLOSERS for n in ast.walk(node)
    )


def _try_pairs(fn: ast.AST, begin: ast.Call) -> bool:
    """A ``try`` covering or following ``begin`` closes the round in a
    handler or its ``finally``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try):
            continue
        ends_before = (node.end_lineno or node.lineno) < begin.lineno
        if not ends_before and any(map(_closes, node.handlers + node.finalbody)):
            return True
    return False


def lifecycle_pairing(index: Index) -> set:
    found = set()
    for mod in index.package():
        for fn, calls in _owned_calls(mod.tree):
            if fn.name in LIFECYCLE:
                continue
            closed = any(_method(c) in CLOSERS for c in calls)
            for begin in (c for c in calls if _method(c) == "begin_round"):
                if not (closed and _try_pairs(fn, begin)):
                    found.add(f"{mod.path}:{begin.lineno} {fn.name}()")
    return found
