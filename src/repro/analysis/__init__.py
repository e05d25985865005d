"""Invariant lint pass + runtime sanitizer hooks for the repro backend.

Static half: ``python -m repro.analysis [paths]`` runs an AST-based
checker suite encoding the repo's pinned invariants (see
:mod:`repro.analysis.core` and ``docs/analysis.md``) and exits non-zero
on findings, so it composes with CI.  Violations that are by design are
waived in place with ``# repro: allow[rule] -- justification``.

Runtime half: the sanitizer mode (switched on by ``REPRO_SANITIZE=1``
only) lives in :mod:`repro.runtime.sanitize` and turns the process
backend's result-ring ownership protocol into checked assertions.

>>> from repro.analysis import analyze_source
>>> bad = "import time\\ndef f():\\n    return time.time()\\n"
>>> [f.rule for f in analyze_source(bad)]
['determinism']
>>> analyze_source("import time  # the clock seam itself\\n")
[]
"""

from repro.analysis.core import (
    CHECKERS,
    Checker,
    Finding,
    SourceFile,
    all_rules,
    analyze_paths,
    analyze_source,
    register,
)

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "SourceFile",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "register",
]
