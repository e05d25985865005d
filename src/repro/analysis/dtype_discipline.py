"""Rule ``bare-dtype``: hot-path array constructors must pin their dtype.

The run-level precision policy (``RunConfig.dtype`` through the single
:func:`repro.runtime.dtype.resolve_dtype` gate) only holds if every array
materialized on the hot path states its dtype.  A bare ``np.zeros(d)``
is float64 regardless of policy, so one silent float64 promotion in
nn/, compression/, the runtime, or aggregation quietly doubles the
bytes a float32 run moves.
``np.memmap`` is covered too: its default is *uint8*, so an unpinned
memmap is not even the wrong float — it reinterprets the file outright.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Checker, Finding, SourceFile, register
from repro.analysis.names import ImportMap

__all__ = ["DtypeDisciplineChecker"]

#: path fragments marking the precision-policy hot paths
HOT_PATH_DIRS = ("repro/nn/", "repro/compression/", "repro/runtime/")
HOT_PATH_FILES = ("repro/fl/aggregation.py",)

#: numpy constructors whose default dtype is a silent policy escape
BARE_CONSTRUCTORS = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
    "numpy.array",
    "numpy.arange",
    "numpy.memmap",
}


@register
class DtypeDisciplineChecker(Checker):
    rule = "bare-dtype"
    description = (
        "flag numpy array constructors without an explicit dtype= in the "
        "precision-policy hot paths (nn/, compression/, runtime/, "
        "fl/aggregation)"
    )
    hint = (
        "pass dtype= explicitly — derive it from the operand "
        "(x.dtype), the run policy (resolve_dtype), or pin the intended "
        "width (np.float64 / np.int64); np.memmap defaults to uint8"
    )

    #: constructors where a positional argument at this index (0-based)
    #: already pins the dtype
    _positional_dtype = {"numpy.array": 2, "numpy.full": 3}

    def applies_to(self, path: str) -> bool:
        return any(
            frag in path for frag in HOT_PATH_DIRS
        ) or path.endswith(HOT_PATH_FILES)

    def check(self, source: SourceFile) -> List[Finding]:
        imports = ImportMap(source.tree)
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name not in BARE_CONSTRUCTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            # np.array(x, np.float32) — positional dtype (2nd arg) counts
            min_args = self._positional_dtype.get(name)
            if min_args is not None and len(node.args) >= min_args:
                continue
            findings.append(self.finding(source, node, self._message(name)))
        return findings

    def _message(self, name: str) -> str:
        if name == "numpy.memmap":
            return (
                "np.memmap() without dtype= defaults to uint8 — it "
                "reinterprets the backing file outright"
            )
        return (
            f"{name.replace('numpy', 'np')}() without dtype= on a "
            "precision-policy hot path defaults to float64 "
            "(or a platform int)"
        )
