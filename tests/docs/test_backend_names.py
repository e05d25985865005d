"""The user-facing docs name exactly the execution backends that exist.

The README's "Execution backend" capability row and the quickstart's
runtime-knob bullet both list ``execution_backend``'s legal values; a
backend deleted from ``repro.runtime.BACKENDS`` must leave both in the
same change, and a new one must appear in both.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.runtime import BACKENDS

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_readme_backend_row_lists_the_backends():
    rows = [
        line for line in (REPO_ROOT / "README.md").read_text().splitlines()
        if line.startswith("| **Execution backend**")
    ]
    assert len(rows) == 1
    options = rows[0].split("|")[2]
    assert tuple(re.findall(r"`([^`]+)`", options)) == BACKENDS


def test_quickstart_docstring_lists_the_backends():
    source = (REPO_ROOT / "examples" / "quickstart.py").read_text()
    doc = ast.get_docstring(ast.parse(source))
    # the knob's bullet, not a later example that picks one backend
    (choices,) = re.findall(
        r'^\* ``execution_backend=((?:"\w+"(?: \| )?)+)``', doc, re.M
    )
    assert tuple(re.findall(r'"(\w+)"', choices)) == BACKENDS
