"""The user-facing docs name exactly the backends and schedulers that exist.

The README's "Execution backend" capability row and the quickstart's
runtime-knob bullet both list ``execution_backend``'s legal values; a
backend deleted from ``repro.runtime.BACKENDS`` must leave both in the
same change, and a new one must appear in both.  Likewise the README's
"Scheduler" row and the scheduler table of ``docs/architecture.md`` name
exactly ``repro.engine.SCHEDULERS``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.engine import SCHEDULERS
from repro.runtime import BACKENDS

REPO_ROOT = Path(__file__).resolve().parents[2]


def _readme_options(axis: str) -> tuple:
    """The backticked options of the README capability row ``axis``."""
    rows = [
        line for line in (REPO_ROOT / "README.md").read_text().splitlines()
        if line.startswith(f"| **{axis}**")
    ]
    assert len(rows) == 1
    return tuple(re.findall(r"`([^`]+)`", rows[0].split("|")[2]))


def _architecture_schedulers() -> tuple:
    """The first column of ``docs/architecture.md``'s scheduler table."""
    lines = (REPO_ROOT / "docs" / "architecture.md").read_text().splitlines()
    start = lines.index("| scheduler | deviation |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.append(re.fullmatch(r"`(\w+)`", line.split("|")[1].strip())[1])
    return tuple(names)


def test_readme_backend_row_lists_the_backends():
    assert _readme_options("Execution backend") == BACKENDS


@pytest.mark.parametrize(
    "listed",
    [
        pytest.param(lambda: _readme_options("Scheduler"), id="readme"),
        pytest.param(_architecture_schedulers, id="architecture"),
    ],
)
def test_docs_name_exactly_the_schedulers(listed):
    names = listed()
    assert sorted(names) == sorted(SCHEDULERS) and len(set(names)) == len(names)


def test_quickstart_docstring_lists_the_backends():
    source = (REPO_ROOT / "examples" / "quickstart.py").read_text()
    doc = ast.get_docstring(ast.parse(source))
    # the knob's bullet, not a later example that picks one backend
    (choices,) = re.findall(
        r'^\* ``execution_backend=((?:"\w+"(?: \| )?)+)``', doc, re.M
    )
    assert tuple(re.findall(r'"(\w+)"', choices)) == BACKENDS
