"""Every example runs end to end, at two rounds.

Each ``examples/*.py`` is loaded by path, its ``ROUNDS`` (when it trains
at all) set to 2, and its ``main()`` called, so an example that drifts
from the API fails here instead of in a reader's terminal.  Examples
read every round count from ``ROUNDS`` for exactly this reason.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if hasattr(module, "ROUNDS"):
        module.ROUNDS = 2
    module.main()
    assert capsys.readouterr().out
