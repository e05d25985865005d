"""The tier-1 doctest gate: documented examples must keep running.

Every module listed here carries executable examples in its docstrings
(the ``repro.privacy`` API end to end, plus the public seams its PR
documented: the compression-strategy contract, the sampler weight
contract, ``RunConfig``, and the RNG fan-out).  Collecting them through
``doctest`` inside tier-1 means a drifting signature or renamed knob
breaks the build, not the reader — the same job as
``pytest --doctest-modules src/repro/privacy``, kept explicit so the
gated surface is a reviewable list.

Examples in ``examples/*.py`` module docstrings are gated the same way,
loaded by path since ``examples`` is not a package.  The guide snippets
in ``docs/extending.md`` and the README quickstart block are *executed*
too (markdown fences extracted and run in order), so the recipes readers
copy cannot drift from the real API.
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_FENCE = re.compile(r"```python\n(.*?)```", re.S)

#: Importable modules whose docstring examples tier-1 executes.
DOCUMENTED_MODULES = (
    "repro.privacy",
    "repro.privacy.accountant",
    "repro.privacy.clipping",
    "repro.privacy.mechanisms",
    "repro.privacy.strategy",
    "repro.compression.base",
    "repro.engine.clock",
    "repro.fl.samplers",
    "repro.fl.config",
    "repro.utils.rng",
    "repro.population.population",
    "repro.population.traces",
    "repro.population.events",
    "repro.utils.client_state",
    "repro.utils.arrays",
    "repro.datasets.base",
    "repro.datasets.lazy",
    "repro.datasets.synthetic",
)

#: Example scripts whose module docstrings carry doctests.
DOCUMENTED_EXAMPLES = ("extensions_tour.py",)


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(
        module, verbose=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0, (
        f"{module_name} is in the doctest gate but has no examples — "
        "either document it or drop it from DOCUMENTED_MODULES"
    )
    assert result.failed == 0, (
        f"{module_name}: {result.failed} doctest(s) failed"
    )


@pytest.mark.slow
def test_extending_guide_snippets_execute():
    """Every ```python fence in docs/extending.md runs, in order, in one
    namespace (later snippets build on the shared tiny federation)."""
    blocks = _FENCE.findall((REPO_ROOT / "docs" / "extending.md").read_text())
    assert len(blocks) >= 5, "extending.md lost its runnable snippets"
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"docs/extending.md[snippet {i}]", "exec"),
             namespace)


@pytest.mark.slow
def test_readme_quickstart_snippet_executes():
    """The README's in-code quickstart runs (shrunk: same API path, fewer
    rounds/clients so the gate stays fast)."""
    blocks = _FENCE.findall((REPO_ROOT / "README.md").read_text())
    assert blocks, "README.md lost its quickstart snippet"
    # 60 clients keeps the paper's sticky geometry valid (S = 4K < N)
    shrunk = blocks[0].replace("rounds=100", "rounds=4").replace(
        "num_clients=150", "num_clients=60"
    )
    assert shrunk != blocks[0], "README quickstart shape changed; fix the shrink"
    exec(compile(shrunk, "README.md[quickstart]", "exec"), {})


@pytest.mark.parametrize("example_name", DOCUMENTED_EXAMPLES)
def test_example_doctests(example_name):
    path = REPO_ROOT / "examples" / example_name
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result = doctest.testmod(
        module, verbose=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0
    assert result.failed == 0, (
        f"{example_name}: {result.failed} doctest(s) failed"
    )
