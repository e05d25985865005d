"""Each lint rule on in-memory trees: what it flags, and what it leaves.

A case is a rule, a ``{path: text}`` tree and the exact finding keys the
rule must return for it.
"""

from __future__ import annotations

import textwrap

import pytest

from tests.lint.index import Index
from tests.lint.test_lint import RULES

CLOCK = """
    import time

    def stamp():
        return time.time()
"""
BARE = """
    import numpy as np

    def make():
        return np.zeros((4, 4))
"""
CONFIG = """
    class RunConfig:
        rounds: int = 3
        p: float = 1.0
        mystery_knob_xyzzy: int = 0

        def validate(self):
            if self.rounds <= 0 or not 0 < self.p <= 1:
                raise ValueError("bad config")
"""
#: a trace that declares its own ``p``, and a caller that sets it there
TRACE_CALLERS = {
    "src/repro/fl/config.py": CONFIG,
    "src/repro/traces.py": "class Trace:\n    def __init__(self, n, p=1.0): ...\n",
    "benchmarks/run.py": """
        Trace(3, p=0.8)
        Trace(1, p=config.p)
        RunConfig(rounds=2, mystery_knob_xyzzy=config.mystery_knob_xyzzy)
    """,
}
SWITCHES = {
    "src/repro/layers.py": """
        class Linear:
            def __init__(self, n, bias=True): ...
        class Conv2d:
            def __init__(self, n, bias=True): ...
        def load(path, copy: bool = False): ...
    """,
    "benchmarks/b.py": """
        Conv2d(3, bias=False)
        np.asarray(x, copy=False)
        Linear(2, bias=layer.bias)
    """,
}
#: each listing lags its registry in its own way
REGISTRIES = {
    "src/repro/engine/schedulers.py": 'SCHEDULERS = ("sync", "async")\n',
    "src/repro/runtime/backends.py": 'BACKENDS = ("serial", "process")\n',
    "README.md": "| **Execution backend** | `serial` | one |\n"
    "| **Scheduler** | `sync` | one |\n",
    "docs/architecture.md": "| scheduler | deviation |\n|---|---|\n"
    "| `sync` | none |\n| `async` | buffered |\n| `sync` | again |\n",
    "examples/quickstart.py": '"""Demo.\n\n* ``execution_backend="process" | "serial"``\n"""\n',
}
DOC_REFERENCES = {
    "README.md": "Run `examples/demo.py` and `tests/gone.py`, see `examples/demo.py::main`, "
    "`examples/demo.py::missing`, `tests/gone.py::gone` and `tests/engine/golden_<name>.json`.\n",
    "examples/demo.py": "def main(): ...\n",
}

CASES = [
    ("wall-clock", "determinism", {"src/repro/x.py": CLOCK}, {"src/repro/x.py:5 time.time()"}),
    (
        "clock-seam-not-exempt",
        "determinism",
        {"src/repro/engine/clock.py": CLOCK},
        {"src/repro/engine/clock.py:5 time.time()"},
    ),
    (
        "unseeded-rng",
        "determinism",
        {"src/repro/x.py": "import numpy as np\nrng = np.random.default_rng()\n"},
        {"src/repro/x.py:2 numpy.random.default_rng()"},
    ),
    (
        "global-rng",
        "determinism",
        {"src/repro/x.py": "import random\nimport numpy as np\nrandom.random()\nnp.random.rand(3)\n"},
        {"src/repro/x.py:3 random.random()", "src/repro/x.py:4 numpy.random.rand()"},
    ),
    (
        "seeded-rng",
        "determinism",
        {"src/repro/x.py": "import numpy as np\ng = np.random.default_rng(7)\n"},
        set(),
    ),
    ("outside-the-library", "determinism", {"benchmarks/b.py": CLOCK}, set()),
    (
        "hot-path",
        "bare-dtype",
        {"src/repro/nn/x.py": BARE, "src/repro/fl/aggregation.py": BARE},
        {"src/repro/nn/x.py:5 numpy.zeros()", "src/repro/fl/aggregation.py:5 numpy.zeros()"},
    ),
    ("cold-path", "bare-dtype", {"src/repro/fl/metrics.py": BARE}, set()),
    (
        "explicit-dtype",
        "bare-dtype",
        {"src/repro/nn/x.py": """
            import numpy as np
            a = np.zeros(4, dtype=np.float64)
            b = np.full(4, 0.25, np.float32)
        """},
        set(),
    ),
    (
        "pinned-memmap",
        "bare-dtype",
        {"src/repro/nn/x.py": 'import numpy as np\nc = np.memmap(path, dtype=np.float32, mode="r")\n'},
        set(),
    ),
    (
        "bare-memmap",
        "bare-dtype",
        {"src/repro/compression/x.py": "import numpy as np\nrows = np.memmap(path, mode='r')\n"},
        {"src/repro/compression/x.py:2 numpy.memmap()"},
    ),
    (
        "unpaired-begin",
        "lifecycle-pairing",
        {"src/repro/x.py": """
            def run_round(strategy):
                strategy.begin_round(1)
                return strategy.aggregate()
        """},
        {"src/repro/x.py:3 run_round()"},
    ),
    (
        "try-pairing",
        "lifecycle-pairing",
        {"src/repro/x.py": """
            def run_round(strategy, work):
                strategy.begin_round(1)
                try:
                    agg = work()
                except Exception:
                    strategy.abort_round(1)
                    raise
                strategy.end_round(agg, 1)
        """},
        set(),
    ),
    (
        "context-manager",
        "lifecycle-pairing",
        {"src/repro/x.py": """
            @contextmanager
            def strategy_round(server, round_idx):
                server.strategy.begin_round(round_idx)
                rnd = OpenRound(round_idx)
                try:
                    yield rnd
                finally:
                    if not rnd.closed:
                        server.strategy.abort_round(round_idx)
        """},
        set(),
    ),
    (
        "unvalidated",
        "config-validated",
        {"src/repro/fl/config.py": CONFIG},
        {"mystery_knob_xyzzy"},
    ),
    (
        "named-only-in-a-message",
        "config-validated",
        {"src/repro/fl/config.py": '''
            class RunConfig:
                rounds: int = 3
                fast_flag: bool = False
                eval_top_k: int = 1

                def validate(self):
                    """Checks rounds, fast_flag and eval_top_k."""
                    if self.rounds <= 0:
                        raise ValueError("rounds must be positive")
                    for flag in ("fast_flag",):
                        if not isinstance(getattr(self, flag), bool):
                            raise ValueError(f"{flag} must be a bool")
                    if getattr(self, "eval_" + "top_k") not in (1, 5):
                        raise ValueError("eval_top_k must be 1 or 5")
        '''},
        {"eval_top_k"},
    ),
    (
        "undocumented",
        "config-documented",
        {"src/repro/fl/config.py": CONFIG, "README.md": "`rounds` and `p`\n"},
        {"mystery_knob_xyzzy"},
    ),
    (
        "read-in-validate-only",
        "config-read",
        {"src/repro/fl/config.py": CONFIG, "src/repro/run.py": "n = config.rounds\n"},
        {"p", "mystery_knob_xyzzy"},
    ),
    ("callees-own-parameter", "config-set", TRACE_CALLERS, {"p", "mystery_knob_xyzzy"}),
    (
        "forwarded-into-a-config",
        "config-set",
        {**TRACE_CALLERS, "benchmarks/scenario.py": "dict(p=scenario.p)\n"},
        {"mystery_knob_xyzzy"},
    ),
    (
        "unpinned-schedulers",
        "golden-coverage",
        {
            "src/repro/engine/schedulers.py": 'SCHEDULERS = ("sync", "async", "semi", "bogus")\n',
            "tests/engine/golden_sync.json": "",
            "tests/engine/golden_async.json": "",
            "tests/engine/golden_semi.json": "",
            "tests/engine/test_sync.py": '"golden_sync.json"  # --regen rewrites it\n',
            "tests/engine/test_semi.py": '"golden_semi.json"\n',
        },
        {
            "async: no test references golden_async.json",
            "semi: no --regen path for golden_semi.json",
            "bogus: no golden_bogus.json",
        },
    ),
    ("backend-row-lags", "readme-backends", REGISTRIES, {"README.md Execution backend row"}),
    (
        "backend-bullet-out-of-order",
        "quickstart-backends",
        REGISTRIES,
        {"examples/quickstart.py execution_backend bullet"},
    ),
    ("scheduler-row-lags", "readme-schedulers", REGISTRIES, {"README.md Scheduler row"}),
    (
        "scheduler-listed-twice",
        "architecture-schedulers",
        REGISTRIES,
        {"docs/architecture.md scheduler table"},
    ),
    (
        "docs-match-the-registry",
        "architecture-schedulers",
        {**REGISTRIES, "docs/architecture.md": "| scheduler | deviation |\n|---|---|\n"
         "| `async` | buffered |\n| `sync` | none |\n"},
        set(),
    ),
    (
        "unused-export",
        "public-names",
        {
            "src/repro/mod.py": """
                __all__ = ["used", "unused", "Registered"]
                def used(): ...
                def unused(): ...
                @register
                class Registered: ...
            """,
            "src/repro/__init__.py": "from repro.mod import unused\n",
            "examples/demo.py": "from repro.mod import used\n",
        },
        {"unused"},
    ),
    (
        "unused-method",
        "public-methods",
        {
            "src/repro/mod.py": """
                class C:
                    def used(self): ...
                    def unused(self): ...
                    def _private(self): ...
            """,
            "benchmarks/b.py": "c.used()\n",
        },
        {"C.unused"},
    ),
    ("keyword-of-another-callee", "switch-callers", SWITCHES, {"Linear.bias", "load.copy"}),
    (
        "through-an-import-alias",
        "switch-callers",
        {**SWITCHES, "src/repro/io.py": "from repro.layers import load as fetch\nfetch(p, copy=True)\n"},
        {"Linear.bias"},
    ),
    (
        "deleted-parameter",
        "call-keywords",
        {
            "benchmarks/b.py": "from repro.fl import RunConfig\nRunConfig(rounds=2, gone=1)\n",
            "examples/e.py": "import repro.fl as fl\nfl.RunConfig(rounds=1)\n",
        },
        {"benchmarks/b.py:2 RunConfig(gone=)"},
    ),
    ("missing-paths", "doc-paths", DOC_REFERENCES, {"README.md: tests/gone.py"}),
    ("missing-names", "doc-names", DOC_REFERENCES, {"README.md: examples/demo.py::missing"}),
]


@pytest.mark.parametrize(
    "rule, texts, expected", [pytest.param(*case[1:], id=case[0]) for case in CASES]
)
def test_case(rule, texts, expected):
    index = Index({path: textwrap.dedent(text) for path, text in texts.items()})
    assert RULES[rule](index) == expected


def test_every_rule_has_a_case():
    assert {case[1] for case in CASES} == set(RULES)
