"""Per-checker fixture tests: each rule fires on a bad snippet, stays
quiet on the good twin, and honors an in-place waiver."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source

pytestmark = pytest.mark.analysis


def rules_of(text: str, path: str = "src/repro/example.py", **kwargs):
    return [f.rule for f in analyze_source(textwrap.dedent(text), path, **kwargs)]


# -- determinism ---------------------------------------------------------------
BAD_CLOCK = """
    import time

    def stamp():
        return time.time()
"""


def test_determinism_flags_wall_clock():
    assert rules_of(BAD_CLOCK) == ["determinism"]


def test_determinism_flags_unseeded_rng():
    assert rules_of(
        """
        import numpy as np

        def make():
            return np.random.default_rng()
        """
    ) == ["determinism"]


def test_determinism_flags_module_level_random():
    assert rules_of(
        """
        import random

        def draw():
            return random.random()
        """
    ) == ["determinism"]


def test_determinism_accepts_seeded_rng():
    assert rules_of(
        """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
        """
    ) == []


def test_determinism_exempts_the_clock_seam():
    # the simulated-clock module and the rng seam legitimately touch these
    assert rules_of(BAD_CLOCK, path="src/repro/engine/clock.py") == []
    assert rules_of(BAD_CLOCK, path="src/repro/utils/rng.py") == []


def test_determinism_waiver_honored():
    assert rules_of(
        """
        import time

        def stamp():
            return time.time()  # repro: allow[determinism] -- fixture
        """
    ) == []


def test_unjustified_waiver_is_its_own_finding():
    findings = analyze_source(
        textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()  # repro: allow[determinism]
            """
        ),
        "src/repro/example.py",
    )
    assert [f.rule for f in findings] == ["bad-waiver"]
    assert "justification" in findings[0].message


# -- bare-dtype ----------------------------------------------------------------
BARE = """
    import numpy as np

    def make():
        return np.zeros((4, 4))
"""


def test_bare_dtype_flags_hot_path():
    assert rules_of(BARE, path="src/repro/nn/example.py") == ["bare-dtype"]
    assert rules_of(BARE, path="src/repro/fl/aggregation.py") == ["bare-dtype"]


def test_bare_dtype_ignores_cold_paths():
    assert rules_of(BARE, path="src/repro/fl/metrics.py") == []


def test_bare_dtype_accepts_explicit_dtype():
    assert rules_of(
        """
        import numpy as np

        def make():
            a = np.zeros((4, 4), dtype=np.float64)
            b = np.full(4, 0.25, np.float32)
            return a, b
        """,
        path="src/repro/nn/example.py",
    ) == []


def test_bare_dtype_file_waiver():
    assert rules_of(
        """
        import numpy as np

        # repro: allow-file[bare-dtype] -- fixture
        def make():
            return np.zeros((4, 4))
        """,
        path="src/repro/nn/example.py",
    ) == []


# -- bare-dtype: np.memmap -----------------------------------------------------
def test_bare_dtype_flags_bare_memmap():
    findings = analyze_source(
        textwrap.dedent(
            """
            import numpy as np

            def open_rows(path):
                return np.memmap(path, mode="r")
            """
        ),
        path="src/repro/compression/error_comp.py",
    )
    assert [f.rule for f in findings] == ["bare-dtype"]
    assert "uint8" in findings[0].message


def test_bare_dtype_accepts_pinned_memmap():
    assert rules_of(
        """
        import numpy as np

        def open_rows(path):
            acc = np.zeros(8, dtype=np.float32)
            return acc, np.memmap(path, dtype=np.float32, mode="r")
        """,
        path="src/repro/compression/error_comp.py",
    ) == []


def test_bare_dtype_memmap_waiver_honored():
    assert rules_of(
        """
        import numpy as np

        def raw(path):
            return np.memmap(path, mode="r")  # repro: allow[bare-dtype] -- byte probe
        """,
        path="src/repro/compression/error_comp.py",
    ) == []


# -- config-coverage -----------------------------------------------------------
def test_config_coverage_flags_unvalidated_undocumented_field():
    findings = analyze_source(
        textwrap.dedent(
            """
            class RunConfig:
                rounds: int = 3
                mystery_knob_xyzzy: int = 0

                def validate(self):
                    if self.rounds <= 0:
                        raise ValueError("rounds must be positive")
            """
        ),
        "src/repro/fl/config.py",
    )
    assert [f.rule for f in findings] == ["config-coverage", "config-coverage"]
    assert all("mystery_knob_xyzzy" in f.message for f in findings)


def test_config_coverage_clean_when_validated_and_documented():
    # `rounds` is validated in the fixture and documented in the real docs
    assert rules_of(
        """
        class RunConfig:
            rounds: int = 3

            def validate(self):
                if self.rounds <= 0:
                    raise ValueError("rounds must be positive")
        """,
        path="src/repro/fl/config.py",
    ) == []


def test_config_coverage_only_applies_to_config_modules():
    assert rules_of(
        """
        class RunConfig:
            mystery_knob_xyzzy: int = 0
        """,
        path="src/repro/fl/other.py",
    ) == []


# -- golden-coverage -----------------------------------------------------------
def test_golden_coverage_flags_unpinned_scheduler():
    findings = analyze_source(
        textwrap.dedent('SCHEDULERS = ("sync", "bogus_sched")\n'),
        "src/repro/engine/schedulers.py",
    )
    assert [f.rule for f in findings] == ["golden-coverage"]
    assert "bogus_sched" in findings[0].message


def test_golden_coverage_accepts_pinned_schedulers():
    # every real scheduler has a golden + regen test, so the real tuple
    # passes — this is also what keeps the registry honest in CI
    assert rules_of(
        'SCHEDULERS = ("sync", "async", "failure", "semiasync", "overlapped")\n',
        path="src/repro/engine/schedulers.py",
    ) == []


# -- lifecycle-pairing ---------------------------------------------------------
def test_lifecycle_flags_unpaired_begin():
    findings = analyze_source(
        textwrap.dedent(
            """
            def run_round(strategy):
                strategy.begin_round(1)
                return strategy.aggregate()
            """
        ),
        "src/repro/example.py",
    )
    assert [f.rule for f in findings] == ["lifecycle-pairing"]


def test_lifecycle_accepts_try_pairing():
    assert rules_of(
        """
        def run_round(strategy, work):
            strategy.begin_round(1)
            try:
                agg = work()
            except Exception:
                strategy.abort_round(1)
                raise
            strategy.end_round(agg, 1)
            return agg
        """
    ) == []


def test_lifecycle_accepts_context_manager_guard():
    # the steps.strategy_round shape: the opener is a generator whose
    # finally aborts any round the block did not end
    assert rules_of(
        """
        from contextlib import contextmanager

        @contextmanager
        def strategy_round(server, round_idx):
            server.strategy.begin_round(round_idx)
            rnd = OpenRound(round_idx)
            try:
                yield rnd
            finally:
                if not rnd.closed:
                    server.strategy.abort_round(round_idx)
        """
    ) == []


# -- parse errors --------------------------------------------------------------
def test_syntax_error_is_reported_not_raised():
    findings = analyze_source("def broken(:\n", "src/repro/example.py")
    assert [f.rule for f in findings] == ["parse-error"]
