"""Evaluation harness: one module per paper table/figure."""

from repro.experiments.scenarios import SCENARIOS, Scenario, get_scenario
from repro.experiments.runner import (
    STRATEGY_NAMES,
    build_config,
    make_strategy,
    run_strategy,
)
from repro.experiments.report import (
    common_target_accuracy,
    format_series,
    format_table,
    table2_rows,
)
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.table3 import run_table3a, run_table3b
from repro.experiments.theory_tables import run_case_study
from repro.experiments.multiseed import SeedSummary, run_strategy_seeds
from repro.experiments.analysis import gap_fraction_curve

__all__ = [
    "Scenario",
    "SCENARIOS",
    "get_scenario",
    "make_strategy",
    "build_config",
    "run_strategy",
    "STRATEGY_NAMES",
    "common_target_accuracy",
    "table2_rows",
    "format_table",
    "format_series",
    "format_table2",
    "run_fig1",
    "run_fig2",
    "run_table2",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_table3a",
    "run_table3b",
    "run_case_study",
    "SeedSummary",
    "run_strategy_seeds",
    "gap_fraction_curve",
]
