"""Multi-seed experiment support: mean ± std over repeated runs.

The paper reports single representative runs; for a library release we
also want seed-averaged results with dispersion, both to quantify run
noise and to make A/B claims (GlueFL vs baseline) statistically honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.runner import run_strategy
from repro.experiments.scenarios import Scenario
from repro.fl.metrics import RunResult

__all__ = ["SeedSummary", "run_strategy_seeds"]


@dataclass
class SeedSummary:
    """Aggregate statistics of one strategy across seeds."""

    strategy: str
    seeds: List[int]
    final_accuracy_mean: float
    final_accuracy_std: float
    dv_gb_mean: float
    dv_gb_std: float
    tv_gb_mean: float
    tt_hours_mean: float
    results: List[RunResult]

    def as_row(self) -> str:
        return (
            f"{self.strategy:<10} acc={self.final_accuracy_mean:.3f}"
            f"±{self.final_accuracy_std:.3f}  "
            f"DV={self.dv_gb_mean:.4f}±{self.dv_gb_std:.4f} GB  "
            f"TV={self.tv_gb_mean:.4f} GB  TT={self.tt_hours_mean:.4f} h"
        )


def run_strategy_seeds(
    scenario: Scenario,
    strategy_name: str,
    seeds: Sequence[int] = (0, 1, 2),
    strategy_kwargs: Optional[dict] = None,
    **config_overrides,
) -> SeedSummary:
    """Run one strategy across several seeds and summarize.

    Each seed re-draws the dataset, model initialization, sampling, and
    the systems substrate — i.e. a full independent replication.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results = [
        run_strategy(
            scenario,
            strategy_name,
            seed=seed,
            strategy_kwargs=strategy_kwargs,
            **config_overrides,
        )
        for seed in seeds
    ]
    accs = np.array([r.final_accuracy() for r in results])
    reports = [r.report() for r in results]
    dvs = np.array([rep.dv_gb for rep in reports])
    tvs = np.array([rep.tv_gb for rep in reports])
    tts = np.array([rep.tt_hours for rep in reports])
    return SeedSummary(
        strategy=strategy_name,
        seeds=list(seeds),
        final_accuracy_mean=float(accs.mean()),
        final_accuracy_std=float(accs.std()),
        dv_gb_mean=float(dvs.mean()),
        dv_gb_std=float(dvs.std()),
        tv_gb_mean=float(tvs.mean()),
        tt_hours_mean=float(tts.mean()),
        results=results,
    )

