"""Analysis from the paper's appendices: sampling propositions, Theorem 2."""

from repro.theory.sampling import (
    sticky_advantage_horizon,
    sticky_expected_gap,
    sticky_resample_prob,
    uniform_expected_gap,
    uniform_resample_prob,
)
from repro.theory.convergence import variance_amplification

__all__ = [
    "uniform_resample_prob",
    "uniform_expected_gap",
    "sticky_resample_prob",
    "sticky_expected_gap",
    "sticky_advantage_horizon",
    "variance_amplification",
]
