"""Federated-learning simulation engine."""

from repro.fl.aggregation import (
    equal_weights,
    fedavg_weights,
    fold_buffer_delta,
    mean_buffer_delta,
    staleness_discounted_weights,
    sticky_weights,
)
from repro.fl.client import LocalResult, LocalTrainer
from repro.fl.config import RunConfig
from repro.fl.metrics import BandwidthReport, RoundRecord, RunResult
from repro.fl.samplers import (
    ClientSampler,
    PoissonSampler,
    SampleDraw,
    StickySampler,
    UniformSampler,
)
from repro.fl.server import FLServer, run_training
from repro.fl.simulator import (
    CandidateTimings,
    ParticipantSelection,
    select_participants,
)
from repro.fl.staleness import StalenessTracker

__all__ = [
    "RunConfig",
    "FLServer",
    "run_training",
    "RunResult",
    "RoundRecord",
    "BandwidthReport",
    "ClientSampler",
    "UniformSampler",
    "PoissonSampler",
    "StickySampler",
    "SampleDraw",
    "StalenessTracker",
    "LocalTrainer",
    "LocalResult",
    "CandidateTimings",
    "ParticipantSelection",
    "select_participants",
    "fedavg_weights",
    "sticky_weights",
    "equal_weights",
    "staleness_discounted_weights",
    "fold_buffer_delta",
    "mean_buffer_delta",
]
