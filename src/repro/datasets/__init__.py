"""Synthetic non-IID federated datasets (FEMNIST/OpenImage/Speech stand-ins)."""

from repro.datasets.base import ClientDataset, FederatedDataset
from repro.datasets.partition import dirichlet_partition
from repro.datasets.filters import FEDSCALE_MIN_SAMPLES, filter_min_samples
from repro.datasets.synthetic import (
    image_prototypes,
    sample_from_prototypes,
    spectrogram_prototypes,
    synthetic_federation,
)
from repro.datasets.lazy import LazyClientList, lazy_synthetic_federation
from repro.datasets.femnist import femnist_like
from repro.datasets.openimage import openimage_like
from repro.datasets.speech import speech_like

__all__ = [
    "ClientDataset",
    "FederatedDataset",
    "dirichlet_partition",
    "filter_min_samples",
    "FEDSCALE_MIN_SAMPLES",
    "synthetic_federation",
    "image_prototypes",
    "spectrogram_prototypes",
    "sample_from_prototypes",
    "LazyClientList",
    "lazy_synthetic_federation",
    "femnist_like",
    "openimage_like",
    "speech_like",
]
