"""Synthetic class-conditional data generators.

These stand in for FEMNIST / OpenImage / Google Speech (see DESIGN.md §1).
Each class gets a low-frequency spatial prototype (images) or a sparse
time-frequency pattern (spectrograms); samples are noisy scaled copies, so
a convolutional model genuinely benefits from its inductive bias while a
linear model still learns — i.e. accuracy climbs over FL rounds, which is
all the bandwidth experiments require of the data.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.datasets.base import ClientDataset, FederatedDataset
from repro.datasets.filters import filter_min_samples
from repro.datasets.partition import dirichlet_partition

__all__ = [
    "image_prototypes",
    "spectrogram_prototypes",
    "sample_from_prototypes",
    "permute_rows",
    "synthetic_federation",
]


def image_prototypes(
    num_classes: int,
    in_channels: int,
    image_size: int,
    rng: np.random.Generator,
    coarse: int = 4,
) -> np.ndarray:
    """Low-frequency per-class image prototypes ``(C, ch, H, W)``.

    A coarse random grid is upsampled with nearest-neighbour kron expansion,
    producing blocky large-scale structure that 3×3 convolutions can exploit.
    """
    if image_size % coarse:
        coarse = 2 if image_size % 2 == 0 else 1
    block = image_size // coarse
    grids = rng.normal(size=(num_classes, in_channels, coarse, coarse))
    protos = np.kron(grids, np.ones((1, 1, block, block)))
    # unit-power prototypes so `noise` has a consistent meaning
    power = np.sqrt((protos**2).mean(axis=(1, 2, 3), keepdims=True))
    return protos / np.maximum(power, 1e-12)


def spectrogram_prototypes(
    num_classes: int,
    in_channels: int,
    image_size: int,
    rng: np.random.Generator,
    tones_per_class: int = 3,
) -> np.ndarray:
    """Per-class time-frequency prototypes ``(C, ch, F, T)``.

    Each class is a sum of a few horizontal "tone tracks" with random
    frequency rows, onset times, and durations — a cartoon of keyword
    spectrograms (the Google Speech stand-in).
    """
    f_bins = t_bins = image_size
    protos = np.zeros((num_classes, in_channels, f_bins, t_bins))
    t = np.arange(t_bins)
    for cls in range(num_classes):
        for _ in range(tones_per_class):
            row = int(rng.integers(0, f_bins))
            onset = int(rng.integers(0, t_bins // 2))
            duration = int(rng.integers(t_bins // 4, t_bins))
            amp = float(rng.uniform(0.5, 1.5))
            envelope = np.exp(-0.5 * ((t - onset - duration / 2) / (duration / 3)) ** 2)
            protos[cls, :, row, :] += amp * envelope
            if row + 1 < f_bins:  # slight vertical smear, like a real STFT
                protos[cls, :, row + 1, :] += 0.5 * amp * envelope
    power = np.sqrt((protos**2).mean(axis=(1, 2, 3), keepdims=True))
    return protos / np.maximum(power, 1e-12)


#: Rows per build chunk are sized to about this many bytes, so the build's
#: temporaries (the gathered prototypes, one noise draw) stay ~1 MB whatever
#: the federation's size.
CHUNK_BYTES = 1 << 20


def sample_from_prototypes(
    prototypes: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    noise: float = 1.0,
    amplitude_jitter: float = 0.25,
) -> np.ndarray:
    """Draw ``x = a·proto[y] + noise·ε`` with per-sample amplitude jitter.

    ``x`` is preallocated and filled in row chunks of about
    :data:`CHUNK_BYTES`.  ``Generator.normal`` consumes its stream
    sequentially, so the chunked noise draws equal one whole-array draw and
    the result is the same as building ``x`` in one expression.
    """
    n = len(labels)
    amps = 1.0 + amplitude_jitter * rng.normal(size=(n, 1, 1, 1))
    dtype = np.result_type(amps, prototypes)
    x = np.empty((n,) + prototypes.shape[1:], dtype=dtype)
    rows = max(1, CHUNK_BYTES // max(1, x[:1].nbytes))
    for start in range(0, n, rows):
        c = slice(start, start + rows)
        np.multiply(amps[c], prototypes[labels[c]], out=x[c])
        x[c] += noise * rng.normal(size=x[c].shape)
    return x


def permute_rows(x: np.ndarray, order: np.ndarray) -> None:
    """Reorder ``x`` in place so that row ``j`` becomes old row ``order[j]``.

    ``order`` must be a permutation of ``range(len(x))``.  Each cycle of the
    permutation is walked with one row of scratch, so the reorder costs one
    row of memory instead of a second copy of ``x``.

    >>> x = np.arange(5) * 10
    >>> permute_rows(x, np.array([3, 0, 4, 1, 2]))
    >>> x
    array([30,  0, 40, 10, 20])
    """
    order = order.tolist()
    done = [False] * len(order)
    for start, first in enumerate(order):
        if done[start] or first == start:
            continue
        held = x[start].copy()
        dst = start
        while True:
            done[dst] = True
            src = order[dst]
            if src == start:
                x[dst] = held
                break
            x[dst] = x[src]
            dst = src


def synthetic_federation(
    *,
    name: str,
    num_clients: int,
    num_classes: int,
    in_channels: int,
    image_size: int,
    samples_per_client: int,
    alpha: float,
    noise: float,
    rng: np.random.Generator,
    prototype_kind: str = "image",
    test_samples: int = 512,
    min_samples: Optional[int] = None,
) -> FederatedDataset:
    """Build a non-IID synthetic federation.

    Parameters
    ----------
    samples_per_client:
        Mean shard size; actual sizes vary with the Dirichlet split.
    alpha:
        Dirichlet concentration (lower → more label skew).
    noise:
        Additive Gaussian noise level relative to unit-power prototypes.
    prototype_kind:
        ``"image"`` or ``"spectrogram"``.
    min_samples:
        If given, drop clients below this shard size (FedScale rule).
    """
    if prototype_kind == "image":
        protos = image_prototypes(num_classes, in_channels, image_size, rng)
    elif prototype_kind == "spectrogram":
        protos = spectrogram_prototypes(num_classes, in_channels, image_size, rng)
    else:
        raise ValueError(f"unknown prototype_kind {prototype_kind!r}")

    total = num_clients * samples_per_client
    labels = rng.integers(0, num_classes, size=total)
    x = sample_from_prototypes(protos, labels, rng, noise=noise)

    parts = dirichlet_partition(labels, num_clients, alpha, rng)
    # one client-ordered block: each shard is a contiguous view of x, its
    # rows in the partition's sample order
    order = np.concatenate(parts)
    permute_rows(x, order)
    y = labels[order]
    bounds = np.cumsum([0] + [len(idx) for idx in parts])
    clients: List[ClientDataset] = [
        ClientDataset(x=x[lo:hi], y=y[lo:hi], client_id=cid)
        for cid, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]

    test_y = rng.integers(0, num_classes, size=test_samples)
    test_x = sample_from_prototypes(protos, test_y, rng, noise=noise)

    dataset = FederatedDataset(
        clients=clients,
        test_x=test_x,
        test_y=test_y,
        num_classes=num_classes,
        in_channels=in_channels,
        image_size=image_size,
        name=name,
    )
    if min_samples is not None:
        dataset = filter_min_samples(dataset, min_samples)
    return dataset
