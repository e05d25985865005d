"""Non-IID partitioners.

The paper partitions real datasets with FedScale's client-data mapping.  We
reproduce the *statistical* property that matters — heterogeneous label
distributions across clients — with the standard Dirichlet partitioner
(lower ``alpha`` → more skew) plus shard- and IID-partitioners for ablations.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.arrays import sorted_unique

__all__ = ["dirichlet_partition", "shard_partition", "iid_partition"]


def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Split sample indices across clients with Dirichlet(α) label skew.

    For each class ``c`` a proportion vector ``π_c ~ Dir(α·1)`` over clients
    is drawn and the class's samples are split accordingly.  ``alpha → ∞``
    recovers IID; ``alpha → 0`` gives near single-class clients.

    Returns a list of ``num_clients`` index arrays (possibly empty).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    labels = np.asarray(labels)
    per_client: List[List[np.ndarray]] = [[] for _ in range(num_clients)]
    # sorted_unique, not np.unique: that one imports numpy.ma on first use
    for cls in sorted_unique(labels.copy()):
        cls_idx = np.flatnonzero(labels == cls)
        rng.shuffle(cls_idx)
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        # split points from cumulative proportions
        cuts = (np.cumsum(proportions)[:-1] * len(cls_idx)).astype(int)
        for client_id, chunk in enumerate(np.split(cls_idx, cuts)):
            if len(chunk):
                per_client[client_id].append(chunk)
    out = []
    for chunks in per_client:
        if chunks:
            idx = np.concatenate(chunks)
            rng.shuffle(idx)
            out.append(idx)
        else:
            out.append(np.array([], dtype=np.int64))
    return out


def shard_partition(
    labels: np.ndarray,
    num_clients: int,
    shards_per_client: int,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """McMahan-style shard partition: sort by label, deal out shards.

    Each client receives ``shards_per_client`` contiguous label-sorted
    shards, giving clients a small number of classes each.
    """
    labels = np.asarray(labels)
    n = len(labels)
    num_shards = num_clients * shards_per_client
    if num_shards > n:
        raise ValueError(
            f"{num_shards} shards requested but only {n} samples available"
        )
    order = np.argsort(labels, kind="stable")
    shards = np.array_split(order, num_shards)
    shard_ids = rng.permutation(num_shards)
    out = []
    for client_id in range(num_clients):
        mine = shard_ids[
            client_id * shards_per_client : (client_id + 1) * shards_per_client
        ]
        idx = np.concatenate([shards[s] for s in mine])
        rng.shuffle(idx)
        out.append(idx)
    return out


def iid_partition(
    num_samples: int, num_clients: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Uniform random equal-size split (the IID control)."""
    order = rng.permutation(num_samples)
    return [np.sort(chunk) for chunk in np.array_split(order, num_clients)]
