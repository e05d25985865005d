"""The non-IID partitioner.

The paper partitions real datasets with FedScale's client-data mapping.  We
reproduce the *statistical* property that matters — heterogeneous label
distributions across clients — with the standard Dirichlet partitioner
(lower ``alpha`` → more skew).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.arrays import sorted_unique

__all__ = ["dirichlet_partition"]


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

