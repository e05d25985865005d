"""Plain numpy references for the server round.

The strategies fold each payload into their round sums as it arrives and
select through ``repro.compression.topk``; the textbook form they must
stay bit-identical to lives here, test-side (the
``tests/population/oracle.py`` precedent): every sum over the whole
round's payload list at once, one accumulator, one loop, one dense
top-k.
"""

from __future__ import annotations

import numpy as np

from repro.compression import (
    APFStrategy,
    FedAvgStrategy,
    GlueFLMaskStrategy,
    STCStrategy,
)
from repro.compression.topk import top_k_indices


def weighted_dense_sum(
    payloads, d, key_idx="idx", key_vals="vals", dtype=np.float64
):
    """``Σ ν_i · sparse_i`` into one dense vector (Eq. 6's accumulator)."""
    acc = np.zeros(d, dtype=dtype)
    for _, weight, payload in payloads:
        idx = payload.data[key_idx]
        if len(idx):
            np.add.at(acc, idx, weight * payload.data[key_vals])
    return acc


def slice_weighted_sum(payloads, key, length, dtype=np.float64):
    """``Σ ν_i · vals_i`` over aligned vectors: Eq. 5 on the shared mask
    (``key="shr_vals"``) and the dense FedAvg sum (``key="dense"``)."""
    acc = np.zeros(length, dtype=dtype)
    for _, weight, payload in payloads:
        acc += weight * payload.data[key]
    return acc


def strategy_round(strategy, payloads):
    """``(global_delta, changed_idx)`` that one ``aggregate()`` of
    ``strategy`` over a round's ``(client_id, weight, payload)`` triples
    must return, in the textbook form of each strategy's server step.

    Call it before the strategy aggregates: it reads the round's state
    (shared mask, k, server residual, active set) off the strategy, and
    wrappers aggregate through their inner strategy.
    """
    while hasattr(strategy, "inner"):
        strategy = strategy.inner
    d, dtype = strategy.d, strategy.dtype
    if isinstance(strategy, FedAvgStrategy):
        delta = slice_weighted_sum(payloads, "dense", d, dtype)
        return delta, np.arange(d, dtype=np.int64)
    if isinstance(strategy, APFStrategy):
        delta = np.zeros(d, dtype=dtype)
        for _, weight, payload in payloads:
            delta[payload.data["idx"]] += weight * payload.data["vals"]
        return delta, np.flatnonzero(strategy.active_mask())
    uni = weighted_dense_sum(payloads, d, dtype=dtype)
    delta = np.zeros(d, dtype=dtype)
    if isinstance(strategy, GlueFLMaskStrategy):
        mask = strategy._effective_mask()
        keep = top_k_indices(uni, strategy._k_unique())
        delta[mask] = slice_weighted_sum(payloads, "shr_vals", len(mask), dtype)
        delta[keep] += uni[keep]
        return delta, np.union1d(mask, keep)
    assert isinstance(strategy, STCStrategy)
    keep = top_k_indices(uni, strategy._k)
    delta[keep] = uni[keep]
    return delta, keep


def residual_round_trip(residual, delta, scale=1.0):
    """What ``ResidualStore.compensate`` returns for a recorded flat
    ``residual``: float32 storage, then Eq. 7's two operations in the
    delta's dtype (``scale`` = ν_old / ν_new under REC, 1 under EC)."""
    return delta + scale * residual.astype(np.float32).astype(delta.dtype)
