"""Per-shard server kernels + exact global merges.

Three families of kernel cover the whole GlueFL server hot path:

* **scatter** (:func:`shard_weighted_scatter`) — the per-shard slice of
  ``Σ ν_i · sparse_i`` (Eq. 6's accumulator).  Bit-identical to the
  unsharded ``np.add.at`` loop because a contiguous shard preserves, for
  every coordinate, the exact sequence of adds it receives;
* **slice sums** (:func:`shard_slice_weighted_sum`,
  :func:`shard_elementwise_add`) — shared-mask accumulation (Eq. 5) and
  the model-update apply, trivially shard-local;
* **top-k** (:func:`shard_top_candidates` + :func:`merge_top_candidates`)
  — exact global top-k: any member of the global top-k is beaten by fewer
  than ``k`` coordinates anywhere, in particular inside its own shard, so
  the union of per-shard top-``min(k, |shard|)`` candidates is a superset
  of the answer; one ``argpartition`` over the (tiny) candidate
  magnitudes finishes the job.  Ties at the k-th magnitude are broken
  arbitrarily — exactly the contract ``np.argpartition`` already has in
  the unsharded :func:`~repro.compression.topk.top_k_indices`.  These
  are the kernels for *dense* inputs; a vector with a known sorted
  support (the mask shift over an aggregated update) never comes here —
  :meth:`ShardingRuntime.top_k_indices
  <repro.sharding.runtime.ShardingRuntime.top_k_indices>` dispatches
  :func:`~repro.compression.topk.top_k_in_support` over the support's
  per-shard slices instead, which is a module-level pure function too.

Every function here is a module-level pure function of its arguments so
the ``process`` shard backend can ship it through a fork pool unchanged.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "shard_weighted_scatter",
    "shard_slice_weighted_sum",
    "shard_elementwise_add",
    "shard_top_candidates",
    "merge_top_candidates",
]


def shard_weighted_scatter(
    shard_len: int,
    items: Sequence[Tuple[float, np.ndarray, np.ndarray]],
    dtype: np.dtype,
) -> np.ndarray:
    """``Σ weight · scatter(idx_local, vals)`` over one shard.

    ``items`` holds ``(weight, idx_local, vals)`` per payload, with
    ``idx_local`` shard-relative and in the payload's original (sorted)
    order — so each coordinate sees its adds in the same order as the
    unsharded accumulator.
    """
    acc = np.zeros(shard_len, dtype=dtype)
    for weight, idx, vals in items:
        if len(idx):
            np.add.at(acc, idx, weight * vals)
    return acc


def shard_slice_weighted_sum(
    length: int,
    items: Sequence[Tuple[float, np.ndarray]],
    dtype: np.dtype,
) -> np.ndarray:
    """``Σ weight · vals`` over aligned contiguous slices (Eq. 5 per shard)."""
    acc = np.zeros(length, dtype=dtype)
    for weight, vals in items:
        acc += weight * vals
    return acc


def shard_elementwise_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` on one shard's slices (the params-apply kernel)."""
    return a + b


def shard_top_candidates(
    x_shard: np.ndarray, k: int, lo: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """``(global_idx, |x|)`` of the top-``min(k, len)`` magnitudes.

    ``lo`` is the shard's global offset, added so the caller can merge
    candidates from many shards without bookkeeping.
    """
    n = x_shard.shape[0]
    kk = min(k, n)
    if kk <= 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=x_shard.dtype),
        )
    mag = np.abs(x_shard)
    if kk >= n:
        idx = np.arange(n, dtype=np.int64)
    else:
        idx = np.argpartition(mag, n - kk)[n - kk :].astype(
            np.int64, copy=False
        )
    return idx + np.int64(lo), mag[idx]


def merge_top_candidates(
    cand_idx: List[np.ndarray], cand_mag: List[np.ndarray], k: int
) -> np.ndarray:
    """Global top-``k`` indices (sorted ascending) from per-shard candidates.

    Exact whenever each shard contributed its top-``min(k, |shard|)``
    (superset property above); with fewer than ``k`` candidates in total,
    everything is returned — the ``k >= d`` degenerate case.
    """
    idx = np.concatenate(cand_idx) if cand_idx else np.empty(0, dtype=np.int64)
    if len(idx) <= k:
        return np.sort(idx).astype(np.int64, copy=False)
    mag = np.concatenate(cand_mag)
    m = len(idx)
    sel = np.argpartition(mag, m - k)[m - k :]
    return np.sort(idx[sel]).astype(np.int64, copy=False)
