"""Per-shard server kernels.

Four kernels cover the whole GlueFL server hot path, and every run —
one shard (the default) or many — executes exactly these:

* **scatter** (:func:`shard_weighted_scatter`) — ``Σ ν_i · sparse_i``
  (Eq. 6's accumulator): one payload at a time over the whole sum when a
  strategy folds (``lo = 0``), a shard's slice of a whole round in the
  out-of-core state.  Either way every coordinate receives the exact
  sequence of adds it would in one plain loop, so the sum is
  bit-identical whatever the partition;
* **slice sums** (:func:`shard_slice_weighted_sum`,
  :func:`shard_elementwise_add`) — shared-mask accumulation (Eq. 5), the
  active-set and dense FedAvg sums (folded one payload at a time) and the
  model-update apply, trivially shard-local;
* **top-k** (:func:`shard_top_k`, :func:`shard_top_k_in_support`) — one
  shard's candidates for a global top-k, over its coordinate range or
  over its slice of a sorted support.  Any member of the global top-k is
  beaten by fewer than ``k`` coordinates anywhere, in particular inside
  its own shard, so the union of per-shard top-``min(k, |shard|)`` sets
  is a superset of the answer (:meth:`ShardingRuntime.top_k_indices
  <repro.sharding.runtime.ShardingRuntime.top_k_indices>` finishes it).

**The slice-writing rule.**  Every kernel takes its output as the first
argument — the shard's view of the caller's result (the length-``d`` sum,
the candidate list) — writes into it in place and returns it.  Under the
``serial`` / ``thread`` backends that view *is* the result's memory, so a
shard costs no part buffer and no copy and one shard costs what the plain
expression does; a ``process`` worker writes into its pickled copy and
the parent copies the returned part back.

Every function here is a module-level pure function of its arguments so
the ``process`` shard backend can ship it through a fork pool unchanged.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.compression.topk import top_k_indices

__all__ = [
    "shard_weighted_scatter",
    "shard_slice_weighted_sum",
    "shard_elementwise_add",
    "shard_top_k",
    "shard_top_k_in_support",
]


def shard_weighted_scatter(
    out: np.ndarray,
    lo: int,
    items: Sequence[Tuple[float, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """``out += Σ weight · scatter(idx − lo, vals)`` over one shard.

    ``out`` covers global coordinates ``[lo, lo + len(out))``; ``items``
    holds ``(weight, idx, vals)`` per payload, ``idx`` global and in the
    payload's original (sorted) order — so each coordinate sees its adds
    in the same order under every partition.
    """
    for weight, idx, vals in items:
        np.add.at(out, idx - lo, weight * vals)
    return out


def shard_slice_weighted_sum(
    out: np.ndarray, items: Sequence[Tuple[float, np.ndarray]]
) -> np.ndarray:
    """``out += Σ weight · vals`` over aligned contiguous slices."""
    for weight, vals in items:
        out += weight * vals
    return out


def shard_elementwise_add(
    out: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``out[:] = a + b`` on one shard's slices (the params-apply kernel)."""
    return np.add(a, b, out=out)


def shard_top_k(
    out: np.ndarray, x_shard: np.ndarray, k: int, lo: int
) -> np.ndarray:
    """Global indices (sorted) of the shard's top-``len(out)`` ``|x|``,
    ``len(out) == min(k, len(x_shard))``."""
    return np.add(top_k_indices(x_shard, k), lo, out=out)


def shard_top_k_in_support(
    out: np.ndarray, values: np.ndarray, support: np.ndarray, k: int
) -> np.ndarray:
    """:func:`~repro.compression.topk.top_k_in_support` over the shard's
    slice of a sorted support, ``len(out) == min(k, len(support))``."""
    # the winners index ``values``, which ``support`` aligns with, so they
    # are in range: "clip" never clips, it skips "raise"'s buffered copy
    return np.take(support, top_k_indices(values, k), out=out, mode="clip")
