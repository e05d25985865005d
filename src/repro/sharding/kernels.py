"""Per-shard server kernels.

Three kernels cover the server's selection and apply, and every run —
one shard (the default) or many — executes exactly these:

* **apply** (:func:`shard_elementwise_add`) — the model-update apply,
  trivially shard-local;
* **top-k** (:func:`shard_top_k`, :func:`shard_top_k_in_support`) — one
  shard's candidates for a global top-k, over its coordinate range or
  over its slice of a sorted support.  Any member of the global top-k is
  beaten by fewer than ``k`` coordinates anywhere, in particular inside
  its own shard, so the union of per-shard top-``min(k, |shard|)`` sets
  is a superset of the answer (:meth:`ShardingRuntime.top_k_indices
  <repro.sharding.runtime.ShardingRuntime.top_k_indices>` finishes it).

The round sums (Eq. 5/6) are not shard kernels: a strategy folds each
payload into them in the calling process, as plain numpy
(:meth:`ShardingRuntime.fold_sparse
<repro.sharding.runtime.ShardingRuntime.fold_sparse>` /
:meth:`~repro.sharding.runtime.ShardingRuntime.fold_dense`).

**The slice-writing rule.**  Every kernel takes its output as the first
argument — the shard's view of the caller's result (the applied params,
the candidate list) — writes into it in place and returns it.  Under the
``serial`` / ``thread`` backends that view *is* the result's memory, so a
shard costs no part buffer and no copy and one shard costs what the plain
expression does; a ``process`` worker writes into its pickled copy and
the parent copies the returned part back.

Every function here is a module-level pure function of its arguments so
the ``process`` shard backend can ship it through a fork pool unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.compression.topk import top_k_indices

__all__ = [
    "shard_elementwise_add",
    "shard_top_k",
    "shard_top_k_in_support",
]


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
