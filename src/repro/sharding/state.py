"""Out-of-core sharded GlueFL server state.

:class:`ShardedServerState` holds the *server half* of the GlueFL round —
parameters, sticky-mask bookkeeping, and the release ledger — partitioned
into contiguous coordinate-range shards, with the parameters living in
per-shard ``np.memmap`` files.  One round of server math (Eq. 5
shared-mask aggregation, Eq. 6 unique top-k, the update apply, and the
Alg. 3 line 26 mask shift) runs shard-by-shard without ever
materializing a dense length-``d`` vector in RAM:

* Eq. 5 is the bound runtime's
  :meth:`~repro.sharding.runtime.ShardingRuntime.masked_weighted_sum`;
* the unique-part aggregation and its top-k candidates come from one
  fused per-shard pass (:func:`_gluefl_shard_pass`): scatter the shard's
  payload slices into a shard-sized accumulator, emit the top
  ``min(k, |shard|)`` candidates as ``(index, value)``, and drop the
  accumulator — so the largest live temporary is one shard, not ``d``;
* the global top-k is the runtime's formulation on coordinate-form data:
  the candidates concatenate in shard order (already sorted) and one
  selection over their values runs only when they outnumber ``k``;
* the update is applied sparsely into each shard's memmap
  (:func:`_apply_shard` reopens by path, so the ``process`` backend works
  without shipping parameters);
* the next shared mask is the top-``k_shr`` of the (sparse) global delta
  (:func:`~repro.compression.topk.top_k_in_support`) — exact versus the
  dense formulation whenever the delta's support carries at least
  ``k_shr`` nonzero magnitudes, GlueFL's generic case.

The integrated :class:`~repro.fl.server.FLServer` path binds a
:class:`~repro.sharding.runtime.ShardingRuntime` to its strategy (dense
in/outputs); this class is the surface for ``d`` beyond RAM and the
substrate the hierarchical-aggregation work builds on.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.topk import top_k_in_support, top_k_indices, union_sorted
from repro.sharding.kernels import shard_weighted_scatter
from repro.sharding.runtime import ShardingRuntime

__all__ = ["ShardedServerState"]


def _gluefl_shard_pass(
    shard_len: int,
    lo: int,
    items: Sequence[Tuple[float, np.ndarray, np.ndarray]],
    k: int,
    dtype: np.dtype,
) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's fused Eq. 6 pass: scatter + top-k candidates.

    Returns ``(global_idx, acc[idx])`` for the shard's top
    ``min(k, shard_len)`` aggregated magnitudes, ``global_idx`` sorted.
    Module-level and pure so the ``process`` shard backend can dispatch it.
    """
    acc = shard_weighted_scatter(np.zeros(shard_len, dtype=dtype), lo, items)
    idx = top_k_indices(acc, k)
    return idx + lo, acc[idx]


def _apply_shard(
    path: str,
    dtype_name: str,
    shard_len: int,
    idx_local: np.ndarray,
    vals: np.ndarray,
) -> int:
    """Scatter-add ``vals`` into one shard's parameter memmap.

    Reopens the file by path so it is dispatchable to forked workers; the
    mapping is shared, so writes are coherent with the parent without an
    explicit sync.  Returns the touched count (a cheap progress signal).
    """
    shard = np.memmap(
        path, dtype=np.dtype(dtype_name), mode="r+", shape=(shard_len,)
    )
    np.add.at(shard, idx_local, vals)
    del shard
    return len(idx_local)


class ShardedServerState:
    """Sharded, memory-mapped GlueFL server state (see module docstring).

    Parameters
    ----------
    d, shard_count:
        Coordinate count and partition width (``ShardSpec.build``).
    k_total, k_shr:
        Kept coordinates per round and shared-mask size, as *counts*
        (callers convert ratios via
        :func:`~repro.compression.topk.ratio_to_k`).
    dtype:
        Parameter / accumulator dtype (default float32: the out-of-core
        regime is byte-bound).
    backend, workers:
        Shard dispatch (see :class:`~repro.sharding.executor.ShardExecutor`).
    mmap_dir:
        Directory for the per-shard parameter files; a private temporary
        directory (removed on :meth:`close`) when ``None``.
    """

    def __init__(
        self,
        d: int,
        shard_count: int,
        k_total: int,
        k_shr: int,
        dtype=np.float32,
        backend: str = "serial",
        workers: Optional[int] = None,
        mmap_dir: Optional[str] = None,
    ):
        if not 0 < k_total <= d:
            raise ValueError(f"k_total must be in (0, d], got {k_total}")
        if not 0 <= k_shr < k_total:
            raise ValueError(
                f"k_shr must be in [0, k_total), got {k_shr}"
            )
        self.runtime = ShardingRuntime(
            d, shard_count, backend=backend, workers=workers
        )
        self.spec = self.runtime.spec
        self.executor = self.runtime.executor
        self.ledger = self.runtime.ledger
        self.dtype = np.dtype(dtype)
        self.k_total = int(k_total)
        self.k_shr = int(k_shr)
        self.mask_idx: np.ndarray = np.empty(0, dtype=np.int64)
        self.round_idx = 0
        self._owns_dir = mmap_dir is None
        self._dir = mmap_dir or tempfile.mkdtemp(prefix="repro-shard-state-")
        self._paths: List[str] = []
        for s, lo, hi in self.spec.iter_bounds():
            path = os.path.join(self._dir, f"params-{s:05d}.dat")
            shard = np.memmap(
                path, dtype=self.dtype, mode="w+", shape=(hi - lo,)
            )
            del shard  # created zeroed; reopened per apply
            self._paths.append(path)
        self._closed = False

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def shard_paths(self) -> Tuple[str, ...]:
        return tuple(self._paths)

    # -- one server round -------------------------------------------------
    def aggregate_round(
        self, payloads: Sequence[Tuple[int, float, object]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one round of server math over ``(id, weight, payload)``
        triples (the strategy payload convention: ``shr_vals`` aligned to
        the current mask, sorted ``idx`` + ``vals`` for the unique part).

        Applies the update to the memmapped parameters, shifts the mask,
        charges the release ledger, and returns the sparse global update
        ``(changed_idx, changed_vals)``.
        """
        self._check_open()
        mask = self.mask_idx
        k_uni = self.k_total - len(mask)

        # Eq. 5 on the partitioned mask (aligned contiguous slices)
        shr_acc = self.runtime.masked_weighted_sum(
            payloads, mask, dtype=self.dtype
        )

        # Eq. 6 fused per shard: scatter + candidates, never a dense d
        tasks = [
            (hi - lo, lo, items, k_uni, self.dtype)
            for (_s, lo, hi), items in zip(
                self.spec.iter_bounds(), self.runtime.payload_slices(payloads)
            )
        ]
        passes = self.executor.map(_gluefl_shard_pass, tasks)
        # shard order, each sorted: the candidates are a sorted support
        keep = np.concatenate([idx for idx, _vals in passes])
        keep_vals = np.concatenate([vals for _idx, vals in passes])
        if len(keep) > k_uni:
            winners = top_k_indices(keep_vals, k_uni)
            keep, keep_vals = keep[winners], keep_vals[winners]

        # sparse global delta: mask positions take shr_acc, kept unique
        # positions add their aggregate (the dense formulation's
        # ``delta[mask] = shr; delta[keep] += uni[keep]``)
        changed = union_sorted(mask, keep)
        changed_vals = np.zeros(len(changed), dtype=self.dtype)
        if len(mask):
            changed_vals[np.searchsorted(changed, mask)] = shr_acc
        if len(keep):
            changed_vals[np.searchsorted(changed, keep)] += keep_vals

        self._apply_sparse(changed, changed_vals)
        self.runtime.observe_release(changed)

        # Alg. 3 line 26 over the sparse delta: exact vs the dense top-k
        # whenever the support holds >= k_shr nonzero magnitudes
        if self.k_shr > 0:
            self.mask_idx = top_k_in_support(changed_vals, changed, self.k_shr)
        self.round_idx += 1
        return changed, changed_vals

    def _apply_sparse(self, idx: np.ndarray, vals: np.ndarray) -> None:
        pts = self.spec.split_points(idx)
        tasks = []
        for s, lo, hi in self.spec.iter_bounds():
            part = idx[pts[s] : pts[s + 1]]
            if not len(part):
                continue
            tasks.append(
                (
                    self._paths[s],
                    self.dtype.name,
                    hi - lo,
                    part - lo,
                    vals[pts[s] : pts[s + 1]],
                )
            )
        self.executor.map(_apply_shard, tasks)

    # -- inspection -------------------------------------------------------
    def params_at(self, idx: np.ndarray) -> np.ndarray:
        """Gather parameter values at sorted global indices."""
        self._check_open()
        out = np.empty(len(idx), dtype=self.dtype)
        pts = self.spec.split_points(idx)
        for s, lo, hi in self.spec.iter_bounds():
            part = idx[pts[s] : pts[s + 1]]
            if not len(part):
                continue
            shard = np.memmap(
                self._paths[s], dtype=self.dtype, mode="r", shape=(hi - lo,)
            )
            out[pts[s] : pts[s + 1]] = shard[part - lo]
            del shard
        return out

    def read_shard(self, shard: int) -> np.ndarray:
        """One shard's parameters as an in-RAM copy (testing hook)."""
        self._check_open()
        lo, hi = self.spec.bounds(shard)
        view = np.memmap(
            self._paths[shard], dtype=self.dtype, mode="r", shape=(hi - lo,)
        )
        out = np.array(view, dtype=self.dtype)
        del view
        return out

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedServerState is closed")

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Release pools and delete every parameter memmap file.

        Idempotent.  Unlike the runtime, a closed state is *gone* — the
        files backing its parameters no longer exist.
        """
        if self._closed:
            return
        self._closed = True
        self.runtime.close()
        for path in self._paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        if self._owns_dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "ShardedServerState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
