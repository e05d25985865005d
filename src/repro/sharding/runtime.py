"""The sharding runtime a :class:`~repro.fl.server.FLServer` binds to its
strategy.

One object carries everything the sharded hot path needs:

* the :class:`~repro.sharding.partition.ShardSpec` partition,
* a :class:`~repro.sharding.executor.ShardExecutor` dispatching per-shard
  kernels over the configured backend,
* a persistent length-``d`` accumulator, recycled across rounds and
  optionally ``np.memmap``-backed (``RunConfig.shard_mmap``) so the dense
  sums of Eq. 5/6 never live in RAM,
* a :class:`ShardReleaseLedger` counting released (changed) coordinates
  per shard — the bookkeeping seam for per-coordinate privacy accounting
  over sparse releases (Kerkouche et al., 2021).

Strategies reach the sharded kernels only through this object (see
:meth:`~repro.compression.base.CompressionStrategy.bind_sharding`), so
:mod:`repro.compression` never imports :mod:`repro.sharding`.

All sums and top-k selections here are bit-identical to the unsharded
path: contiguous shards preserve each coordinate's operation order, and
the merged top-k is exact (see :mod:`repro.sharding.kernels`).
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.topk import top_k_in_support
from repro.sharding.executor import ShardExecutor
from repro.sharding.kernels import (
    merge_top_candidates,
    shard_elementwise_add,
    shard_slice_weighted_sum,
    shard_top_candidates,
    shard_weighted_scatter,
)
from repro.sharding.partition import ShardSpec

__all__ = ["ShardReleaseLedger", "ShardingRuntime"]


class ShardReleaseLedger:
    """Released-coordinate counts per shard, accumulated across rounds.

    Every aggregation releases the coordinates of ``changed_idx`` (they
    reach every client through the staleness sync); per-coordinate privacy
    accounting needs to know *where* those releases land, and the shard
    partition is exactly the granularity the rest of the subsystem
    already maintains.
    """

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.counts = np.zeros(spec.count, dtype=np.int64)
        self.rounds = 0

    def observe(self, changed_idx: np.ndarray) -> None:
        """Charge one round's sorted ``changed_idx`` to its shards."""
        pts = self.spec.split_points(changed_idx)
        self.counts += np.diff(pts)
        self.rounds += 1

    def released_fraction(self) -> np.ndarray:
        """Mean released fraction of each shard's coordinates per round."""
        sizes = np.diff(self.spec.offsets).astype(np.float64)
        if self.rounds == 0:
            return np.zeros(self.spec.count, dtype=np.float64)
        return self.counts / (sizes * self.rounds)


class ShardingRuntime:
    """Sharded kernels + shard-partitioned server bookkeeping.

    Payload index arrays handed to the sums must be sorted ascending —
    the repo-wide payload convention (``top_k_indices`` returns sorted
    indices), and what lets a shard take its slice of each payload with a
    ``searchsorted`` instead of a gather.
    """

    def __init__(
        self,
        d: int,
        shard_count: int,
        backend: str = "serial",
        workers: Optional[int] = None,
        mmap: bool = False,
        mmap_dir: Optional[str] = None,
    ):
        self.spec = ShardSpec.build(d, shard_count)
        self.executor = ShardExecutor(backend, workers=workers)
        self.ledger = ShardReleaseLedger(self.spec)
        self.mmap = bool(mmap)
        self._mmap_dir = mmap_dir
        self._owns_dir = False
        self._acc: Dict[str, np.ndarray] = {}
        self._acc_paths: Dict[str, str] = {}

    @property
    def d(self) -> int:
        return self.spec.d

    # -- accumulator ------------------------------------------------------
    def _mmap_root(self) -> str:
        if self._mmap_dir is None:
            self._mmap_dir = tempfile.mkdtemp(prefix="repro-shard-")
            self._owns_dir = True
        return self._mmap_dir

    def accumulator(self, dtype) -> np.ndarray:
        """A zeroed length-``d`` accumulator, recycled across calls.

        Runtime-owned and ``np.memmap``-backed when ``shard_mmap`` is on —
        the one d-sized temporary of a sharded aggregation then lives on
        disk.  Callers must finish with it before requesting the next
        accumulator of the same dtype.
        """
        key = np.dtype(dtype).name
        acc = self._acc.get(key)
        if acc is None:
            if self.mmap:
                path = os.path.join(self._mmap_root(), f"acc-{key}.dat")
                acc = np.memmap(
                    path, dtype=np.dtype(dtype), mode="w+", shape=(self.d,)
                )
                self._acc_paths[key] = path
            else:
                acc = np.zeros(self.d, dtype=np.dtype(dtype))
            self._acc[key] = acc
        acc[:] = 0
        return acc

    # -- sums -------------------------------------------------------------
    def sparse_weighted_sum(
        self,
        payloads: Sequence[Tuple[int, float, object]],
        key_idx: str = "idx",
        key_vals: str = "vals",
        dtype=np.float64,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sharded ``Σ ν_i · sparse_i`` — bit-identical to
        :func:`~repro.compression.base.weighted_dense_sum`."""
        acc = self.accumulator(dtype) if out is None else out
        splits = [
            self.spec.split_points(payload.data[key_idx])
            for _, _, payload in payloads
        ]
        tasks = []
        for s, lo, hi in self.spec.iter_bounds():
            items = []
            for (_, weight, payload), pts in zip(payloads, splits):
                idx = payload.data[key_idx][pts[s] : pts[s + 1]]
                if len(idx):
                    items.append(
                        (
                            weight,
                            idx - lo,
                            payload.data[key_vals][pts[s] : pts[s + 1]],
                        )
                    )
            tasks.append((hi - lo, items, np.dtype(dtype)))
        for (_, lo, hi), part in zip(
            self.spec.iter_bounds(),
            self.executor.map(shard_weighted_scatter, tasks),
        ):
            acc[lo:hi] = part
        return acc

    def masked_weighted_sum(
        self,
        payloads: Sequence[Tuple[int, float, object]],
        mask: np.ndarray,
        key: str = "shr_vals",
        dtype=np.float64,
    ) -> np.ndarray:
        """Sharded Eq. 5: ``Σ ν_i · vals_i`` over aligned mask slices.

        ``payload.data[key]`` holds one value per (sorted) ``mask``
        position, so the shard partition of the mask splits every payload
        into aligned contiguous slices.
        """
        out = np.zeros(len(mask), dtype=np.dtype(dtype))
        pts = self.spec.split_points(mask)
        tasks = []
        for s in range(self.spec.count):
            a, b = int(pts[s]), int(pts[s + 1])
            items = [
                (weight, payload.data[key][a:b])
                for _, weight, payload in payloads
            ]
            tasks.append((b - a, items, np.dtype(dtype)))
        for s, part in enumerate(
            self.executor.map(shard_slice_weighted_sum, tasks)
        ):
            out[pts[s] : pts[s + 1]] = part
        return out

    def dense_weighted_sum(
        self,
        payloads: Sequence[Tuple[int, float, object]],
        key: str = "dense",
        dtype=np.float64,
    ) -> np.ndarray:
        """Sharded dense FedAvg sum ``Σ ν_i · Δ_i``.

        Freshly allocated (never the recycled accumulator): the dense sum
        *is* the global delta, which outlives the aggregation call.
        """
        acc = np.empty(self.d, dtype=np.dtype(dtype))
        tasks = []
        for _s, lo, hi in self.spec.iter_bounds():
            items = [
                (weight, payload.data[key][lo:hi])
                for _, weight, payload in payloads
            ]
            tasks.append((hi - lo, items, np.dtype(dtype)))
        for (_, lo, hi), part in zip(
            self.spec.iter_bounds(),
            self.executor.map(shard_slice_weighted_sum, tasks),
        ):
            acc[lo:hi] = part
        return acc

    # -- selection --------------------------------------------------------
    def top_k_indices(
        self, x: np.ndarray, k: int, support: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Exact global top-``k`` of ``|x|`` via per-shard candidates.

        Same contract as :func:`~repro.compression.topk.top_k_indices`
        (sorted ascending, all of ``[0, d)`` when ``k >= d``, empty when
        ``k <= 0``); identical index set whenever the k-th magnitude is
        untied — the same arbitrary-tie contract ``argpartition`` has.

        ``support`` (sorted coordinates outside which ``x`` is exactly
        zero) makes every shard select among its slice of the support's
        values instead of its whole coordinate range, and the merge among
        the candidates' values: :func:`top_k_in_support` at both levels.
        ``k >= len(support)`` needs coordinates from outside the support
        and runs the dense selection.
        """
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        if k >= x.shape[0]:
            return np.arange(x.shape[0], dtype=np.int64)
        if support is not None and k < len(support):
            values = x[support]
            pts = self.spec.split_points(support)
            tasks = [
                (values[a:b], support[a:b], k)
                for a, b in zip(pts[:-1], pts[1:])
            ]
            # per-shard winners arrive in shard order, each sorted: the
            # concatenation is itself a sorted support
            cand = np.concatenate(self.executor.map(top_k_in_support, tasks))
            return top_k_in_support(x[cand], cand, k)
        tasks = [
            (x[lo:hi], k, lo) for _s, lo, hi in self.spec.iter_bounds()
        ]
        results = self.executor.map(shard_top_candidates, tasks)
        return merge_top_candidates(
            [idx for idx, _ in results], [mag for _, mag in results], k
        )

    # -- apply ------------------------------------------------------------
    def elementwise_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fresh ``a + b``, computed shard-by-shard (the params apply)."""
        out = np.empty(a.shape[0], dtype=np.result_type(a, b))
        tasks = [
            (a[lo:hi], b[lo:hi]) for _s, lo, hi in self.spec.iter_bounds()
        ]
        for (_, lo, hi), part in zip(
            self.spec.iter_bounds(),
            self.executor.map(shard_elementwise_add, tasks),
        ):
            out[lo:hi] = part
        return out

    # -- bookkeeping ------------------------------------------------------
    def observe_release(self, changed_idx: np.ndarray) -> None:
        self.ledger.observe(changed_idx)

    def close(self) -> None:
        """Release pools and delete any memmap accumulator files.

        Idempotent, and the runtime stays usable — the next kernel call
        rebuilds its pool/accumulators on demand.
        """
        self.executor.close()
        self._acc.clear()
        for path in self._acc_paths.values():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._acc_paths.clear()
        if self._owns_dir and self._mmap_dir is not None:
            try:
                os.rmdir(self._mmap_dir)
            except OSError:
                pass
            self._mmap_dir = None
            self._owns_dir = False
