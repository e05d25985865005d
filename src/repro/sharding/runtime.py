"""The sharding runtime every strategy aggregates through.

One object carries the whole server-kernel path:

* the :class:`~repro.sharding.partition.ShardSpec` partition — one shard
  by default (``RunConfig.shard_count = 1``), so "unsharded" is not a
  second path but this one with a single task per kernel;
* a :class:`~repro.sharding.executor.ShardExecutor` dispatching per-shard
  kernels over the configured backend (at most one task runs inline);
* the per-payload folds a strategy builds its round sums with — plain
  numpy in the calling process, over the whole sum
  (:meth:`ShardingRuntime.fold_sparse`, :meth:`ShardingRuntime.fold_dense`);
* a :class:`ShardReleaseLedger` counting released (changed) coordinates
  per shard — the bookkeeping seam for per-coordinate privacy accounting
  over sparse releases (Kerkouche et al., 2021).

:meth:`CompressionStrategy.setup
<repro.compression.base.CompressionStrategy.setup>` binds a one-shard
runtime and :class:`~repro.fl.server.FLServer` replaces it with the
configured one; both import this package at call time, so
:mod:`repro.compression` never imports it at module level.

Results are bit-identical for every shard count, and one shard costs what
the plain expression costs: :mod:`repro.sharding.kernels` gives both
arguments (the top-k superset, the slice-writing rule).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.topk import top_k_in_support
from repro.sharding.executor import ShardExecutor
from repro.sharding.kernels import (
    shard_elementwise_add,
    shard_top_k,
    shard_top_k_in_support,
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
        """Mean released fraction of each shard's coordinates per round.

        An empty shard (``shard_count > d``) releases nothing: 0.0.
        """
        sizes = np.diff(self.spec.offsets)
        out = np.zeros(self.spec.count, dtype=np.float64)
        if self.rounds:
            np.divide(
                self.counts, sizes * self.rounds, out=out, where=sizes > 0
            )
        return out


class ShardingRuntime:
    """Per-shard kernels + shard-partitioned server bookkeeping.

    Index arrays handed to it — payload ``idx``, a top-k ``support``,
    ``changed_idx`` — are sorted ascending: the repo-wide convention
    (``top_k_indices`` returns sorted indices), and what lets a shard take
    its slice of a support with a ``searchsorted`` instead of a gather.
    """

    def __init__(
        self,
        d: int,
        shard_count: int,
        backend: str = "serial",
        workers: Optional[int] = None,
    ):
        self.spec = ShardSpec.build(d, shard_count)
        self._bounds = [(lo, hi) for _s, lo, hi in self.spec.iter_bounds()]
        self.executor = ShardExecutor(backend, workers=workers)
        self.ledger = ShardReleaseLedger(self.spec)
        self.open()

    def open(self) -> None:
        """Start the shard pool ahead of any kernel call; idempotent.

        Called at construction and by the server before each round, where
        no other thread runs: a ``process`` pool forks, and a kernel call
        may run beside a client-training thread.  One shard runs every
        kernel inline and starts nothing.
        """
        if self.spec.count > 1:
            self.executor.open()

    @property
    def d(self) -> int:
        return self.spec.d

    def _map_into(
        self,
        kernel: Callable[..., np.ndarray],
        out: np.ndarray,
        bounds: Sequence[Tuple[int, int]],
        tasks: Sequence[Tuple],
    ) -> np.ndarray:
        """Run ``kernel(out[a:b], *task)`` per shard; return ``out``.

        The slice-writing rule (see :mod:`repro.sharding.kernels`): each
        kernel writes its shard's view of ``out`` in place.  Only a
        ``process`` worker, which wrote into a pickled copy, hands back a
        different array — that part is copied into place here.
        """
        views = [out[a:b] for a, b in bounds]
        parts = self.executor.map(
            kernel, [(view, *task) for view, task in zip(views, tasks)]
        )
        for view, part in zip(views, parts):
            if part is not view:
                view[...] = part
        return out

    def _split(self, sorted_idx: np.ndarray) -> List[Tuple[int, int]]:
        """Each shard's ``(start, stop)`` slice of a sorted index array."""
        pts = self.spec.split_points(sorted_idx).tolist()
        return list(zip(pts[:-1], pts[1:]))

    # -- folds ------------------------------------------------------------
    # A strategy's round sums grow one payload at a time, as each update is
    # compressed (``CompressionStrategy.fold``).  A fold is O(payload) and
    # mutates the sum across calls, so it runs in the calling process over
    # the whole sum, as plain numpy — shipping the sum to a shard worker per
    # payload would cost d per fold.  Every coordinate receives its adds in
    # payload order whatever the shard count: bit-identical.

    @staticmethod
    def fold_sparse(
        acc: np.ndarray, weight: float, idx: np.ndarray, vals: np.ndarray
    ) -> None:
        """``acc += weight · scatter(idx, vals)`` — one payload into a
        length-``d`` sum (Eq. 6's accumulator); ``np.add.at`` lets indices
        repeat across payloads."""
        np.add.at(acc, idx, weight * vals)

    @staticmethod
    def fold_dense(acc: np.ndarray, weight: float, vals: np.ndarray) -> None:
        """``acc += weight · vals`` over aligned vectors — one payload into
        Eq. 5's shared-mask sum, an active-set sum or the dense FedAvg sum."""
        acc += weight * vals

    # -- selection --------------------------------------------------------
    def top_k_indices(
        self, x: np.ndarray, k: int, support: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Indices of the ``k`` largest ``|x|`` (sorted ascending).

        The one server-side selection: all of ``[0, d)`` when ``k >= d``,
        empty when ``k <= 0``, ties at the k-th magnitude broken
        arbitrarily (``argpartition``'s contract) and the same index set
        for every shard count whenever that magnitude is untied.

        Each shard selects its own top-``min(k, |shard|)`` — a superset
        of the global answer; the winners land in shard order, each
        sorted, so together they are themselves a sorted support, and
        only when they outnumber ``k`` (never with one shard) does one
        more :func:`top_k_in_support` over their values finish the job.

        ``support`` (sorted coordinates outside which ``x`` is exactly
        zero, e.g. ``AggregateResult.changed_idx``) makes every shard
        select among its slice of the support's values instead of its
        whole coordinate range — O(q·d), where the dense selection over an
        aggregated update meets ``(1 − q)·d`` exact ties at zero,
        introselect's worst case.  ``k >= len(support)`` needs
        coordinates from outside the support and runs the dense selection.
        """
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        if k >= x.shape[0]:
            return np.arange(x.shape[0], dtype=np.int64)
        if support is not None and k < len(support):
            values = x[support]
            kernel = shard_top_k_in_support
            tasks = [
                (values[a:b], support[a:b], k) for a, b in self._split(support)
            ]
        else:
            kernel = shard_top_k
            tasks = [(x[lo:hi], k, lo) for lo, hi in self._bounds]
        # the candidate list is a result like any other: allocated once,
        # each shard writing its min(k, |shard|) winners into its slice
        ends = list(accumulate(min(k, len(task[0])) for task in tasks))
        cand = self._map_into(
            kernel,
            np.empty(ends[-1], dtype=np.int64),
            list(zip([0] + ends[:-1], ends)),
            tasks,
        )
        if len(cand) > k:
            cand = top_k_in_support(x[cand], cand, k)
        return cand

    # -- apply ------------------------------------------------------------
    def elementwise_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fresh ``a + b``, computed shard-by-shard (the params apply)."""
        out = np.empty(a.shape[0], dtype=np.result_type(a, b))
        tasks = [(a[lo:hi], b[lo:hi]) for lo, hi in self._bounds]
        return self._map_into(shard_elementwise_add, out, self._bounds, tasks)

    # -- bookkeeping ------------------------------------------------------
    def observe_release(self, changed_idx: np.ndarray) -> None:
        self.ledger.observe(changed_idx)

    def close(self) -> None:
        """Release the shard pool; idempotent, and :meth:`open` restarts it."""
        self.executor.close()
