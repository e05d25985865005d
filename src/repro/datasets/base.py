"""Federated dataset abstractions.

A :class:`FederatedDataset` is a list of per-client shards plus one held-out
central test set.  Client importance weights ``p_i`` default to the
sample-count proportions, matching the paper's §2.1 setup where
``sum_i p_i = 1`` and the global objective is the p-weighted average of
client losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["ClientDataset", "FederatedDataset"]


@dataclass
class ClientDataset:
    """One client's local shard.

    Attributes
    ----------
    x:
        Features, shape ``(n, C, H, W)`` (or ``(n, F)`` for flat data).
    y:
        Integer labels, shape ``(n,)``.
    client_id:
        Stable identifier within the federation.
    """

    x: np.ndarray
    y: np.ndarray
    client_id: int = -1

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"feature/label count mismatch: {len(self.x)} vs {len(self.y)}"
            )

    def __len__(self) -> int:
        return len(self.y)

    def batches(
        self,
        batch_size: int,
        rng: np.random.Generator,
        num_batches: Optional[int] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield shuffled mini-batches, cycling through epochs as needed.

        Matches the FL local-update loop: the client draws ``num_batches``
        mini-batches (one per local SGD step ``e``); if the shard is smaller
        than ``num_batches * batch_size`` it reshuffles and continues —
        i.e. sampling ``ξ_i ~ D_i`` per step.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = len(self)
        if n == 0:
            raise ValueError(f"client {self.client_id} has no data")
        produced = 0
        target = num_batches if num_batches is not None else max(1, n // batch_size)
        while produced < target:
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                if produced >= target:
                    return
                sel = order[start : start + batch_size]
                yield self.x[sel], self.y[sel]
                produced += 1

    def label_histogram(self, num_classes: int) -> np.ndarray:
        """Per-class sample counts (used by non-IID-ness diagnostics)."""
        return np.bincount(self.y, minlength=num_classes).astype(np.int64)


@dataclass
class FederatedDataset:
    """A federation: client shards + central test set + geometry metadata."""

    clients: List[ClientDataset]
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int
    in_channels: int
    image_size: int
    name: str = "federated"
    _weights: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def weights(self) -> np.ndarray:
        """Client importance weights ``p_i`` (sample-proportional, sum to 1)."""
        if self._weights is None:
            counts = np.array([len(c) for c in self.clients], dtype=np.float64)
            total = counts.sum()
            if total <= 0:
                raise ValueError("federation has no data")
            self._weights = counts / total
        return self._weights

    def narrowed(self, dtype) -> "FederatedDataset":
        """This federation with its float features stored in ``dtype``.

        Returns a new federation when the shards are an eager list whose
        features share one feature shape and one float dtype wider than
        ``dtype``: the client features become contiguous views of one
        ``dtype`` block, a wider ``test_x`` is cast too, and labels, ids,
        metadata and :meth:`weights` carry over.  Anything else — features
        already as narrow, non-float or ragged, a lazy client list — comes
        back as ``self``.  ``self`` is never modified, so its block is freed
        once its owner drops it.  Casting the stored features once gives
        the same values as casting every batch drawn from them.

        >>> ds = FederatedDataset(
        ...     clients=[ClientDataset(np.ones((2, 3)), np.zeros(2, int), 0)],
        ...     test_x=np.ones((1, 3)), test_y=np.zeros(1, int),
        ...     num_classes=2, in_channels=1, image_size=3)
        >>> small = ds.narrowed(np.float32)
        >>> small.clients[0].x.dtype, small.test_x.dtype, ds.clients[0].x.dtype
        (dtype('float32'), dtype('float32'), dtype('float64'))
        >>> ds.narrowed(np.float64) is ds
        True
        """
        dtype = np.dtype(dtype)

        def wider(dt: np.dtype) -> bool:
            return dt.kind == "f" and dt.itemsize > dtype.itemsize

        if not isinstance(self.clients, list) or not self.clients:
            return self
        kinds = {(c.x.dtype, c.x.shape[1:]) for c in self.clients}
        if len(kinds) != 1:
            return self
        [(src, shape)] = kinds
        if not wider(src):
            return self
        block = np.empty((self.total_samples(),) + shape, dtype=dtype)
        clients: List[ClientDataset] = []
        lo = 0
        for c in self.clients:
            hi = lo + len(c)
            block[lo:hi] = c.x
            clients.append(
                ClientDataset(x=block[lo:hi], y=c.y, client_id=c.client_id)
            )
            lo = hi
        return FederatedDataset(
            clients=clients,
            test_x=(
                self.test_x.astype(dtype)
                if wider(self.test_x.dtype)
                else self.test_x
            ),
            test_y=self.test_y,
            num_classes=self.num_classes,
            in_channels=self.in_channels,
            image_size=self.image_size,
            name=self.name,
            _weights=self._weights,
        )

    def total_samples(self) -> int:
        return int(sum(len(c) for c in self.clients))

    def noniid_degree(self) -> float:
        """Mean total-variation distance between client and global label mix.

        0 = perfectly IID; → 1 as clients become single-class.  Used in tests
        to verify the Dirichlet partitioner actually skews labels.
        """
        global_hist = np.zeros(self.num_classes)
        client_hists = []
        for c in self.clients:
            h = c.label_histogram(self.num_classes).astype(np.float64)
            client_hists.append(h)
            global_hist += h
        global_p = global_hist / global_hist.sum()
        tvs = []
        for h in client_hists:
            if h.sum() == 0:
                continue
            tvs.append(0.5 * np.abs(h / h.sum() - global_p).sum())
        return float(np.mean(tvs))
