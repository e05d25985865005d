"""Lazy client materialization for very large federations.

A 100k-client federation of eagerly-built shards costs gigabytes before a
single round runs — yet each round touches only the sampled cohort (tens
of clients).  :class:`LazyClientList` is a drop-in ``Sequence`` for
``FederatedDataset.clients``: shards are built on first access by a
deterministic per-client factory and kept in a small LRU cache, so peak
memory is bounded by ``cache_size`` shards regardless of federation size.

The backend seam makes this transparent: every execution backend indexes
``clients[task.client_id]`` per task, and the fork-based process backend
inherits the list by reference, so workers share the parent's cache
discipline.  Determinism holds because each shard is produced by
``np.random.default_rng([seed, client_id])`` — independent of access
order and of what was evicted in between.

>>> import numpy as np
>>> calls = []
>>> def factory(cid):
...     calls.append(cid)
...     return ClientDataset(
...         x=np.zeros((2, 1)), y=np.zeros(2, dtype=np.int64), client_id=cid
...     )
>>> shards = LazyClientList(5, factory, cache_size=2)
>>> _ = shards[0]; _ = shards[1]; _ = shards[0]  # hit: no rebuild
>>> calls
[0, 1]
>>> _ = shards[2]  # evicts 1 (least recently used)
>>> sorted(shards.cached_ids)
[0, 2]
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from repro.datasets.base import ClientDataset, FederatedDataset
from repro.datasets.synthetic import image_prototypes, sample_from_prototypes

__all__ = ["LazyClientList", "lazy_synthetic_federation"]


class LazyClientList(Sequence):
    """A ``Sequence[ClientDataset]`` that builds shards on demand.

    Parameters
    ----------
    num_clients:
        Federation size (``len`` of the virtual list).
    factory:
        ``factory(client_id) -> ClientDataset`` — must be deterministic in
        ``client_id`` so eviction and re-materialization are invisible.
    cache_size:
        Maximum number of shards held at once (LRU eviction).
    """

    def __init__(
        self,
        num_clients: int,
        factory: Callable[[int], ClientDataset],
        cache_size: int = 64,
    ):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.num_clients = num_clients
        self.factory = factory
        self.cache_size = cache_size
        self._cache: "OrderedDict[int, ClientDataset]" = OrderedDict()

    def __len__(self) -> int:
        return self.num_clients

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(self.num_clients))]
        cid = int(idx)
        if cid < 0:
            cid += self.num_clients
        if not 0 <= cid < self.num_clients:
            raise IndexError(f"client {idx} out of range [0, {self.num_clients})")
        shard = self._cache.get(cid)
        if shard is None:
            shard = self.factory(cid)
            self._cache[cid] = shard
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(cid)
        return shard

    @property
    def cached_ids(self):
        """Client ids currently resident (≤ ``cache_size``)."""
        return list(self._cache)


def lazy_synthetic_federation(
    *,
    name: str = "lazy-synthetic",
    num_clients: int,
    num_classes: int = 4,
    in_channels: int = 1,
    image_size: int = 8,
    samples_per_client: int = 8,
    alpha: float = 0.5,
    noise: float = 1.0,
    seed: int = 0,
    cache_size: int = 64,
    test_samples: int = 128,
) -> FederatedDataset:
    """A synthetic federation whose shards materialize lazily.

    Only the class prototypes and the central test set are built eagerly;
    each client's non-IID shard (Dirichlet-``alpha`` label preferences,
    exactly ``samples_per_client`` samples) comes from
    ``np.random.default_rng([seed, client_id])`` on first access.  Equal
    shard sizes let the importance weights ``p_i = 1/n`` be pre-set, so
    ``weights()`` never touches a shard — and, being one value, they are
    a read-only zero-stride view of it rather than an N-wide array.
    """
    root = np.random.default_rng(seed)
    protos = image_prototypes(num_classes, in_channels, image_size, root)
    test_y = root.integers(0, num_classes, size=test_samples)
    test_x = sample_from_prototypes(protos, test_y, root, noise=noise)

    concentration = np.full(num_classes, alpha)

    def factory(cid: int) -> ClientDataset:
        rng = np.random.default_rng([seed, cid])
        prefs = rng.dirichlet(concentration)
        # ``rng.choice(num_classes, size=samples_per_client, p=prefs)``'s
        # own inverse-CDF draw, without its argument checks: the same
        # uniforms, so the same labels
        cdf = prefs.cumsum()
        cdf /= cdf[-1]
        labels = cdf.searchsorted(rng.random(samples_per_client), side="right")
        x = sample_from_prototypes(protos, labels, rng, noise=noise)
        return ClientDataset(x=x, y=labels, client_id=cid)

    return FederatedDataset(
        clients=LazyClientList(num_clients, factory, cache_size=cache_size),
        test_x=test_x,
        test_y=test_y,
        num_classes=num_classes,
        in_channels=in_channels,
        image_size=image_size,
        name=name,
        _weights=np.broadcast_to(np.float64(1.0 / num_clients), num_clients),
    )
