"""Contiguous coordinate-range partitioning of a length-``d`` vector.

Everything :mod:`repro.sharding` partitions — top-k selection, the
params apply, the release ledger — is split the same way:
``shard_count`` contiguous ranges in ``np.array_split`` convention (the
first ``d % shard_count`` shards are one element larger), so a
coordinate's shard is a single ``searchsorted`` over the offset table and
a *sorted* index array splits into per-shard slices without any gather.

Contiguity is what makes the kernels bit-identical for every shard
count: a contiguous range preserves the relative order of every
per-coordinate operation, so the floating-point sequence each coordinate
sees is unchanged, and a sorted support splits into sorted slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

__all__ = ["ShardSpec"]


@dataclass(frozen=True)
class ShardSpec:
    """An immutable partition of ``[0, d)`` into contiguous shards.

    ``offsets`` has ``count + 1`` entries with ``offsets[0] == 0`` and
    ``offsets[-1] == d``; shard ``s`` covers ``[offsets[s], offsets[s+1])``.
    ``shard_count > d`` is legal and simply yields empty trailing shards,
    so callers never have to special-case tiny vectors.

    >>> spec = ShardSpec.build(d=10, shard_count=3)
    >>> [spec.bounds(s) for s in range(spec.count)]
    [(0, 4), (4, 7), (7, 10)]
    """

    d: int
    offsets: np.ndarray = field(repr=False)

    @staticmethod
    def build(d: int, shard_count: int) -> "ShardSpec":
        if d <= 0:
            raise ValueError(f"d must be positive, got {d}")
        if shard_count <= 0:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        # np.array_split sizing: base + 1 for the first d % count shards
        base, extra = divmod(d, shard_count)
        sizes = np.full(shard_count, base, dtype=np.int64)
        sizes[:extra] += 1
        offsets = np.zeros(shard_count + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        offsets.flags.writeable = False
        return ShardSpec(d=d, offsets=offsets)

    @property
    def count(self) -> int:
        return len(self.offsets) - 1

    def bounds(self, shard: int) -> Tuple[int, int]:
        """``(lo, hi)`` global coordinate range of ``shard``."""
        return int(self.offsets[shard]), int(self.offsets[shard + 1])

    def size(self, shard: int) -> int:
        return int(self.offsets[shard + 1] - self.offsets[shard])

    def iter_bounds(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard, lo, hi)`` for every shard."""
        for s in range(self.count):
            lo, hi = self.bounds(s)
            yield s, lo, hi

    def split_points(self, sorted_idx: np.ndarray) -> np.ndarray:
        """Slice boundaries of ``sorted_idx`` per shard.

        For sorted global indices, shard ``s`` owns
        ``sorted_idx[pts[s]:pts[s + 1]]`` — a pure slice, no gather, so
        downstream per-shard work sees the coordinates in their original
        order (the bit-identity precondition).
        """
        return np.searchsorted(sorted_idx, self.offsets, side="left")
