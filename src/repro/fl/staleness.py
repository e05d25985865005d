"""Per-coordinate staleness tracking — the downstream-bandwidth ledger.

The server remembers, for every model coordinate, the version (update
counter) at which it last changed, and for every client, the version it
last synchronized to.  When a client is contacted, it must download exactly
the coordinates that changed since its last sync (§2.3) — for FedAvg that
is always everything; for masking strategies it is the union of the
per-round masks over the skipped rounds, which is what Fig. 2b measures.

Per-client ``last_sync`` state is one int32 column holding ``last_sync +
1``, all zeros at the start: 0 means never contacted (reads as version
−1, must download the full dense model).  ``np.zeros`` pages are mapped
on first write, so a 10⁶-client run holds 4 B per client, flat in how
many clients it contacts and in run length, and touches only the pages
its contacted clients sit on.  ``materialized_clients`` is a counter of
the distinct clients ever synced, and ``record_update`` refuses a version
the column cannot hold (past 2³¹ − 2) with ``OverflowError``.

Pricing a contact needs, per client, how many coordinates changed after
its last sync.  The per-version histogram of ``last_modified`` lives in a
Fenwick (binary indexed) tree — position ``v + 1`` holds version ``v`` —
so an update moves its coordinates between versions and a lookup reads a
prefix count, exact in integers, each touching one node per tree level
(all levels in one vectorized step) and never a pass over the versions;
the tree doubles when the versions outgrow it.  A long async run makes
one version per buffer flush, so a cost linear in the version count
would grow with run length.
"""

from __future__ import annotations

import numpy as np

from repro.network.encoding import dense_bytes, sparse_bytes_many
from repro.utils.arrays import sorted_unique

__all__ = ["StalenessTracker"]

#: the last version the ``last_sync + 1`` column can record
_MAX_VERSION = int(np.iinfo(np.int32).max) - 1
#: versions the histogram tree holds before its first doubling
_FIRST_CAPACITY = 64


class StalenessTracker:
    """Tracks ``last_modified`` per coordinate and ``last_sync`` per client.

    Version 0 is the initial model; clients that were never contacted
    (``last_sync`` −1) must download the full dense model — their first
    check-in ships the whole state.
    """

    def __init__(self, d: int, num_clients: int):
        if d <= 0 or num_clients <= 0:
            raise ValueError("d and num_clients must be positive")
        self.d = d
        self.num_clients = num_clients
        self.version = 0
        self.last_modified = np.zeros(d, dtype=np.int64)
        # Fenwick tree over the per-version histogram (#coordinates with
        # last_modified == v at position v + 1; slot 0 stays 0), sized to a
        # power of two: version 0 holds all d coordinates
        self._tree = np.zeros(_FIRST_CAPACITY + 1, dtype=np.int64)
        self._add(np.array([1], dtype=np.int64), np.array([d], dtype=np.int64))
        # last_sync + 1 per client, 0 = never contacted
        self._synced_at = np.zeros(num_clients, dtype=np.int32)
        self._contacted = 0

    @property
    def materialized_clients(self) -> int:
        """How many distinct clients were ever contacted (synced)."""
        return self._contacted

    def last_sync_of(self, client_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``last_sync`` reads (−1 = never contacted)."""
        return self._synced_column(client_ids).astype(np.int64) - 1

    def _levels(self) -> np.ndarray:
        """The tree's bit levels: ``0 … log2(capacity)``."""
        return np.arange((len(self._tree) - 1).bit_length(), dtype=np.int64)

    def _add(self, pos: np.ndarray, amount: np.ndarray) -> None:
        """Add ``amount[i]`` to the histogram at Fenwick position
        ``pos[i]``: on level ``b`` the node covering ``pos`` is the next
        multiple of ``2^b`` at or above it, when that multiple is odd
        (``pos − 1`` has bit ``b`` clear) and inside the tree.  Nodes
        shared by several positions sum through ``np.add.at``."""
        levels = self._levels()
        above = (pos[:, None] - 1) >> levels
        nodes = (above + 1) << levels
        covers = ((above & 1) == 0) & (nodes < len(self._tree))
        np.add.at(
            self._tree,
            nodes[covers],
            np.broadcast_to(amount[:, None], nodes.shape)[covers],
        )

    def _grow(self) -> None:
        """Double the tree.  The new nodes cover versions not reached
        yet, except the new root, which covers every version: all d."""
        capacity = len(self._tree) - 1
        tree = np.zeros(2 * capacity + 1, dtype=np.int64)
        tree[: capacity + 1] = self._tree
        tree[-1] = self.d
        self._tree = tree

    def record_update(self, changed_idx: np.ndarray) -> int:
        """Advance the model version; ``changed_idx`` now carry it.

        ``changed_idx`` must hold no duplicates (the
        :class:`~repro.compression.base.AggregateResult` contract): each
        listed coordinate leaves its old version's count for the new one,
        in ``O(len(changed_idx) · log versions)`` time and memory, with no
        pass over the versions.
        """
        if self.version >= _MAX_VERSION:
            raise OverflowError(
                f"version {self.version + 1} does not fit the int32 "
                "last_sync column"
            )
        self.version += 1
        if self.version + 1 >= len(self._tree):
            self._grow()
        n = len(changed_idx)
        if n:
            old = self.last_modified[changed_idx]
            low = int(old.min())
            span = int(old.max()) - low + 1
            if span <= n:
                # few distinct old versions (the common case: a round
                # moves coordinates last changed in recent rounds) —
                # count them once instead of walking the tree per
                # coordinate
                counts = np.bincount(old - low, minlength=span)
                versions = np.flatnonzero(counts)
                leave = counts[versions]
                versions += low
            else:
                versions, leave = old, np.ones(n, dtype=np.int64)
            self._add(
                np.append(versions + 1, self.version + 1),
                np.append(-leave, n),
            )
            self.last_modified[changed_idx] = self.version
        return self.version

    def _synced_column(self, client_ids: np.ndarray) -> np.ndarray:
        """``last_sync + 1`` per client (0 = never contacted)."""
        return self._synced_at[np.asarray(client_ids, dtype=np.int64)]

    def _stale_counts_at(self, pos: np.ndarray) -> np.ndarray:
        """Stale counts for clients whose ``last_sync + 1`` reads ``pos``:
        ``d`` minus the tree's prefix count at ``pos`` — the coordinates
        last modified at or before their sync (none at ``pos`` 0)."""
        if not pos.any():
            # first contacts only (most of a 10⁶-client fleet's): no tree
            return np.full(len(pos), self.d, dtype=np.int64)
        # the prefix at pos sums, for every set bit b of pos, the node at
        # pos with the bits below b cleared
        levels = self._levels()
        shifted = pos[:, None] >> levels
        prefix = (self._tree[shifted << levels] * (shifted & 1)).sum(axis=1)
        return self.d - prefix

    def stale_counts(self, client_ids: np.ndarray) -> np.ndarray:
        """How many coordinates each client must download right now.

        One prefix count per client in the tree ``record_update`` keeps
        over the per-version histogram — ``O(len(client_ids) · log
        versions)``, independent of ``d``.
        """
        return self._stale_counts_at(self._synced_column(client_ids))

    def sync_gaps(self, client_ids: np.ndarray) -> np.ndarray:
        """Versions elapsed since each client's last sync (−1 = never).

        Vectorized source of the ``gap_rounds`` column of
        ``RoundRecord.sync_details``: under the sync scheduler exactly one
        update is applied per round, so the version gap is the round gap.
        """
        last = self.last_sync_of(client_ids)
        return np.where(last < 0, -1, self.version - last).astype(
            np.int64, copy=False
        )

    def download_bytes_many(self, client_ids: np.ndarray):
        """Price a contact: ``(value_sync_bytes, stale_counts)`` per client.

        The wire size of each client's value sync (no strategy extras:
        the dense model for a first contact, the changed coordinates
        sparse-encoded otherwise) and its stale count, from one
        ``last_sync`` read — a dispatch needs both (bytes for the
        ledger, counts for the stale fraction) and this is its per-arrival
        hot path on a 10⁶-client fleet.
        """
        pos = self._synced_column(client_ids)
        counts = self._stale_counts_at(pos)
        if not pos.any():
            # first contacts only: each ships the dense model, nothing is
            # priced sparse
            return np.full(len(pos), dense_bytes(self.d), dtype=np.int64), counts
        nbytes = np.where(
            pos == 0,
            dense_bytes(self.d),
            sparse_bytes_many(counts, self.d),
        ).astype(np.int64, copy=False)
        return nbytes, counts

    def mark_synced(self, client_ids: np.ndarray) -> None:
        """Record that these clients now hold the current version."""
        ids = np.asarray(client_ids, dtype=np.int64).ravel()
        fresh = ids[self._synced_at[ids] == 0]
        self._synced_at[ids] = self.version + 1
        if len(fresh):
            self._contacted += len(sorted_unique(fresh))

    def mean_staleness_fraction(self, client_ids: np.ndarray) -> float:
        """Average fraction of the model the given clients would download."""
        if len(client_ids) == 0:
            return 0.0
        return float(self.stale_counts(client_ids).mean() / self.d)
