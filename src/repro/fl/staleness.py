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
"""

from __future__ import annotations

import numpy as np

from repro.network.encoding import dense_bytes, sparse_bytes, sparse_bytes_many
from repro.utils.arrays import sorted_unique

__all__ = ["StalenessTracker"]

#: the last version the ``last_sync + 1`` column can record
_MAX_VERSION = int(np.iinfo(np.int32).max) - 1


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
        # _version_hist[v] = #coordinates with last_modified == v and
        # _changed_from[v] = #coordinates with last_modified >= v (its
        # suffix sum, one trailing 0), both kept in step by record_update
        # so pricing a contact never rescans d or re-sums the versions
        self._version_hist = np.array([d], dtype=np.int64)
        self._changed_from = np.array([d, 0], dtype=np.int64)
        # last_sync + 1 per client, 0 = never contacted
        self._synced_at = np.zeros(num_clients, dtype=np.int32)
        self._contacted = 0

    @property
    def materialized_clients(self) -> int:
        """How many distinct clients were ever contacted (synced)."""
        return self._contacted

    def last_sync_of(self, client_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``last_sync`` reads (−1 = never contacted)."""
        last = self._synced_at[np.asarray(client_ids, dtype=np.int64)]
        return last.astype(np.int64) - 1

    def _last_sync(self, client_id: int) -> int:
        return int(self._synced_at[int(client_id)]) - 1

    def record_update(self, changed_idx: np.ndarray) -> int:
        """Advance the model version; ``changed_idx`` now carry it.

        ``changed_idx`` must hold no duplicates (the
        :class:`~repro.compression.base.AggregateResult` contract): the
        per-version histogram moves each listed coordinate from its old
        version's bin to the new one, in O(len(changed_idx) + versions).
        """
        if self.version >= _MAX_VERSION:
            raise OverflowError(
                f"version {self.version + 1} does not fit the int32 "
                "last_sync column"
            )
        self.version += 1
        hist = np.zeros(self.version + 1, dtype=np.int64)
        hist[:-1] = self._version_hist
        if len(changed_idx):
            hist[:-1] -= np.bincount(
                self.last_modified[changed_idx], minlength=self.version
            )
            hist[-1] = len(changed_idx)
            self.last_modified[changed_idx] = self.version
        self._version_hist = hist
        self._changed_from = np.concatenate(
            [np.cumsum(hist[::-1])[::-1], [0]]
        )
        return self.version

    def stale_count(self, client_id: int) -> int:
        """How many coordinates the client must download right now."""
        last = self._last_sync(client_id)
        if last < 0:
            return self.d
        return int((self.last_modified > last).sum())

    def _stale_counts_since(self, last: np.ndarray) -> np.ndarray:
        """Stale counts for clients whose ``last_sync`` reads ``last``."""
        lookup = self._changed_from[np.minimum(last + 1, self.version + 1)]
        return np.where(last < 0, self.d, lookup).astype(np.int64, copy=False)

    def stale_counts(self, client_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`stale_count` over several clients.

        One lookup per client in the suffix sum ``record_update`` keeps
        over the per-version histogram — ``O(len(client_ids))``,
        independent of ``d`` and of the number of versions.
        """
        return self._stale_counts_since(self.last_sync_of(client_ids))

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

    def stale_positions(self, client_id: int) -> np.ndarray:
        """Exact coordinate set the client must download (diagnostics)."""
        last = self._last_sync(client_id)
        if last < 0:
            return np.arange(self.d, dtype=np.int64)
        return np.flatnonzero(self.last_modified > last)

    def download_bytes(self, client_id: int) -> int:
        """Wire size of the value sync for one client (no strategy extras)."""
        last = self._last_sync(client_id)
        if last < 0:
            return dense_bytes(self.d)
        return sparse_bytes(self.stale_count(client_id), self.d)

    def download_bytes_many(self, client_ids: np.ndarray):
        """Price a contact: ``(value_sync_bytes, stale_counts)`` per client.

        The vectorized :meth:`download_bytes` / :meth:`stale_count` pair
        from one ``last_sync`` read — a dispatch needs both (bytes for the
        ledger, counts for the stale fraction) and this is its per-arrival
        hot path on a 10⁶-client fleet.
        """
        last = self.last_sync_of(client_ids)
        counts = self._stale_counts_since(last)
        nbytes = np.where(
            last < 0,
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
