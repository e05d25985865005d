"""The whole-histogram staleness ledger, as the oracle for the tree.

:class:`HistogramLedger` is what ``repro.fl.staleness.StalenessTracker``
kept before its Fenwick tree: a dense per-version histogram of
``last_modified``, re-allocated and re-summed into a suffix count on every
update (``O(versions)`` per update, one index per lookup).  Same inputs,
same integer counts — the tests drive both over one history.
"""

from __future__ import annotations

import numpy as np


class HistogramLedger:
    """Stale counts from a dense per-version histogram and its suffix sum."""

    def __init__(self, d: int, num_clients: int):
        self.d = d
        self.version = 0
        self.last_modified = np.zeros(d, dtype=np.int64)
        # hist[v] = #coordinates with last_modified == v; changed_from[v] =
        # #coordinates with last_modified >= v, one trailing 0
        self.hist = np.array([d], dtype=np.int64)
        self.changed_from = np.array([d, 0], dtype=np.int64)
        self.last_sync = np.full(num_clients, -1, dtype=np.int64)

    def record_update(self, changed_idx: np.ndarray) -> int:
        self.version += 1
        hist = np.zeros(self.version + 1, dtype=np.int64)
        hist[:-1] = self.hist
        if len(changed_idx):
            hist[:-1] -= np.bincount(
                self.last_modified[changed_idx], minlength=self.version
            )
            hist[-1] = len(changed_idx)
            self.last_modified[changed_idx] = self.version
        self.hist = hist
        self.changed_from = np.concatenate([np.cumsum(hist[::-1])[::-1], [0]])
        return self.version

    def mark_synced(self, client_ids: np.ndarray) -> None:
        self.last_sync[np.asarray(client_ids, dtype=np.int64)] = self.version

    def stale_counts(self, client_ids: np.ndarray) -> np.ndarray:
        last = self.last_sync[np.asarray(client_ids, dtype=np.int64)]
        lookup = self.changed_from[np.minimum(last + 1, self.version + 1)]
        return np.where(last < 0, self.d, lookup).astype(np.int64)
