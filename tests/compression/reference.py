"""Test oracle: the in-RAM residual store.

Until PR 23 this was ``repro.compression.error_comp.ResidualStore`` itself
— one float32 heap vector per ever-sampled client in an LRU-ordered dict.
``src/`` now keeps those vectors as rows of an unnamed temporary file;
this dict-backed form stays here as the reference the file store is
compared against, bit for bit (results, ``len``, ``evictions``, ``peek``).
It shares no code with the store: the LRU is a plain ``OrderedDict`` and
Eq. 7 is the three-temporary expression.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.compression.error_comp import ErrorCompMode


class HeapResidualStore:
    def __init__(self, mode=ErrorCompMode.REC, *, max_clients=None):
        self.mode = ErrorCompMode(mode)
        self.max_clients = max_clients
        self.evictions = 0
        self._store = OrderedDict()  # client_id -> (float32 vector, weight)

    def bound(self, max_clients):
        self.max_clients = max_clients
        self._evict()

    def _evict(self):
        while self.max_clients is not None and len(self._store) > self.max_clients:
            self._store.popitem(last=False)
            self.evictions += 1

    def reset(self):
        self._store.clear()

    def compensate(self, client_id, delta, current_weight):
        if self.mode is ErrorCompMode.NONE or client_id not in self._store:
            return delta.copy()
        self._store.move_to_end(client_id)
        h, weight = self._store[client_id]
        if self.mode is ErrorCompMode.EC:
            return delta + h.astype(delta.dtype)
        if current_weight <= 0:
            raise ValueError(f"non-positive aggregation weight {current_weight}")
        # a Python-float scale is weak: the product stays in delta's dtype
        return delta + (weight / current_weight) * h.astype(delta.dtype)

    def record(self, client_id, residual, weight):
        if self.mode is ErrorCompMode.NONE:
            return
        self._store[client_id] = (residual.astype(np.float32), float(weight))
        self._store.move_to_end(client_id)
        self._evict()

    def peek(self, client_id):
        return self._store.get(client_id)

    def __len__(self):
        return len(self._store)
