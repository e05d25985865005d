"""Lazily materialized per-client server state with an optional LRU bound.

A 10⁶-client federation must not pay O(N) server memory for state that
only ever-sampled clients accumulate and that is wider than a column
entry — a residual's ``(row, weight)`` pair, a per-client norm estimate.
:class:`LazyClientState` is the shared container behind those stores:
entries materialize on first write, absent clients read as the
zero-default, and an optional ``max_clients`` bound evicts
least-recently-used entries (eviction must be semantically safe for the
caller — e.g. a lost residual simply compensates nothing — which is
exactly the zero-default contract).  A dict entry costs ≈ 90 B, so
state that fits a machine word per client is a numpy column instead:
``StalenessTracker`` keeps ``last_sync`` as 4 B per client, flat in how
many clients a run contacts.

>>> store = LazyClientState(default=lambda: 0.0, max_clients=2)
>>> store.get(7)
0.0
>>> store.set(7, 1.5), store.set(9, 2.5)   # within the bound: nothing evicted
([], [])
>>> store.get(7)
1.5
>>> store.set(11, 3.5)          # LRU bound: client 9 evicts, value handed back
[2.5]
>>> sorted(store.ids()), store.evictions
([7, 11], 1)
>>> store.get(9)                # evicted reads as the default again
0.0
>>> len(store)
2
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LazyClientState"]


class LazyClientState:
    """Ordered map ``client_id -> value`` with zero-default reads and an
    optional LRU ``max_clients`` bound.

    Parameters
    ----------
    default:
        Zero-arg callable producing the value absent clients read as
        (``None`` means absent clients read as ``None``).  Called per
        read so mutable defaults are never shared.
    max_clients:
        Upper bound on materialized entries; inserting past it evicts
        the least-recently-used entry.  ``None`` (default) is unbounded.
    """

    def __init__(
        self,
        default: Optional[Callable[[], Any]] = None,
        max_clients: Optional[int] = None,
    ) -> None:
        self._data: "OrderedDict[int, Any]" = OrderedDict()
        self._default = default
        self._max_clients: Optional[int] = None
        #: entries dropped by the LRU bound since construction
        self.evictions = 0
        self.bound(max_clients)

    def bound(self, max_clients: Optional[int]) -> List[Any]:
        """(Re)set the LRU bound, evicting down to it immediately.

        Returns the evicted values (see :meth:`set`)."""
        if max_clients is not None and max_clients < 1:
            raise ValueError("max_clients must be >= 1 (or None)")
        self._max_clients = max_clients
        return self._evict()

    def _evict(self) -> List[Any]:
        evicted: List[Any] = []
        if self._max_clients is None:
            return evicted
        while len(self._data) > self._max_clients:
            evicted.append(self._data.popitem(last=False)[1])
        self.evictions += len(evicted)
        return evicted

    def get(self, client_id: int, default: Any = None) -> Any:
        """The client's value, or the store default (freshens LRU rank)."""
        cid = int(client_id)
        if cid in self._data:
            self._data.move_to_end(cid)
            return self._data[cid]
        return self._absent(default)

    def peek(self, client_id: int, default: Any = None) -> Any:
        """:meth:`get` without freshening LRU rank — for inspection, which
        must not change which client the bound evicts next."""
        cid = int(client_id)
        if cid in self._data:
            return self._data[cid]
        return self._absent(default)

    def _absent(self, default: Any) -> Any:
        if self._default is not None:
            return self._default()
        return default

    def set(self, client_id: int, value: Any) -> List[Any]:
        """Materialize/overwrite the client's entry (freshens LRU rank).

        Returns the values the LRU bound evicted to make room (usually
        none), least-recently-used first — an owner whose values name an
        outside resource (a row of
        :class:`~repro.compression.error_comp.ResidualStore`'s file)
        reclaims it from here."""
        cid = int(client_id)
        self._data[cid] = value
        self._data.move_to_end(cid)
        return self._evict()

    def pop(self, client_id: int) -> Any:
        """Drop and return the client's entry (``None`` when absent)."""
        return self._data.pop(int(client_id), None)

    def clear(self) -> None:
        self._data.clear()

    def ids(self) -> List[int]:
        """Materialized client ids, least-recently-used first."""
        return list(self._data.keys())

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate materialized ``(client_id, value)`` pairs (no LRU
        freshening)."""
        return iter(self._data.items())

    def values_by_id(self) -> Dict[int, Any]:
        """Snapshot dict of the materialized entries."""
        return dict(self._data)

    def __contains__(self, client_id: int) -> bool:
        return int(client_id) in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = self._max_clients if self._max_clients is not None else "∞"
        return (
            f"LazyClientState(materialized={len(self._data)}, "
            f"bound={bound}, evictions={self.evictions})"
        )
