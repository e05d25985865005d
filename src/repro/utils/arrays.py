"""Index-array helpers shared by the compression and population layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["CHUNK_IDS", "sorted_unique"]

#: clients per piece of a set-up pass cut into pieces over a 10⁶-client
#: population: a piece's int64 temporary is 128 KiB, so what the pass
#: builds, not its temporaries, sets the traced peak
CHUNK_IDS = 1 << 14


def sorted_unique(
    values: np.ndarray, kind: Optional[str] = None
) -> np.ndarray:
    """Sorted distinct entries of a 1-D integer array.

    Sorts ``values`` **in place** (pass an array you own, typically a
    fresh ``np.concatenate``) and drops adjacent duplicates — what
    ``np.unique`` returns, without its hash pass, which costs an order of
    magnitude more than the sort on index-sized inputs.  ``kind`` goes to
    :meth:`numpy.ndarray.sort`: ``"stable"`` merges a few pre-sorted runs
    in linear time, the default is fastest on unordered ids.

    >>> sorted_unique(np.array([5, 1, 5, 3, 1])).tolist()
    [1, 3, 5]
    """
    values.sort(kind=kind)
    fresh = np.empty(len(values), dtype=bool)
    fresh[:1] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]
