"""Magnitude top-k selection utilities.

All masking strategies in the paper reduce to "keep the k largest-magnitude
coordinates" (client-side in STC/GlueFL, server-side in STC/GlueFL mask
updates).  ``argpartition`` gives O(d) selection; ties are broken
arbitrarily but deterministically (numpy's partition order), which is fine —
the paper's algorithms are insensitive to tie order.

Server-side vectors are sparse by construction — an aggregated update has
``q·d`` non-zeros — and a dense selection over one is introselect's worst
case (``(1 − q)·d`` exact ties at zero).  :func:`top_k_in_support` selects
among the support's values only, so the mask shift costs O(q·d); the index
sets it works on are combined by :func:`union_sorted`, a linear merge.

Every selection in the repo, client or server side, is one
:func:`top_k_indices` call; a server-side one over a sparse vector passes
``support=`` and becomes a :func:`top_k_in_support`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.arrays import sorted_unique

__all__ = [
    "top_k_indices",
    "top_k_in_support",
    "union_sorted",
    "ratio_to_k",
]


def ratio_to_k(ratio: float, d: int) -> int:
    """Number of kept coordinates for a compression ratio ``q`` over ``d``.

    Rounds to nearest and clips to ``[0, d]``; ``q=0`` keeps nothing.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"compression ratio must be in [0, 1], got {ratio}")
    return int(np.clip(round(ratio * d), 0, d))


def top_k_indices(
    x: np.ndarray, k: int, support: Optional[np.ndarray] = None
) -> np.ndarray:
    """Indices of the ``k`` largest ``|x|`` entries (sorted ascending).

    Returns all indices when ``k >= len(x)`` and an empty array when
    ``k <= 0``; ties at the k-th magnitude are broken arbitrarily
    (``argpartition``'s contract).

    ``support`` (sorted coordinates outside which ``x`` is exactly zero,
    e.g. ``AggregateResult.changed_idx``) selects among the support's
    values instead of all of ``x`` — O(q·d), where the dense selection
    over an aggregated update meets ``(1 − q)·d`` exact ties at zero,
    introselect's worst case.  ``k >= len(support)`` needs coordinates
    from outside the support and runs the dense selection.
    """
    d = x.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= d:
        return np.arange(d, dtype=np.int64)
    if support is not None and k < len(support):
        return top_k_in_support(x[support], support, k)
    idx = np.argpartition(np.abs(x), d - k)[d - k :]
    return np.sort(idx).astype(np.int64, copy=False)


def top_k_in_support(
    values: np.ndarray, support: np.ndarray, k: int
) -> np.ndarray:
    """Coordinates of the ``k`` largest ``|values|`` of a sparse vector.

    The vector is in coordinate form: ``values[i]`` sits at coordinate
    ``support[i]`` (sorted ascending) and everything outside ``support``
    is exactly zero.  The selection sees ``len(support)`` values instead
    of ``d``, and returns the same (sorted) coordinates a dense
    :func:`top_k_indices` over the scattered vector would whenever the
    k-th magnitude is untied.  With ``k >= len(support)`` the whole
    support comes back: a sparse vector has no other coordinates to offer.
    """
    return support[top_k_indices(values, k)]


def union_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted ``int64`` index arrays.

    A stable sort of the concatenation merges the two pre-sorted runs in
    O(len(a) + len(b)); duplicates (within or across the inputs) collapse
    to one entry — numpy's own set union re-sorts from scratch instead.
    """
    merged = np.concatenate((a, b), dtype=np.int64)
    return sorted_unique(merged, kind="stable")

