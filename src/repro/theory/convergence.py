"""Theorem 2's variance amplification term for sticky sampling.

.. math::

    A = \\frac{K}{N}\\Big(\\frac{S^2}{C} + \\frac{(N-S)^2}{K-C}\\Big)
        \\sum_{i=1}^N p_i^2.

It enters both the prescribed learning rate (Eq. 8) and the bound on
``min_t ‖∇F(w_t)‖²`` (Eq. 9).  With equal weights and no sticky group it
reduces to FedAvg's ``A = 1`` (§4.2), which the test suite checks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["variance_amplification"]


def variance_amplification(
    n: int, k: int, s: int, c: int, p: np.ndarray
) -> float:
    """The A-term of Theorem 2.

    For uniform weights ``p_i = 1/N`` and the degenerate "no sticky group"
    configuration the paper notes ``A = 1``; that limit corresponds to
    ``S² / C + (N-S)² / (K-C) → N² / K`` (all mass on one bucket).

    A bucket that holds clients but gets no slots — ``S > 0`` with
    ``C = 0``, or ``S < N`` with ``C = K`` — leaves those clients
    undrawable, so no unbiased estimator exists and the geometry is
    rejected.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or len(p) != n:
        raise ValueError(f"p must have length N={n}")
    if not np.isclose(p.sum(), 1.0, atol=1e-6):
        raise ValueError("client weights must sum to 1")
    if not 0 < k <= n:
        raise ValueError("need 0 < K <= N")
    if not 0 <= c <= k or not c <= s <= n:
        raise ValueError("need 0 <= C <= K and C <= S <= N")
    if (s > 0 and c == 0) or (s < n and c == k):
        raise ValueError(
            f"S={s}, C={c}, K={k}, N={n} leaves a bucket with clients but no "
            "slots: its clients can never be drawn"
        )
    sum_p2 = float((p**2).sum())
    bucket = 0.0
    if c > 0:
        bucket += s**2 / c
    if k - c > 0:
        bucket += (n - s) ** 2 / (k - c)
    return (k / n) * bucket * sum_p2
