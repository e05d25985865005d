"""Post-hoc analysis of run records: the staleness curve.

:func:`gap_fraction_curve` turns a :class:`~repro.fl.metrics.RunResult`
into the series Fig. 2b plots, so users can compute it for their own runs
without going through the figure modules.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

import numpy as np

from repro.fl.metrics import RunResult
from repro.network.encoding import dense_bytes

__all__ = ["gap_fraction_curve"]


def gap_fraction_curve(
    result: RunResult, d: Optional[int] = None, max_gap: Optional[int] = None
) -> Dict[int, float]:
    """Fig. 2b's curve: mean downloaded model fraction vs skipped rounds.

    Requires the run to have been executed with
    ``RunConfig.collect_sync_details=True``.  First-ever contacts
    (gap = −1) are excluded.

    Parameters
    ----------
    result:
        A finished run.
    d:
        Model dimensionality; defaults to ``result.meta["d"]``.
    max_gap:
        Truncate the curve (gaps with few samples are noisy).
    """
    if d is None:
        d = int(result.meta["d"])
    full = dense_bytes(d)
    bucket: Dict[int, list] = defaultdict(list)
    saw_details = False
    for record in result.records:
        if record.sync_details is None:
            continue
        saw_details = True
        for _, gap, nbytes in record.sync_details:
            if gap >= 1 and (max_gap is None or gap <= max_gap):
                bucket[gap].append(nbytes / full)
    if not saw_details:
        raise ValueError(
            "run has no sync details; re-run with collect_sync_details=True"
        )
    return {gap: float(np.mean(vals)) for gap, vals in sorted(bucket.items())}

