"""Round timing: over-commitment, stragglers, and participant selection.

Each candidate's round latency is ``download + E·compute + upload``.  With
over-commitment the server contacts more candidates than it needs and
aggregates the **first K whose uploads arrive** (Bonawitz et al., 2019),
respecting the sticky/non-sticky quota split.  The round's wall-clock time
is when the last needed upload lands; the round's download time (the DT
metric) is the slowest download among actual participants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CandidateTimings", "ParticipantSelection", "select_participants"]


@dataclass
class CandidateTimings:
    """Per-candidate latency components (parallel arrays)."""

    client_ids: np.ndarray
    download_s: np.ndarray
    compute_s: np.ndarray
    upload_s: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.client_ids)
        for arr in (self.download_s, self.compute_s, self.upload_s):
            if len(arr) != n:
                raise ValueError("timing arrays must be parallel")

    @property
    def finish_s(self) -> np.ndarray:
        return self.download_s + self.compute_s + self.upload_s


@dataclass
class ParticipantSelection:
    """Who made the cut, and the round clock."""

    sticky_ids: np.ndarray
    nonsticky_ids: np.ndarray
    round_seconds: float
    download_seconds: float
    compute_seconds: float
    upload_seconds: float
    #: each participant's finish offset from the round start, in
    #: ``participant_ids`` order
    finish_s: np.ndarray

    @property
    def participant_ids(self) -> np.ndarray:
        return np.concatenate([self.sticky_ids, self.nonsticky_ids])

    @property
    def count(self) -> int:
        return len(self.sticky_ids) + len(self.nonsticky_ids)


def _fastest(
    ids: np.ndarray, finish: np.ndarray, quota: int
) -> np.ndarray:
    """Ids of the ``quota`` earliest finishers (all if fewer survive)."""
    if quota >= len(ids):
        return ids
    order = np.argsort(finish, kind="stable")[:quota]
    return ids[order]


def select_participants(
    sticky_timings: CandidateTimings,
    nonsticky_timings: CandidateTimings,
    quota_sticky: int,
    quota_nonsticky: int,
    sticky_survives: np.ndarray,
    nonsticky_survives: np.ndarray,
) -> ParticipantSelection:
    """Pick the first-K finishers per bucket among surviving candidates.

    ``*_survives`` mark candidates whose upload actually arrives (mid-round
    dropout is drawn by the availability trace).  The returned clock values
    are taken over the *chosen* participants: the round ends when the last
    needed upload arrives.
    """
    chosen = []
    for timings, quota, survives in (
        (sticky_timings, quota_sticky, sticky_survives),
        (nonsticky_timings, quota_nonsticky, nonsticky_survives),
    ):
        alive = np.flatnonzero(survives)
        ids = timings.client_ids[alive]
        finish = timings.finish_s[alive]
        take = _fastest(ids, finish, quota)
        chosen.append(take)
    sticky_ids, nonsticky_ids = chosen

    # map chosen ids back to their rows in each timing table: searchsorted
    # over an argsorted view instead of building a Python dict per call
    positions = []
    for timings, ids in (
        (sticky_timings, sticky_ids),
        (nonsticky_timings, nonsticky_ids),
    ):
        order = np.argsort(timings.client_ids, kind="stable")
        rows = order[
            np.searchsorted(timings.client_ids[order], ids)
        ] if len(ids) else np.empty(0, dtype=np.int64)
        positions.append((timings, rows.astype(np.int64, copy=False)))

    def _gather(arr_name: str) -> np.ndarray:
        vals = [
            getattr(timings, arr_name)[rows]
            for timings, rows in positions
            if len(rows)
        ]
        return np.concatenate(vals) if vals else np.empty(0)

    finish = _gather("finish_s")
    download = _gather("download_s")
    compute = _gather("compute_s")
    upload = _gather("upload_s")
    if len(finish):
        round_seconds = float(np.max(finish))
        download_seconds = float(np.max(download))
        compute_seconds = float(np.max(compute))
        upload_seconds = float(np.max(upload))
    else:
        round_seconds = download_seconds = compute_seconds = 0.0
        upload_seconds = 0.0
    return ParticipantSelection(
        sticky_ids=sticky_ids,
        nonsticky_ids=nonsticky_ids,
        round_seconds=round_seconds,
        download_seconds=download_seconds,
        compute_seconds=compute_seconds,
        upload_seconds=upload_seconds,
        finish_s=finish,
    )
