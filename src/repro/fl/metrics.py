"""Run metrics: the paper's DV / TV / DT / TT accounting.

Table 2 reports, at the round where the (smoothed) test accuracy first
reaches a target:

* **DV** — cumulative downstream volume,
* **TV** — cumulative total volume (downstream + upstream),
* **DT** — cumulative download time, summing the *slowest participant's*
  download time per round (§5.1 "we pick the slowest client in each round
  and sum up their download time"),
* **TT** — cumulative wall-clock training time.

Accuracy is smoothed over a window of evaluations (the paper averages test
accuracy over 5 rounds) before the target test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["RoundRecord", "RunResult", "BandwidthReport"]

GB = 1e9


@dataclass
class RoundRecord:
    """Everything measured in one communication round."""

    round_idx: int
    down_bytes: int
    up_bytes: int
    round_seconds: float
    download_seconds: float
    compute_seconds: float
    upload_seconds: float
    num_candidates: int
    num_participants: int
    mean_stale_fraction: float
    train_loss: float
    accuracy: Optional[float] = None
    #: cumulative simulated wall-clock (seconds) at the end of this round,
    #: read off the scheduler's :class:`~repro.engine.clock.SimClock` —
    #: monotone across records under every scheduler, so time-to-accuracy
    #: is comparable between sync, async and tiered rounds
    wall_clock_s: Optional[float] = None
    #: optional per-candidate ``(client_id, gap_rounds, sync_bytes)`` detail
    #: (gap −1 = first contact); enabled by RunConfig.collect_sync_details
    sync_details: Optional[List[tuple]] = None
    #: mean staleness τ over the stale updates this record aggregated:
    #: the async buffer (τ = global updates between dispatch and arrival)
    #: or a semi-async round's folded-in stragglers (τ = rounds since
    #: dispatch); None when the round aggregated none
    mean_update_staleness: Optional[float] = None
    #: True when the bound population's trace hit this round with a
    #: dropout burst / straggler storm (``DeviceTrace.is_burst``)
    injected_failure: bool = False
    #: quorum degradation: how many re-draw waves ran after the cohort
    #: collapsed below ``quorum_fraction · K`` (0 = quorum met first try)
    quorum_redraws: int = 0
    #: the cohort stayed below quorum after every allowed re-draw and the
    #: round degraded to ``skip_empty_rounds`` semantics
    quorum_failed: bool = False
    #: mean realized work fraction over this round's participants (device
    #: populations with partial completeness; None otherwise)
    mean_completeness: Optional[float] = None
    #: cumulative (ε, δ)-DP budget consumed through this round, reported
    #: by the strategy's privacy accountant (None when no accounting is
    #: active — privacy off, zero noise, or the random-mask defense)
    privacy_epsilon_spent: Optional[float] = None


@dataclass
class BandwidthReport:
    """The Table 2 row: volumes (GB) and times (hours) at target accuracy."""

    reached_target: bool
    target_round: Optional[int]
    dv_gb: float
    tv_gb: float
    dt_hours: float
    tt_hours: float
    final_accuracy: float

    def as_row(self, label: str) -> str:
        mark = "" if self.reached_target else "  (target not reached)"
        return (
            f"{label:<18} DV={self.dv_gb:8.3f} GB  TV={self.tv_gb:8.3f} GB  "
            f"DT={self.dt_hours:7.3f} h  TT={self.tt_hours:7.3f} h{mark}"
        )


@dataclass
class RunResult:
    """Accumulated per-round records plus run-level metadata."""

    records: List[RoundRecord] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    @property
    def num_rounds(self) -> int:
        return len(self.records)

    # -- series ---------------------------------------------------------------
    def series(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.records])

    def cumulative_down_bytes(self) -> np.ndarray:
        return np.cumsum(self.series("down_bytes"))

    def cumulative_up_bytes(self) -> np.ndarray:
        return np.cumsum(self.series("up_bytes"))

    def cumulative_seconds(self) -> np.ndarray:
        return np.cumsum(self.series("round_seconds"))

    def cumulative_download_seconds(self) -> np.ndarray:
        return np.cumsum(self.series("download_seconds"))

    def wall_clock_series(self) -> np.ndarray:
        """Cumulative simulated time per record (clock-stamped schedulers);
        falls back to the ``round_seconds`` cumsum for legacy records."""
        stamps = [r.wall_clock_s for r in self.records]
        if any(s is None for s in stamps):
            return self.cumulative_seconds()
        return np.array(stamps)

    def time_to_target_s(
        self, target: float, window: int = 5
    ) -> Optional[float]:
        """Simulated seconds until the smoothed accuracy reaches ``target``
        (the paper's time-to-accuracy axis) — ``None`` if never reached."""
        target_round = self.rounds_to_target(target, window)
        if target_round is None:
            return None
        rounds = self.series("round_idx")
        pos = int(np.searchsorted(rounds, target_round, side="right")) - 1
        return float(self.wall_clock_series()[pos])

    def accuracy_points(self) -> List[tuple]:
        """``(round_idx, accuracy)`` at every evaluated round."""
        return [
            (r.round_idx, r.accuracy)
            for r in self.records
            if r.accuracy is not None
        ]

    def smoothed_accuracy(self, window: int = 5) -> List[tuple]:
        """Moving average over the last ``window`` evaluations."""
        points = self.accuracy_points()
        out = []
        for i in range(len(points)):
            lo = max(0, i - window + 1)
            acc = float(np.mean([a for _, a in points[lo : i + 1]]))
            out.append((points[i][0], acc))
        return out

    def final_accuracy(self, window: int = 5) -> float:
        smoothed = self.smoothed_accuracy(window)
        return smoothed[-1][1] if smoothed else 0.0

    def best_accuracy(self, window: int = 5) -> float:
        smoothed = self.smoothed_accuracy(window)
        return max((a for _, a in smoothed), default=0.0)

    # -- target-accuracy accounting ------------------------------------------------
    def rounds_to_target(
        self, target: float, window: int = 5
    ) -> Optional[int]:
        """First round whose smoothed accuracy reaches ``target`` (or None)."""
        for round_idx, acc in self.smoothed_accuracy(window):
            if acc >= target:
                return round_idx
        return None

    def report(
        self, target_accuracy: Optional[float] = None, window: int = 5
    ) -> BandwidthReport:
        """Cut the cumulative metrics at the target round (Table 2 semantics).

        Without a target (or when it is never reached) the full-run totals
        are reported and flagged.
        """
        if not self.records:
            raise ValueError("empty run")
        target_round = (
            self.rounds_to_target(target_accuracy, window)
            if target_accuracy is not None
            else None
        )
        if target_round is None:
            cut = len(self.records)
            reached = False
        else:
            rounds = self.series("round_idx")
            cut = int(np.searchsorted(rounds, target_round, side="right"))
            reached = True
        down = self.cumulative_down_bytes()[cut - 1]
        up = self.cumulative_up_bytes()[cut - 1]
        dt = self.cumulative_download_seconds()[cut - 1]
        tt = self.cumulative_seconds()[cut - 1]
        return BandwidthReport(
            reached_target=reached,
            target_round=target_round,
            dv_gb=float(down) / GB,
            tv_gb=float(down + up) / GB,
            dt_hours=float(dt) / 3600.0,
            tt_hours=float(tt) / 3600.0,
            final_accuracy=self.final_accuracy(window),
        )

    # -- figure-style series ---------------------------------------------------------
    def accuracy_vs_down_gb(self, window: int = 5) -> List[tuple]:
        """``(cumulative downstream GB, smoothed accuracy)`` pairs — the x/y
        series used by Figs. 5–8, 10, 11."""
        cum = self.cumulative_down_bytes()
        rounds = self.series("round_idx")
        out = []
        for round_idx, acc in self.smoothed_accuracy(window):
            pos = int(np.searchsorted(rounds, round_idx, side="right")) - 1
            out.append((float(cum[pos]) / GB, acc))
        return out
