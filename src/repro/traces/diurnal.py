"""Diurnal availability (extension beyond the paper's duty-cycle model).

FedScale's real check-in traces show strong day/night structure: devices
are idle-and-charging (hence eligible) during their local night.  This
trace models each client with a home timezone and an eligibility window,
plus the same mid-round dropout as the base trace.  It is a drop-in
replacement for :class:`~repro.traces.availability.AvailabilityTrace` and
is useful for studying how sticky sampling interacts with a client pool
that rotates with the clock — a question the paper leaves open.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DiurnalAvailabilityTrace"]


class DiurnalAvailabilityTrace:
    """Availability driven by a simulated time-of-day.

    Parameters
    ----------
    num_clients:
        Federation size.
    rng:
        Source of per-client timezones/windows and dropout draws.
    rounds_per_day:
        How many FL rounds make up one simulated day.
    window_hours:
        Length of each client's daily eligibility window (out of 24).
    jitter_prob:
        Probability a client deviates from its window in a given round
        (device plugged in at an odd hour, or busy during its window).
    dropout_prob:
        Mid-round dropout probability (same semantics as the base trace).
    """

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        rounds_per_day: int = 48,
        window_hours: float = 8.0,
        jitter_prob: float = 0.05,
        dropout_prob: float = 0.1,
    ):
        if rounds_per_day <= 0:
            raise ValueError("rounds_per_day must be positive")
        if not 0.0 < window_hours <= 24.0:
            raise ValueError("window_hours must be in (0, 24]")
        if not 0.0 <= jitter_prob < 1.0 or not 0.0 <= dropout_prob < 1.0:
            raise ValueError("probabilities must be in [0, 1)")
        self.num_clients = num_clients
        self.rounds_per_day = rounds_per_day
        self.window_fraction = window_hours / 24.0
        self.jitter_prob = jitter_prob
        self.dropout_prob = dropout_prob
        self._rng = rng
        # window start as a fraction of the day, clustered into a few
        # timezone-like groups rather than uniform
        num_zones = 6
        zone = rng.integers(0, num_zones, size=num_clients)
        self._window_start = (
            zone / num_zones + rng.normal(0, 0.02, size=num_clients)
        ) % 1.0

    def _day_position(self, round_idx: int) -> float:
        return (round_idx % self.rounds_per_day) / self.rounds_per_day

    def online(self, round_idx: int) -> np.ndarray:
        """Boolean mask of clients eligible at ``round_idx``."""
        pos = self._day_position(round_idx)
        offset = (pos - self._window_start) % 1.0
        in_window = offset < self.window_fraction
        if self.jitter_prob > 0.0:
            # deterministic per (round, client) jitter via a counter-based draw
            jitter_rng = np.random.default_rng(
                np.uint64(0x9E3779B9) * np.uint64(round_idx + 1)
            )
            flip = jitter_rng.random(self.num_clients) < self.jitter_prob
            in_window = in_window ^ flip
        return in_window

    def survives_round(self, client_ids: np.ndarray) -> np.ndarray:
        if self.dropout_prob == 0.0:
            return np.ones(len(client_ids), dtype=bool)
        return self._rng.random(len(client_ids)) >= self.dropout_prob

    def online_fraction_over_day(self) -> np.ndarray:
        """Mean availability per round position (diagnostics/plots)."""
        return np.array(
            [self.online(t).mean() for t in range(self.rounds_per_day)]
        )
