"""Client availability traces (FedScale stand-in).

FedScale replays real device check-in traces: devices cycle between online
and offline and can drop out mid-round.  We reproduce both effects with a
per-client duty cycle (random period, phase, and on-fraction) plus an
independent mid-round dropout probability — together these create exactly
the straggler/offline pressure that over-commitment (§5.6) exists to absorb.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AvailabilityTrace", "always_available"]


class AvailabilityTrace:
    """Duty-cycle availability plus mid-round dropout.

    Parameters
    ----------
    num_clients:
        Federation size.
    rng:
        Source of the per-client cycle parameters and dropout draws.
    mean_on_fraction:
        Average fraction of rounds each client is online.
    min_period, max_period:
        Range of duty-cycle lengths, in rounds.
    dropout_prob:
        Probability that an online, selected client fails mid-round
        (its update never arrives).
    """

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        mean_on_fraction: float = 0.8,
        min_period: int = 20,
        max_period: int = 200,
        dropout_prob: float = 0.1,
    ):
        if not 0.0 < mean_on_fraction <= 1.0:
            raise ValueError("mean_on_fraction must be in (0, 1]")
        if not 0.0 <= dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        self.num_clients = num_clients
        self.dropout_prob = dropout_prob
        self._rng = rng
        # drawn as int64 (the RNG stream is pinned), kept as wide as a
        # period is: uint8 up to 255 rounds, uint16 up to 65 535
        narrow = np.min_scalar_type(int(max_period))
        period = rng.integers(min_period, max_period + 1, size=num_clients)
        self._phase = rng.integers(0, period).astype(narrow)
        self._period = period.astype(narrow)
        del period
        # Beta with the requested mean, moderate dispersion
        a = 4.0 * mean_on_fraction
        b = 4.0 * (1.0 - mean_on_fraction) + 1e-9
        self._on_fraction = rng.beta(a, b, size=num_clients)

    def online(self, round_idx: int) -> np.ndarray:
        """Boolean mask of clients online at ``round_idx``."""
        pos = self._phase.astype(np.int64)
        pos += round_idx
        pos %= self._period.astype(np.int64)
        return pos < self._on_fraction * self._period

    def survives_round(self, client_ids: np.ndarray) -> np.ndarray:
        """Draw mid-round dropout: True where the client's update arrives."""
        if self.dropout_prob == 0.0:
            return np.ones(len(client_ids), dtype=bool)
        return self._rng.random(len(client_ids)) >= self.dropout_prob


def always_available(num_clients: int) -> AvailabilityTrace:
    """A trace with every client always online and no dropout (for tests)."""
    trace = AvailabilityTrace(
        num_clients,
        np.random.default_rng(0),
        mean_on_fraction=1.0,
        dropout_prob=0.0,
    )
    trace._on_fraction = np.ones(num_clients)
    return trace
