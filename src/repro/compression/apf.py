"""Adaptive Parameter Freezing (Chen et al., ICDCS 2021).

APF watches each coordinate of the global model and *freezes* the ones that
have converged: frozen coordinates are neither trained nor transmitted, in
either direction.  Stability is measured by the **effective perturbation**
— the ratio of the magnitude of the (EMA-smoothed) net movement to the
total (EMA-smoothed) absolute movement.  A coordinate oscillating around a
fixed point has near-zero effective perturbation and gets frozen; its
freezing period doubles each time it passes the check again (TCP-style
backoff) and resets when it turns unstable after thawing.

The paper (§5.1) sets the effective-perturbation threshold to 0.1; frozen
coordinates periodically thaw so they can resume training if the loss
landscape shifts — which is why the paper's §2.3 notes APF still suffers
the downstream staleness problem: the active set drifts between rounds.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import AggregateResult, ClientPayload, CompressionStrategy
from repro.network.encoding import bitmap_bytes, values_bytes

__all__ = ["APFStrategy"]


class APFStrategy(CompressionStrategy):
    """Adaptive parameter freezing with TCP-like backoff.

    Parameters
    ----------
    threshold:
        Effective-perturbation threshold below which a coordinate is
        considered stable (paper: 0.1).
    check_every:
        Stability-check cadence in rounds.
    base_period:
        Initial freezing period (rounds) for a newly-stable coordinate.
    max_period:
        Cap on the freezing period.
    ema:
        Smoothing factor of the movement statistics.
    warmup_rounds:
        Rounds before the first freeze decision (statistics need history).
    """

    name = "apf"

    def __init__(
        self,
        threshold: float = 0.1,
        check_every: int = 5,
        base_period: int = 5,
        max_period: int = 80,
        ema: float = 0.9,
        warmup_rounds: int = 10,
    ):
        super().__init__()
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if check_every <= 0 or base_period <= 0 or max_period < base_period:
            raise ValueError("invalid freezing schedule")
        self.threshold = threshold
        self.check_every = check_every
        self.base_period = base_period
        self.max_period = max_period
        self.ema = ema
        self.warmup_rounds = warmup_rounds
        self._frozen_until: np.ndarray = np.zeros(0, dtype=np.int64)
        self._freeze_len: np.ndarray = np.zeros(0, dtype=np.int64)
        self._ema_delta: np.ndarray = np.zeros(0, dtype=np.float64)
        self._ema_abs: np.ndarray = np.zeros(0, dtype=np.float64)
        self._round: int = 0

    def setup(self, d: int, rng: np.random.Generator, dtype=np.float64) -> None:
        super().setup(d, rng, dtype=dtype)
        self._frozen_until = np.zeros(d, dtype=np.int64)
        self._freeze_len = np.zeros(d, dtype=np.int64)
        self._ema_delta = np.zeros(d, dtype=self.dtype)
        self._ema_abs = np.zeros(d, dtype=self.dtype)

    # -- round state ------------------------------------------------------------
    def begin_round(self, round_idx: int) -> None:
        self._round = round_idx

    def active_mask(self) -> np.ndarray:
        """Boolean mask of currently-trainable (thawed) coordinates."""
        self._check_setup()
        return self._frozen_until <= self._round

    def downstream_extra_bytes(self) -> int:
        # the active-set bitmap accompanies each model sync
        return bitmap_bytes(self.d)

    def nominal_upstream_bytes(self) -> int:
        self._check_setup()
        return values_bytes(int(self.active_mask().sum()))

    # -- client side ---------------------------------------------------------------
    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        self._check_setup()
        self._check_delta(delta)
        active_idx = np.flatnonzero(self.active_mask())
        vals = delta[active_idx]
        # server knows the active set, so the payload is values-only
        return ClientPayload(
            upstream_bytes=values_bytes(len(active_idx)),
            data={"idx": active_idx, "vals": vals},
        )

    # -- server side -----------------------------------------------------------------
    def _new_sums(self):
        # the sum on the round's active set — fixed from begin_round to
        # end_round, so every values-only payload of the round aligns with it
        active_idx = np.flatnonzero(self.active_mask())
        return active_idx, np.zeros(len(active_idx), dtype=self.dtype)

    def fold(self, weight: float, payload: ClientPayload) -> None:
        _, acc = self._open_sums()
        acc += weight * payload.data["vals"]

    def aggregate(self) -> AggregateResult:
        self._check_setup()
        active_idx, acc = self._close_sums()
        global_delta = np.zeros(self.d, dtype=self.dtype)
        global_delta[active_idx] = acc
        return AggregateResult(global_delta=global_delta, changed_idx=active_idx)

    def end_round(self, agg: AggregateResult, round_idx: int) -> None:
        self._check_setup()
        active = self.active_mask()
        # movement statistics only accumulate where training happened
        self._ema_delta[active] = (
            self.ema * self._ema_delta[active]
            + (1 - self.ema) * agg.global_delta[active]
        )
        self._ema_abs[active] = self.ema * self._ema_abs[active] + (
            1 - self.ema
        ) * np.abs(agg.global_delta[active])

        if round_idx < self.warmup_rounds or round_idx % self.check_every:
            return
        perturbation = np.abs(self._ema_delta) / (self._ema_abs + 1e-12)
        stable = active & (perturbation < self.threshold) & (self._ema_abs > 0)
        unstable = active & ~stable

        # TCP-style backoff: double on re-freeze, reset on instability
        new_len = np.where(
            self._freeze_len[stable] == 0,
            self.base_period,
            np.minimum(self._freeze_len[stable] * 2, self.max_period),
        )
        self._freeze_len[stable] = new_len
        self._frozen_until[stable] = round_idx + new_len
        self._freeze_len[unstable] = 0
