"""Heterogeneous client compute-speed model (FedScale stand-in).

Each client gets a persistent speed factor drawn from a log-normal — slow
phones coexist with fast ones — and the time for a round of local training
is ``E · seconds_per_step · speed_factor``.  The per-step base cost scales
with model size so that bigger models cost more compute, mirroring how the
paper's per-round computation time differs between ShuffleNet and
ResNet-34.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CALIBRATED_STEP_SECONDS", "ComputeTrace"]

#: The simulator's seconds per local step (``FLServer``'s compute model).
#: Calibrated to reproduce the paper's Fig. 9 regimes with our ~100×
#: smaller stand-in models: on NDT-like end-user links transmission
#: dominates the round (several × compute), while on 5G/datacenter links
#: the same compute dominates transmission.  (Wire times shrink with the
#: model ~100×, so compute must shrink with them.)
CALIBRATED_STEP_SECONDS = 0.008


class ComputeTrace:
    """Per-client local-training time model.

    Parameters
    ----------
    num_clients:
        Federation size.
    rng:
        Source of the per-client speed factors.
    base_step_seconds:
        Seconds per local SGD step on a median device for a reference-size
        model.
    sigma:
        Log-normal dispersion of the speed factors (0 → homogeneous).
    """

    def __init__(
        self,
        num_clients: int,
        rng: np.random.Generator,
        base_step_seconds: float = 0.25,
        sigma: float = 0.5,
    ):
        if base_step_seconds <= 0:
            raise ValueError("base_step_seconds must be positive")
        self.num_clients = num_clients
        self.base_step_seconds = base_step_seconds
        # exp(sigma · z), in the draw's own buffer
        speed = rng.standard_normal(num_clients)
        speed *= sigma
        self.speed_factor = np.exp(speed, out=speed)

    def round_seconds(
        self, client_id: int, local_steps: int, model_scale: float = 1.0
    ) -> float:
        """Local-training seconds for one client in one round."""
        return (
            local_steps
            * self.base_step_seconds
            * model_scale
            * float(self.speed_factor[client_id])
        )

    def round_seconds_many(
        self, client_ids: np.ndarray, local_steps: int, model_scale: float = 1.0
    ) -> np.ndarray:
        """Vectorized version of :meth:`round_seconds`."""
        return (
            local_steps
            * self.base_step_seconds
            * model_scale
            * self.speed_factor[np.asarray(client_ids)]
        )

    @staticmethod
    def model_scale(num_params: int, reference_params: int = 20_000) -> float:
        """Compute-cost multiplier for a model of ``num_params`` parameters."""
        if num_params <= 0:
            raise ValueError("num_params must be positive")
        return num_params / reference_params
