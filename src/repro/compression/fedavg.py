"""FedAvg "compression": dense uploads, every coordinate changes.

The no-compression baseline (McMahan et al., 2017).  Upstream payloads are
the full dense delta; the aggregated update touches every coordinate, so a
re-sampled client always downloads the whole model — which is what makes
FedAvg's downstream volume the yardstick in Table 2.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import AggregateResult, ClientPayload, CompressionStrategy
from repro.network.encoding import dense_bytes

__all__ = ["FedAvgStrategy"]


class FedAvgStrategy(CompressionStrategy):
    """Identity compression: upload everything, update everything."""

    name = "fedavg"

    def nominal_upstream_bytes(self) -> int:
        self._check_setup()
        return dense_bytes(self.d)

    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        self._check_setup()
        self._check_delta(delta)
        return ClientPayload(
            upstream_bytes=dense_bytes(self.d),
            data={"dense": delta.copy()},
        )

    def _new_sums(self):
        return np.zeros(self.d, dtype=self.dtype)

    def fold(self, weight: float, payload: ClientPayload) -> None:
        acc = self._open_sums()
        acc += weight * payload.data["dense"]

    def aggregate(self) -> AggregateResult:
        self._check_setup()
        return AggregateResult(
            global_delta=self._close_sums(),
            changed_idx=np.arange(self.d, dtype=np.int64),
        )
