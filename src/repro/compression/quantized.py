"""Quantization composed with any masking strategy (paper footnote 1).

STC originally pairs sparsification with ternarization; the paper treats
quantization as an orthogonal knob that compresses both directions and
changes no conclusion.  :class:`QuantizedStrategy` wraps any
:class:`~repro.compression.base.CompressionStrategy` and stochastically
quantizes the *value* payloads clients upload, re-pricing the wire cost
accordingly.  Stochastic rounding keeps the quantizer unbiased, so the
wrapped strategy's aggregation statistics are preserved in expectation.

Convention: payload ``data`` arrays under the keys ``"dense"``, ``"vals"``
and ``"shr_vals"`` are value payloads (this holds for every strategy in
:mod:`repro.compression`); addressing arrays (``"idx"``) are untouched.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    VALUE_KEYS,
    AggregateResult,
    ClientPayload,
    CompressionStrategy,
)
from repro.compression.quantize import quantized_values_bytes, stochastic_quantize
from repro.network.encoding import BYTES_PER_VALUE

__all__ = ["QuantizedStrategy"]


class QuantizedStrategy(CompressionStrategy):
    """Wrap ``inner`` and quantize its uploaded values to ``bits`` each."""

    def __init__(self, inner: CompressionStrategy, bits: int = 8):
        super().__init__()
        if bits <= 0 or bits >= 32:
            raise ValueError(f"bits must be in [1, 32), got {bits}")
        self.inner = inner
        self.bits = bits
        self.name = f"{inner.name}+q{bits}"
        self._rng: np.random.Generator = np.random.default_rng(0)

    # -- delegation --------------------------------------------------------
    @property
    def data_dependent_selection(self) -> bool:
        # quantization transforms values, never the transmitted support
        return self.inner.data_dependent_selection

    def setup(self, d: int, rng: np.random.Generator, dtype=np.float64) -> None:
        super().setup(d, rng, dtype=dtype)
        self._rng = rng
        self.inner.setup(d, rng, dtype=dtype)

    def begin_round(self, round_idx: int) -> None:
        self.inner.begin_round(round_idx)

    def limit_residuals(self, max_clients) -> None:
        self.inner.limit_residuals(max_clients)

    def close(self) -> None:
        self.inner.close()

    def downstream_extra_bytes(self) -> int:
        return self.inner.downstream_extra_bytes()

    def nominal_upstream_bytes(self) -> int:
        # the inner estimate minus the float32->bits saving on its values;
        # exact per-payload counts are applied in client_compress
        return self.inner.nominal_upstream_bytes()

    def end_round(self, agg: AggregateResult, round_idx: int) -> None:
        self.inner.end_round(agg, round_idx)

    def abort_round(self, round_idx: int) -> None:
        # empty-round signal must reach stateful inner schedules (e.g.
        # GlueFL's pending mask regeneration)
        self.inner.abort_round(round_idx)

    def fold(self, weight: float, payload: ClientPayload) -> None:
        # the open sums are the inner strategy's: it aggregates them
        self.inner.fold(weight, payload)

    def aggregate(self) -> AggregateResult:
        return self.inner.aggregate()

    def feedback_norm(self, client_id: int, delta) -> float:
        # a wrapped privacy layer's noisy norm must survive the stack
        return self.inner.feedback_norm(client_id, delta)

    def feedback_loss(self, client_id: int, mean_loss: float):
        # a wrapped privacy layer's withheld loss must stay withheld
        return self.inner.feedback_loss(client_id, mean_loss)

    def privacy_epsilon_spent(self):
        return self.inner.privacy_epsilon_spent()

    # -- the actual quantization step ------------------------------------------
    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        payload = self.inner.client_compress(client_id, delta, weight)
        saved = 0
        for key in VALUE_KEYS:
            values = payload.data.get(key)
            if values is None or len(values) == 0:
                continue
            quantized, nbytes = stochastic_quantize(values, self.bits, self._rng)
            payload.data[key] = quantized
            saved += BYTES_PER_VALUE * len(values) - nbytes
        payload.upstream_bytes = max(0, payload.upstream_bytes - saved)
        return payload
