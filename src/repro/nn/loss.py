"""The training loss.

:class:`CrossEntropyLoss` exposes ``forward(logits, targets) -> float`` and
``backward() -> grad_wrt_inputs``; the returned gradient is already averaged
over the batch so it can be fed straight into ``model.backward``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import one_hot

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels."""

    def __init__(self):
        self._cache = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        n, c = logits.shape
        y = one_hot(targets, c, dtype=logits.dtype)
        # one shifted-exp pass yields both log-softmax (loss) and softmax
        # (gradient) instead of exponentiating twice
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=1, keepdims=True)
        logp = shifted - np.log(denom)
        loss = float(-(y * logp).sum() / n)
        self._cache = (exp / denom, y, n)
        return loss

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, y, n = self._cache
        return (probs - y) / n

