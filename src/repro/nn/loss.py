"""Loss functions.

Each loss exposes ``forward(logits/preds, targets) -> float`` and
``backward() -> grad_wrt_inputs``; the returned gradient is already averaged
over the batch so it can be fed straight into ``model.backward``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import one_hot

__all__ = ["CrossEntropyLoss", "MSELoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    Parameters
    ----------
    label_smoothing:
        Mixes the one-hot target with the uniform distribution; ``0`` gives
        plain cross-entropy.
    """

    def __init__(self, label_smoothing: float = 0.0):
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = label_smoothing
        self._cache = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        n, c = logits.shape
        y = one_hot(targets, c, dtype=logits.dtype)
        if self.label_smoothing > 0.0:
            eps = self.label_smoothing
            y = (1.0 - eps) * y + eps / c
        # one shifted-exp pass yields both log-softmax (loss) and softmax
        # (gradient) instead of exponentiating twice
        shifted = logits - np.max(logits, axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = np.sum(exp, axis=1, keepdims=True)
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


class MSELoss:
    """Mean squared error over arbitrary-shaped predictions."""

    def __init__(self):
        self._cache: Optional[tuple] = None

    def forward(self, preds: np.ndarray, targets: np.ndarray) -> float:
        if preds.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: preds {preds.shape} vs targets {targets.shape}"
            )
        diff = preds - targets
        self._cache = (diff, preds.size)
        return float((diff**2).mean())

    def __call__(self, preds: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(preds, targets)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        diff, size = self._cache
        return 2.0 * diff / size
