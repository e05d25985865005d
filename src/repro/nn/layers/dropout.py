"""Inverted dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout: identity in eval mode, scaled masking in train mode.

    Parameters
    ----------
    p:
        Drop probability in ``[0, 1)``.
    rng:
        Generator for the drop mask; falls back to a module-local default so
        behaviour is still deterministic per instance.
    """

    rowwise = True

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            return grad_out
        return grad_out * mask
