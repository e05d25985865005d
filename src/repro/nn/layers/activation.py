"""Elementwise activations."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import NO_CACHE, Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Module):
    """``max(x, 0)``.

    Forward is a plain ``np.maximum`` (correct for ±inf, unlike a mask
    multiply, which would turn ``-inf · 0`` into NaN); backward is a
    boolean-mask multiply — one fused ufunc pass, ~10× faster than the
    equivalent ``np.where`` select on current numpy.  The mask pass runs
    only in training mode: an eval-mode forward is the ``maximum`` alone.
    """

    rowwise = True

    def __init__(self):
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._mask = np.empty(x.shape, dtype=bool)
            np.greater(x, 0, out=self._mask)
        else:
            self._mask = None
        out = np.empty(x.shape, dtype=x.dtype)
        np.maximum(x, 0.0, out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError(NO_CACHE)
        g = np.empty(grad_out.shape, dtype=grad_out.dtype)
        np.multiply(grad_out, mask, out=g)
        return g


class LeakyReLU(Module):
    """``x if x > 0 else slope * x``."""

    rowwise = True

    def __init__(self, slope: float = 0.01):
        super().__init__()
        self.slope = slope
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0 if self.training else None
        # maximum/minimum split stays exact for ±inf inputs
        return np.maximum(x, 0.0) + self.slope * np.minimum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError(NO_CACHE)
        return grad_out * mask + self.slope * (grad_out * ~mask)


class Sigmoid(Module):
    """Logistic function."""

    rowwise = True

    def __init__(self):
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Stable piecewise evaluation avoiding overflow in exp.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out, self._out = self._out, None
        if out is None:
            raise RuntimeError(NO_CACHE)
        return grad_out * out * (1.0 - out)


class Tanh(Module):
    """Hyperbolic tangent."""

    rowwise = True

    def __init__(self):
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out, self._out = self._out, None
        if out is None:
            raise RuntimeError(NO_CACHE)
        return grad_out * (1.0 - out**2)
