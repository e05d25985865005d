"""Fully-connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import NO_CACHE, Module, Parameter, kaiming_init

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to include an additive bias term.
    rng:
        Generator for deterministic He initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float64,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_init((out_features, in_features), in_features, rng, dtype)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype)) if bias else None
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects (N, {self.in_features}), got {x.shape}"
            )
        self._x = x if self.training else None
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, self._x = self._x, None
        if x is None:
            raise RuntimeError(NO_CACHE)
        self.weight.grad += grad_out.T @ x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data
