"""Batch normalization with running statistics.

The running mean/variance and batch counter are :class:`~repro.nn.module.Buffer`
objects, not parameters — exactly the trainable/non-trainable split that
GlueFL's Appendix D aggregation rule depends on (trainable BN affine weights
go through masking; running statistics are averaged without re-weighting).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.nn.module import NO_CACHE, Buffer, Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d"]


class _BatchNormBase(Module):
    """Shared machinery for 1-D (NC) and 2-D (NCHW) batch norm."""

    #: axes to reduce over, set by subclasses
    _axes: Tuple[int, ...] = (0,)
    #: eval mode normalizes with the running statistics, element by element
    rowwise = True

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        dtype=np.float64,
    ):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=dtype))
        self.bias = Parameter(np.zeros(num_features, dtype=dtype))
        self.running_mean = Buffer(np.zeros(num_features, dtype=dtype))
        self.running_var = Buffer(np.ones(num_features, dtype=dtype))
        self.num_batches_tracked = Buffer(np.zeros(1, dtype=dtype))
        self._cache = None

    def _shape_check(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def _expand(self, v: np.ndarray, ndim: int) -> np.ndarray:
        """Broadcast a per-channel vector across the reduction axes."""
        shape = [1] * ndim
        shape[1] = self.num_features
        return v.reshape(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape_check(x)
        nd = x.ndim
        if self.training:
            # single-pass moments: reuse the centered activations for the
            # variance instead of letting x.var() re-center internally
            mean = x.mean(axis=self._axes)
            centered = np.empty(x.shape, dtype=x.dtype)
            np.subtract(x, self._expand(mean, nd), out=centered)
            var = np.mean(np.square(centered), axis=self._axes)
            m = self.momentum
            count = math.prod(x.shape[a] for a in self._axes)
            # unbiased variance for the running estimate (PyTorch semantics)
            unbiased = var * (count / max(count - 1, 1))
            self.running_mean.data *= 1 - m
            self.running_mean.data += m * mean
            self.running_var.data *= 1 - m
            self.running_var.data += m * unbiased
            self.num_batches_tracked.data += 1
        else:
            mean = self.running_mean.data
            var = self.running_var.data
            centered = np.empty(x.shape, dtype=x.dtype)
            np.subtract(x, self._expand(mean, nd), out=centered)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered  # owned: normalize in place instead of allocating
        x_hat *= self._expand(inv_std, nd)
        out = np.empty(x.shape, dtype=x.dtype)
        np.multiply(self._expand(self.weight.data, nd), x_hat, out=out)
        out += self._expand(self.bias.data, nd)
        self._cache = (x_hat, inv_std) if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(NO_CACHE)
        x_hat, inv_std = self._cache
        self._cache = None
        nd = grad_out.ndim
        count = math.prod(grad_out.shape[a] for a in self._axes)

        # products go through one reused plane instead of fresh
        # allocations; the values and reduction order are unchanged
        tmp = np.empty(grad_out.shape, dtype=grad_out.dtype)
        np.multiply(grad_out, x_hat, out=tmp)
        self.weight.grad += tmp.sum(axis=self._axes)
        self.bias.grad += grad_out.sum(axis=self._axes)

        g = np.empty(grad_out.shape, dtype=grad_out.dtype)
        np.multiply(grad_out, self._expand(self.weight.data, nd), out=g)
        sum_g = g.sum(axis=self._axes, keepdims=True)
        np.multiply(g, x_hat, out=tmp)
        sum_gx = tmp.sum(axis=self._axes, keepdims=True)
        # g is fresh — finish the input gradient in place
        g -= sum_g / count
        np.multiply(x_hat, sum_gx / count, out=tmp)
        g -= tmp
        g *= self._expand(inv_std, nd)
        return g


class BatchNorm1d(_BatchNormBase):
    """Batch norm over ``(N, C)`` inputs."""

    _axes = (0,)

    def _shape_check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects (N, {self.num_features}), got {x.shape}"
            )


class BatchNorm2d(_BatchNormBase):
    """Batch norm over ``(N, C, H, W)`` inputs, per channel."""

    _axes = (0, 2, 3)

    def _shape_check(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expects (N, {self.num_features}, H, W), got {x.shape}"
            )
