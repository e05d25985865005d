"""Spatial pooling layers built on im2col window views."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import col2im, conv_out_size, im2col
from repro.nn.module import NO_CACHE, Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class MaxPool2d(Module):
    """Max pooling over square windows.

    Non-overlapping pooling without padding over evenly-divisible inputs
    (the common ``MaxPool2d(2)`` case) takes a fast path: forward is a
    running ``np.maximum`` over the k² strided tap views (no argmax, no
    window materialization — ~5× faster), and backward recovers the
    winner by comparing each tap against the cached output, first match
    in ``(i·k + j)`` order claiming the gradient.  That reproduces the
    argmax rule bit-for-bit on finite inputs (ties, ±0 and -inf
    included); both paths break ties identically.
    """

    rowwise = True

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        n, c, h, w = x.shape
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        fast = s == k and p == 0 and h % k == 0 and w % k == 0
        if fast:
            # running max straight over the strided tap views: no argmax
            # bookkeeping and no window copy in the forward — backward
            # re-identifies the winning tap from the cached input/output
            v = x.reshape(n, c, oh, k, ow, k)
            out = np.empty((n, c, oh, ow), dtype=x.dtype)
            np.copyto(out, v[:, :, :, 0, :, 0])
            for t in range(1, k * k):
                np.maximum(out, v[:, :, :, t // k, :, t % k], out=out)
            self._cache = (
                (True, (x, out), (n, c, h, w), oh, ow) if self.training else None
            )
            return out
        if p > 0:
            # pad with -inf so padding never wins the max
            x_p = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
            cols = im2col(x_p, k, k, s, 0)
        else:
            cols = im2col(x, k, k, s, 0)
        flat = cols.reshape(n, c, k * k, oh, ow)
        argmax = flat.argmax(axis=2)  # (N, C, OH, OW)
        out = np.take_along_axis(flat, argmax[:, :, None, :, :], axis=2)[:, :, 0]
        self._cache = (
            (False, argmax, (n, c, h, w), oh, ow) if self.training else None
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(NO_CACHE)
        fast, cached, x_shape, oh, ow = cache
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        if fast:
            # route grad by tap == max, first match wins — the same winner
            # the old strict-> argmax picked for every finite input — and
            # write each tap's plane straight into its strided slot of the
            # output layout (windows are disjoint: no accumulation, losing
            # taps get exact zeros)
            x, out = cached
            v = x.reshape(n, c, oh, k, ow, k)
            dx = np.empty((n, c, oh, k, ow, k), dtype=grad_out.dtype)
            sel = np.empty((n, c, oh, ow), dtype=bool)
            done = np.zeros((n, c, oh, ow), dtype=bool)
            fresh = np.empty((n, c, oh, ow), dtype=bool)
            for t in range(k * k):
                i, j = divmod(t, k)
                np.equal(v[:, :, :, i, :, j], out, out=sel)
                np.logical_not(done, out=fresh)
                np.logical_and(sel, fresh, out=sel)
                np.multiply(grad_out, sel, out=dx[:, :, :, i, :, j])
                if t < k * k - 1:
                    np.logical_or(done, sel, out=done)
            return dx.reshape(n, c, h, w)
        dcols = np.empty((n, c, k * k, oh, ow), dtype=grad_out.dtype)
        sel = np.empty((n, c, oh, ow), dtype=bool)
        for j in range(k * k):
            np.equal(cached, j, out=sel)
            np.multiply(grad_out, sel, out=dcols[:, :, j])
        dcols = dcols.reshape(n, c, k, k, oh, ow)
        return col2im(dcols, x_shape, k, k, s, p)


class AvgPool2d(Module):
    """Average pooling over square windows (count includes padding)."""

    rowwise = True

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache: Optional[Tuple[Tuple[int, int, int, int], int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        n, c, h, w = x.shape
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        cols = im2col(x, k, k, s, p)
        out = cols.mean(axis=(2, 3))
        self._cache = ((n, c, h, w), oh, ow)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(NO_CACHE)
        x_shape, oh, ow = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        scale = 1.0 / (k * k)
        dcols = np.empty((x_shape[0], x_shape[1], k, k, oh, ow), dtype=grad_out.dtype)
        # broadcasting copy materializes grad/k² once per tap, same values as
        # the broadcast_to + ascontiguousarray it replaces
        np.copyto(dcols, (grad_out * scale)[:, :, None, None, :, :])
        return col2im(dcols, x_shape, k, k, s, p)


class GlobalAvgPool2d(Module):
    """Mean over all spatial positions: ``(N, C, H, W) → (N, C)``."""

    rowwise = True

    def __init__(self):
        super().__init__()
        self._shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError(NO_CACHE)
        n, c, h, w = self._shape
        g = grad_out[:, :, None, None] / (h * w)
        dx = np.empty((n, c, h, w), dtype=g.dtype)
        np.copyto(dx, g)
        return dx
