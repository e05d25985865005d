"""Stateless array operations shared by layers: im2col, softmax, one-hot.

Everything here is vectorized numpy; the only Python loops are over kernel
taps (``kh * kw`` iterations) in :func:`col2im`, per the scikit-learn
performance guidance of pushing work into array primitives.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "conv_out_size",
    "im2col",
    "pad_nchw",
    "col2im",
    "softmax",
    "one_hot",
]


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: in={size} k={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def pad_nchw(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor.

    Equivalent to ``np.pad(x, ((0,0),(0,0),(pad,pad),(pad,pad)))`` without
    ``np.pad``'s per-call overhead in the conv hot loop.
    """
    if pad <= 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Extract sliding windows as a strided **view** (zero-copy after pad).

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    ndarray
        View of shape ``(N, C, kh, kw, OH, OW)``.  Treat as read-only.
    """
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    if pad > 0:
        x = pad_nchw(x, pad)
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col` (used by conv backward).

    Parameters
    ----------
    cols:
        Array of shape ``(N, C, kh, kw, OH, OW)``.
    x_shape:
        The original (unpadded) input shape ``(N, C, H, W)``.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                cols[:, :, i, j, :, :]
            )
    if pad > 0:
        return x[:, :, pad : pad + h, pad : pad + w]
    return x


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Integer labels ``(N,)`` → one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0], dtype=np.intp), labels] = 1.0
    return out
