"""2-D convolution with group support (covers standard, grouped, depthwise).

The forward/backward pair is implemented as im2col + batched GEMM: the
:func:`~repro.nn.functional.im2col` window view is materialized once per
forward into a ``(N, G, C/G·kh·kw, OH·OW)`` matrix and every contraction —
forward output, weight gradient, input-column gradient — is a
``np.matmul``, which dispatches to BLAS.  On single-precision runs this is
several times faster than the einsum formulation it replaces (BLAS tiles
for cache; ``c_einsum`` does not).  Grouped convolution (including
depthwise, ``groups == in_channels``) rides the same path through matmul's
batch broadcasting over the ``(N, G)`` axes — this is what ShuffleNetLite
and MobileNetLite build on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import col2im, conv_out_size, im2col, matmul_widened
from repro.nn.module import NO_CACHE, Module, Parameter, kaiming_init

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Grouped 2-D convolution over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel widths; both must be divisible by ``groups``.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Standard convolution hyperparameters (symmetric padding).
    groups:
        ``1`` for dense conv, ``in_channels`` for depthwise, anything in
        between for grouped conv (ShuffleNet-style).
    """

    #: matmul's batch axes run one GEMM per (sample, group), whatever N is
    rowwise = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float64,
    ):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) not divisible by "
                f"groups={groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        cg = in_channels // groups
        fan_in = cg * kernel_size * kernel_size
        self.weight = Parameter(
            kaiming_init(
                (out_channels, cg, kernel_size, kernel_size), fan_in, rng, dtype
            )
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype)) if bias else None
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def _grouped_weight(self) -> np.ndarray:
        """Weight viewed as ``(G, OC/G, C/G·kh·kw)`` — the GEMM operand."""
        g = self.groups
        oc, cg, kh, kw = self.weight.data.shape
        return self.weight.data.reshape(g, oc // g, cg * kh * kw)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        k, s, p, g = self.kernel_size, self.stride, self.padding, self.groups
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        # materialize the window view once; every contraction below is BLAS
        cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
        np.copyto(cols, im2col(x, k, k, s, p))
        cols = cols.reshape(n, g, (c // g) * k * k, oh * ow)
        # the GEMM matrix is k² × the input: keep it only for a backward
        # that can come; an eval-mode forward lets it die with the call
        self._cols = cols if self.training else None
        self._x_shape = (n, c, h, w)
        # (G, OC/G, CG·k·k) @ (N, G, CG·k·k, L) -> (N, G, OC/G, L)
        out = np.empty(
            (n, g, self.out_channels // g, oh * ow), dtype=x.dtype
        )
        matmul_widened(self._grouped_weight(), cols, out=out)
        out = out.reshape(n, self.out_channels, oh, ow)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError(NO_CACHE)
        n, c, h, w = self._x_shape
        k, s, p, g = self.kernel_size, self.stride, self.padding, self.groups
        oh, ow = grad_out.shape[2], grad_out.shape[3]
        cols, self._cols = self._cols, None  # (N, G, CG·k·k, L)
        if grad_out.flags.c_contiguous:
            ggrad = grad_out.reshape(n, g, self.out_channels // g, oh * ow)
        else:
            ggrad = np.empty(
                (n, g, self.out_channels // g, oh * ow), dtype=grad_out.dtype
            )
            np.copyto(ggrad.reshape(grad_out.shape), grad_out)

        # dW[g,o,m] = Σ_n ggrad[n,g,o,:] · cols[n,g,m,:], computed as
        # cols @ ggradᵀ: the same dot products in the same k-order, with
        # the transposed view on the small operand instead of the big one
        m = (c // g) * k * k
        dw_n = np.empty((n, g, m, self.out_channels // g), dtype=grad_out.dtype)
        matmul_widened(cols, ggrad.swapaxes(-1, -2), out=dw_n)
        # last read of the k² × input matrix: let dcols reuse its block
        del cols
        dw = dw_n.sum(axis=0).swapaxes(-1, -2)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.bias is not None:
            # float32 accumulation for 2-byte dtypes; native otherwise
            dt = grad_out.dtype
            acc_dt = np.dtype(np.float32) if dt.itemsize <= 2 else dt
            self.bias.grad += grad_out.sum(axis=(0, 2, 3), dtype=acc_dt)

        # dcols = Wᵀ @ ggrad, broadcast over the (N, G) batch axes
        dcols = np.empty((n, g, m, oh * ow), dtype=grad_out.dtype)
        matmul_widened(
            self._grouped_weight().swapaxes(-1, -2), ggrad, out=dcols
        )
        dcols = dcols.reshape(n, c, k, k, oh, ow)
        return col2im(dcols, self._x_shape, k, k, s, p)
