"""A batch norm over ``(N, C)`` rows, for the flat test models.

The library normalizes only ``(N, C, H, W)`` activations
(:class:`~repro.nn.BatchNorm2d`); these tests need a cheap
``Linear``-only model that still carries buffers (the Appendix D
buffer path), so they view each row as an ``(N, C, 1, 1)`` map.
"""

from __future__ import annotations

from repro.nn import BatchNorm2d


class FlatBatchNorm(BatchNorm2d):
    """:class:`~repro.nn.BatchNorm2d` over ``(N, C)`` rows seen as
    ``(N, C, 1, 1)``: the same parameters, buffers and statistics."""

    def forward(self, x):
        return super().forward(x[:, :, None, None])[:, :, 0, 0]

    def backward(self, grad_out):
        return super().backward(grad_out[:, :, None, None])[:, :, 0, 0]
