"""Shape-manipulating layers: flatten and ShuffleNet channel shuffle."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import NO_CACHE, Module

__all__ = ["Flatten", "ChannelShuffle"]


class Flatten(Module):
    """``(N, ...) → (N, prod(...))``."""

    rowwise = True

    def __init__(self):
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError(NO_CACHE)
        return grad_out.reshape(self._shape)


class ChannelShuffle(Module):
    """ShuffleNet channel shuffle: interleave channels across groups.

    ``(N, G*Cg, H, W)`` is reshaped to ``(N, G, Cg, H, W)``, the two channel
    axes are transposed, and the result is flattened back — so information
    flows between group-convolution groups.  The operation is its own
    inverse-permutation under swapped ``(G, Cg)``, which is what
    :meth:`backward` applies.
    """

    rowwise = True

    def __init__(self, groups: int):
        super().__init__()
        self.groups = groups

    def _shuffle(self, x: np.ndarray, g: int) -> np.ndarray:
        n, c, h, w = x.shape
        if c % g:
            raise ValueError(f"channels {c} not divisible by groups {g}")
        return (
            x.reshape(n, g, c // g, h, w)
            .transpose(0, 2, 1, 3, 4)
            .reshape(n, c, h, w)
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._channels = x.shape[1]
        return self._shuffle(x, self.groups)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # inverse shuffle: shuffle with the complementary group count
        return self._shuffle(grad_out, self._channels // self.groups)
