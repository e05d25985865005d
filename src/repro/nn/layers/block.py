"""Composite blocks: identity, residual add, and channel concatenation.

These three primitives are enough to express ResNet basic blocks, MobileNet
inverted residuals, and ShuffleNet units as plain :class:`Sequential` graphs
without a general autograd engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import NO_CACHE, Module

__all__ = ["Identity", "ResidualAdd", "ChannelConcat"]


class Identity(Module):
    """Pass-through (useful as a shortcut branch)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class ResidualAdd(Module):
    """``y = main(x) + shortcut(x)`` with correct gradient fan-in.

    Parameters
    ----------
    main:
        The residual branch.
    shortcut:
        The skip branch; defaults to :class:`Identity` (requires matching
        shapes).  Use a 1×1 conv (+BN) shortcut for shape changes.
    """

    def __init__(self, main: Module, shortcut: Optional[Module] = None):
        super().__init__()
        self.main = main
        self.shortcut = shortcut if shortcut is not None else Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main_out = self.main(x)
        short_out = self.shortcut(x)
        if main_out.shape != short_out.shape:
            raise ValueError(
                f"residual shape mismatch: main {main_out.shape} vs "
                f"shortcut {short_out.shape}"
            )
        return main_out + short_out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.main.backward(grad_out) + self.shortcut.backward(grad_out)


class ChannelConcat(Module):
    """``y = concat(left(x), right(x))`` along the channel axis.

    Used by ShuffleNet stride-2 units, where the shortcut branch is an
    average-pooled copy of the input concatenated with the main branch.
    """

    def __init__(self, left: Module, right: Module):
        super().__init__()
        self.left = left
        self.right = right
        self._split: Optional[int] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        left_out = self.left(x)
        right_out = self.right(x)
        self._split = left_out.shape[1]
        return np.concatenate([left_out, right_out], axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._split is None:
            raise RuntimeError(NO_CACHE)
        g_left = grad_out[:, : self._split]
        g_right = grad_out[:, self._split :]
        return self.left.backward(g_left) + self.right.backward(g_right)
