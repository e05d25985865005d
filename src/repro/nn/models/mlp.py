"""Multi-layer perceptron (fast model for unit tests and quick experiments)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.module import Module, Sequential

__all__ = ["MLP"]


class MLP(Module):
    """Flatten → [Linear → ReLU]* → Linear.

    Parameters
    ----------
    in_features:
        Flattened input width (images are flattened internally).
    hidden:
        Hidden layer widths.
    num_classes:
        Output logits count.
    dtype:
        Parameter/buffer precision (the run-level dtype policy).
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (64, 64),
        num_classes: int = 10,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float64,
    ):
        super().__init__()
        self.in_features = in_features
        self.num_classes = num_classes
        layers = [Flatten()]
        prev = in_features
        for width in hidden:
            layers.append(Linear(prev, width, rng=rng, dtype=dtype))
            layers.append(ReLU())
            prev = width
        layers.append(Linear(prev, num_classes, rng=rng, dtype=dtype))
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_out)
