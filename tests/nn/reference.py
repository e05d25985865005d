"""The whole-batch forward an eval-mode ``Sequential`` must stay bit-equal to.

``repro.nn.module.Sequential.forward`` streams :data:`EVAL_BLOCK`-sample
blocks through runs of row-wise layers in eval mode; there is no second
path in ``src/``.  The plain chain it replaced — every layer sees the
whole batch — lives here, test-side (the ``tests/sharding/reference.py``
precedent), and :func:`whole_batch` installs it for the duration of a
block so a model's oracle output comes from the same parameters.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn.module import Sequential


def plain_forward(self: Sequential, x: np.ndarray) -> np.ndarray:
    """Every layer on the whole batch, in order."""
    for layer in self.layers:
        x = layer(x)
    return x


@contextmanager
def whole_batch():
    """Inside the block, every ``Sequential`` runs :func:`plain_forward`."""
    streamed = Sequential.forward
    Sequential.forward = plain_forward
    try:
        yield
    finally:
        Sequential.forward = streamed


def whole_batch_forward(model, x: np.ndarray) -> np.ndarray:
    """``model(x)`` with no streaming anywhere in the tree."""
    with whole_batch():
        return model(x)
