"""The client optimizer and its learning-rate schedule.

The paper trains clients with PyTorch SGD, momentum 0.9, and an exponential
learning-rate decay of 0.98 every 10 rounds (§5.1).  :class:`SGD` replicates
PyTorch's momentum formulation (momentum buffer accumulates the gradient;
the parameter moves by ``lr * buf``) so hyperparameters transfer directly.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD", "ExponentialDecay"]


class SGD:
    """Stochastic gradient descent with momentum.

    Matches ``torch.optim.SGD`` semantics (no Nesterov, no weight decay):

    .. code-block:: text

        buf = momentum * buf + grad
        param -= lr * buf
    """

    def __init__(
        self,
        params: List[Parameter],
        lr: float,
        momentum: float = 0.0,
    ):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._buffers: Dict[int, np.ndarray] = {}

    @property
    def lr(self) -> float:
        return self._lr

    @lr.setter
    def lr(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self._lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        # out= into a buffer of the gradient's dtype pins every product to
        # that dtype, whatever scalar type lr / momentum is
        lr = self._lr
        for p in self.params:
            g = p.grad
            if self.momentum:
                buf = self._buffers.get(id(p))
                if buf is None:
                    buf = g.copy()
                    self._buffers[id(p)] = buf
                else:
                    buf *= self.momentum
                    buf += g
                g = buf
            upd = np.empty(g.shape, dtype=g.dtype)
            np.multiply(g, lr, out=upd)
            p.data -= upd

    def reset_state(self) -> None:
        """Drop momentum buffers (fresh client state at round start)."""
        self._buffers.clear()


class ExponentialDecay:
    """``lr * decay ** (round // every)`` — the paper's 0.98-every-10 rule."""

    def __init__(self, lr: float, decay: float = 0.98, every: int = 10):
        if every <= 0:
            raise ValueError("decay interval must be positive")
        self.lr = lr
        self.decay = decay
        self.every = every

    def at_round(self, round_idx: int) -> float:
        return self.lr * self.decay ** (round_idx // self.every)

