"""Client-side local training (Algorithm 2/3 lines 8–14).

One trainer owns one model instance (the serial backend reuses a single
shared instance for every client; the process backend gives each worker
its own replica + trainer): load the global state, run ``E`` local SGD steps on
the client's shard, and return the parameter delta
``Δ_i = w^{t,E}_i − w^t`` plus the batch-norm buffer delta (Appendix D,
Eq. 49).  Mini-batch features are cast once per batch to the model's
parameter dtype, so a float32 run never silently up-casts to float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.base import ClientDataset
from repro.nn.flat import FlatParamView
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD

__all__ = ["LocalResult", "LocalTrainer"]


@dataclass
class LocalResult:
    """Outcome of one client's local round."""

    delta: np.ndarray
    buffer_delta: np.ndarray
    num_samples: int
    mean_loss: float


class LocalTrainer:
    """Runs local SGD rounds against a shared model instance.

    Parameters
    ----------
    model:
        The shared model whose weights are overwritten per client.
    local_steps:
        E — local SGD iterations per round (paper: 10).
    batch_size:
        Mini-batch size per step.
    momentum, weight_decay:
        Client optimizer settings (paper: momentum 0.9).
    """

    def __init__(
        self,
        model: Module,
        local_steps: int,
        batch_size: int,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if local_steps <= 0:
            raise ValueError("local_steps must be positive")
        self.model = model
        self.view = FlatParamView(model)
        self.dtype = self.view.dtype
        self.local_steps = local_steps
        self.batch_size = batch_size
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.loss = CrossEntropyLoss()

    def run(
        self,
        global_params: np.ndarray,
        global_buffers: np.ndarray,
        dataset: ClientDataset,
        lr: float,
        rng: np.random.Generator,
        local_steps: Optional[int] = None,
    ) -> LocalResult:
        """Train ``E`` steps from the given global state; return deltas.

        ``local_steps`` overrides the configured E for this call — partial
        work from devices whose population completeness is below 1.
        """
        steps = self.local_steps if local_steps is None else local_steps
        if steps <= 0:
            raise ValueError("local_steps override must be positive")
        self.view.set_flat(global_params)
        if self.view.num_buffer:
            self.view.set_buffers_flat(global_buffers)
        self.model.train()
        # fresh momentum each participation: client state is not retained
        optimizer = SGD(
            self.model.parameters(),
            lr=lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        losses = []
        for xb, yb in dataset.batches(
            self.batch_size, rng, num_batches=steps
        ):
            optimizer.zero_grad()
            logits = self.model(xb.astype(self.dtype, copy=False))
            losses.append(self.loss(logits, yb))
            self.model.backward(self.loss.backward())
            optimizer.step()
        # get_flat() is already a fresh copy: subtract into it, one d-sized
        # vector per task instead of two
        delta = self.view.get_flat()
        np.subtract(delta, global_params, out=delta)
        if self.view.num_buffer:
            buffer_delta = self.view.get_buffers_flat()
            np.subtract(buffer_delta, global_buffers, out=buffer_delta)
        else:
            buffer_delta = np.zeros(0, dtype=self.dtype)
        return LocalResult(
            delta=delta,
            buffer_delta=buffer_delta,
            num_samples=len(dataset),
            mean_loss=float(np.mean(losses)),
        )
