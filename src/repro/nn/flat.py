"""Flat views of model state — the masking surface.

Every masking strategy in the paper (STC's top-q, APF's freezing mask,
GlueFL's shared mask) operates on *positions* of the model's trainable
parameter vector.  :class:`FlatParamView` fixes a deterministic ordering of
the trainable parameters (the module-tree traversal order) and exposes them
as one contiguous 1-D vector, plus a separate vector for non-trainable
buffers (batch-norm running statistics), which the paper's Appendix D
aggregates without masking or re-weighting.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["FlatParamView"]


class FlatParamView:
    """Bidirectional mapping between a model and flat numpy vectors.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.module.Module`.  The view holds references to
        the model's parameter/buffer arrays; it never copies the model.

    Notes
    -----
    ``get_flat`` returns a **copy** (callers mutate it freely); ``set_flat``
    writes back through to the live parameter arrays.
    """

    def __init__(self, model: Module):
        self.model = model
        self._params = list(model.named_parameters())
        self._buffers = list(model.named_buffers())
        #: precision of the flat vectors (the run-level dtype policy)
        self.dtype = np.dtype(
            self._params[0][1].data.dtype if self._params else np.float64
        )

        self._offsets: List[int] = []
        off = 0
        for _, p in self._params:
            self._offsets.append(off)
            off += p.size
        self.num_trainable = off

        self._buf_offsets: List[int] = []
        boff = 0
        for _, b in self._buffers:
            self._buf_offsets.append(boff)
            boff += b.size
        self.num_buffer = boff

    # -- trainable parameters ------------------------------------------------
    def get_flat(self) -> np.ndarray:
        """Copy of all trainable parameters as one vector of length ``d``."""
        if not self._params:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate([p.data.ravel() for _, p in self._params])

    def set_flat(self, vec: np.ndarray) -> None:
        """Write ``vec`` back into the model's parameter arrays."""
        self._check(vec, self.num_trainable)
        for (_, p), off in zip(self._params, self._offsets):
            np.copyto(p.data, vec[off : off + p.size].reshape(p.shape))

    # -- non-trainable buffers (BN running statistics) -------------------------
    def get_buffers_flat(self) -> np.ndarray:
        """Copy of all buffers (running stats) as one vector of length ``d_b``."""
        if not self._buffers:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate([b.data.ravel() for _, b in self._buffers])

    def set_buffers_flat(self, vec: np.ndarray) -> None:
        self._check(vec, self.num_buffer)
        for (_, b), off in zip(self._buffers, self._buf_offsets):
            np.copyto(b.data, vec[off : off + b.size].reshape(b.shape))

    @staticmethod
    def _check(vec: np.ndarray, expected: int) -> None:
        if vec.ndim != 1 or vec.shape[0] != expected:
            raise ValueError(
                f"expected flat vector of length {expected}, got shape {vec.shape}"
            )


def snapshot(model: Module) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience: ``(flat_params, flat_buffers)`` copies of a model."""
    view = FlatParamView(model)
    return view.get_flat(), view.get_buffers_flat()
