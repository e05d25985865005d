"""Floating-point precision policy for a whole run.

The simulator's seed behavior is float64 everywhere (numpy's default).  The
paper's systems transmit float32 on the wire (see
:mod:`repro.network.encoding`), and single precision is plenty for FL
training, so a run may opt into executing *everything* — model parameters,
activations, gradients, deltas, residuals, aggregation — in float32.  On
memory-bandwidth-bound numpy kernels (im2col convolutions, batch norm,
pooling) this roughly halves the bytes moved per op and doubles SIMD width.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "DTYPE_NAMES",
    "resolve_dtype",
    "cast_model_dtype",
]

#: Accepted ``RunConfig.dtype`` spellings.
DTYPE_NAMES = ("float32", "float64")


def resolve_dtype(spec: Union[str, type, np.dtype]) -> np.dtype:
    """Normalize a dtype spec (``"float32"``, ``np.float32``, ...) to ``np.dtype``.

    Raises ``ValueError`` for anything outside :data:`DTYPE_NAMES` —
    integer dtypes would silently break the training math — including
    names numpy itself does not know.
    """
    try:
        dt = np.dtype(spec)
    except TypeError:
        pass
    else:
        if dt in map(np.dtype, DTYPE_NAMES):
            return dt
    raise ValueError(
        f"unsupported runtime dtype {spec!r}; expected one of {DTYPE_NAMES}"
    )


def cast_model_dtype(model, dtype: Union[str, type, np.dtype]):
    """Cast every parameter, gradient, and buffer of ``model`` in place.

    Safety net for models built without dtype threading (e.g. external
    registry entries): :func:`repro.nn.models.build_model` applies it to
    every model it builds, so the server's model and every worker replica
    match the run policy before a :class:`~repro.nn.flat.FlatParamView` is
    taken.  ``dtype`` is taken as given: the layers are dtype-generic, and
    which dtypes a *run* may use is :func:`resolve_dtype`'s call.
    Returns the model for chaining.
    """
    dt = np.dtype(dtype)
    for _, p in model.named_parameters():
        if p.data.dtype != dt:
            p.data = np.ascontiguousarray(p.data, dtype=dt)
            p.grad = np.zeros_like(p.data)
    for _, b in model.named_buffers():
        if b.data.dtype != dt:
            b.data = np.ascontiguousarray(b.data, dtype=dt)
    return model
