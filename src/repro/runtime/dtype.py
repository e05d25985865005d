"""Floating-point precision policy for a whole run.

The simulator's seed behavior is float64 everywhere (numpy's default).  The
paper's systems transmit float32 on the wire (see
:mod:`repro.network.encoding`), and single precision is plenty for FL
training, so a run may opt into executing *everything* — model parameters,
activations, gradients, deltas, residuals, aggregation — in float32.  On
memory-bandwidth-bound numpy kernels (im2col convolutions, batch norm,
pooling) this roughly halves the bytes moved per op and doubles SIMD width.

Half precision
--------------
``"float16"`` (IEEE binary16) extends the same policy to a 2-byte float.
Storage — parameters, activations, deltas — lives in the half dtype, but
any *accumulation over many small terms* is numerically fragile there
(float16 has a 10-bit significand), so the hot reductions run in
:func:`accumulation_dtype` (float32) and round once at the end:

* server aggregation (the strategies' round sums, BN-buffer averaging)
  accumulates in float32 and casts the final update back to the run
  dtype;
* the cross-entropy loss reduces log-probabilities in float32 (the loss
  value itself is a python float).

The tolerance story: per-step client math (conv GEMMs, batch norm) runs
natively in the half dtype, so a float16 run tracks its float32 twin to
roughly the half dtype's epsilon per step (≈1e-3 relative for float16) —
quickstart-scale e2e smoke runs land within a few percent in loss and
accuracy (pinned by ``tests/runtime/test_half_precision.py``).  Half
precision is a speed/memory knob, not a bit-identical mode; golden-pinned
runs stay float64/float32.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "DTYPE_NAMES",
    "HALF_DTYPE_NAMES",
    "resolve_dtype",
    "accumulation_dtype",
    "cast_model_dtype",
]

#: Accepted ``RunConfig.dtype`` spellings.
DTYPE_NAMES = ("float32", "float64", "float16")

#: The 2-byte members of :data:`DTYPE_NAMES` — runs in these dtypes pin
#: their accumulations to :func:`accumulation_dtype`.
HALF_DTYPE_NAMES = ("float16",)


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


def accumulation_dtype(dtype: Union[str, type, np.dtype]) -> np.dtype:
    """The dtype long reductions should accumulate in for a given run dtype.

    Two-byte floats lose whole updates to rounding when thousands of small
    terms are summed natively, so they accumulate in float32; float32 and
    float64 accumulate in themselves (keeping those paths bit-identical to
    the seed).

    >>> accumulation_dtype("float16").name
    'float32'
    >>> accumulation_dtype("float64").name
    'float64'
    """
    dt = resolve_dtype(dtype)
    if dt.itemsize <= 2:
        return np.dtype(np.float32)
    return dt


def cast_model_dtype(model, dtype: Union[str, type, np.dtype]):
    """Cast every parameter, gradient, and buffer of ``model`` in place.

    Safety net for models built without dtype threading (e.g. external
    registry entries): guarantees the whole parameter tree matches the run
    policy before a :class:`~repro.nn.flat.FlatParamView` is taken.
    Returns the model for chaining.
    """
    dt = resolve_dtype(dtype)
    for _, p in model.named_parameters():
        if p.data.dtype != dt:
            p.data = np.ascontiguousarray(p.data, dtype=dt)
            p.grad = np.zeros_like(p.data)
    for _, b in model.named_buffers():
        if b.data.dtype != dt:
            b.data = np.ascontiguousarray(b.data, dtype=dt)
    return model
