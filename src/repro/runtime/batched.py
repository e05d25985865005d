"""Batched replica training: many clients' local SGD through one model.

At quickstart scale the per-step tensors are small (batch 16 images of a
few thousand pixels), so the numpy layer stack is *overhead*-bound: most of
the wall-clock goes to per-op dispatch, allocator traffic, and BLAS calls
too small to tile well.  Running ``R`` clients' mini-batches through one
replica with a leading replica axis turns R tiny GEMMs into one R-times
larger batched GEMM and amortizes every fixed cost R-fold — the same local
SGD math, vectorized across clients.

Semantics
---------
Each replica trains its *own* parameter trajectory: parameters, gradients,
and momentum live in ``(R, d)`` matrices whose rows never mix.  Per-layer
weights are column-slice **views** of those matrices (``mat[:, a:b]``
reshaped to ``(R, *shape)`` — a pure view because the flat layout is
contiguous per row), so the optimizer is three vectorized ufunc passes over
``(R, d)`` and the layers index no python-side per-replica state.  Client
mini-batches come from the same named RNG streams the serial trainer uses
(``client/{cid}/round/{t}``), so every replica sees exactly the data it
would have seen serially.  Clients whose per-step batches come out smaller
than the group's largest are padded with all-zero rows plus a ``(R, B)``
validity mask; every reduction (batch-norm statistics, the loss, the loss
gradient) is mask-corrected, so padded rows contribute *exact* zeros and
the trajectory matches the unpadded one to accumulation order.

Two reductions are reformulated relative to the serial layers, which is
why ``RunConfig.batch_replicas`` is opt-in and golden-pinned runs keep it
off: batch-norm statistics are one-pass (``Var = E[x²] − E[x]²`` via a
single einsum, clamped at zero) and its input gradient is assembled from
channel sums as ``dx = A·g + B·x + C`` instead of re-centering per element.
Both are algebraically identical to the serial two-pass forms; in floating
point they differ at accumulation-order level (~1e-7 relative in float32).
Agreement with the serial trainer is pinned to tight tolerances by
``tests/runtime/test_batched.py``.

Supported models are pure layer chains (:class:`~repro.nn.module.Sequential`
pipelines, possibly wrapped, e.g. ``SimpleCNN``/``MLP``) built from
``Conv2d``/``BatchNorm1d``/``BatchNorm2d``/``Linear`` plus parameterless
per-sample layers (``ReLU``, pooling, ``Flatten``), which run through a
reshape adapter.  Anything else raises :class:`UnsupportedModelError` and
the thread backend falls back to per-client training.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.functional import conv_out_size
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential

__all__ = [
    "UnsupportedModelError",
    "RaggedBatchError",
    "BatchedReplicaTrainer",
]


class UnsupportedModelError(TypeError):
    """The model is not a pure chain of batched-trainable layers."""


class RaggedBatchError(ValueError):
    """Clients in one group drew mini-batches of different sizes."""


#: parameterless layers whose forward/backward are per-sample maps — they
#: run unchanged on ``(R·B, ...)`` through the reshape adapter
_PER_SAMPLE = (ReLU, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten)


def _chain_leaves(model: Module) -> List[Module]:
    """Flatten a chain-shaped module tree into its ordered leaf layers.

    Mirrors ``named_parameters`` traversal order (own params, then children
    in insertion order), which is what keeps the column layout of the
    ``(R, d)`` matrices identical to :class:`~repro.nn.flat.FlatParamView`.
    """
    if isinstance(model, Sequential):
        leaves: List[Module] = []
        for layer in model.layers:
            leaves.extend(_chain_leaves(layer))
        return leaves
    if model._params or not model._children:
        if model._children:
            raise UnsupportedModelError(
                f"{type(model).__name__} mixes own parameters with children"
            )
        return [model]
    children = list(model._children.values())
    if len(children) != 1:
        raise UnsupportedModelError(
            f"{type(model).__name__} branches into {len(children)} children; "
            "batched replicas support pure layer chains only"
        )
    return _chain_leaves(children[0])


def _view(mat: np.ndarray, start: int, shape: Tuple[int, ...]) -> np.ndarray:
    """``(R, *shape)`` view of columns ``[start, start+prod(shape))``."""
    size = int(np.prod(shape)) if shape else 1
    return mat[:, start : start + size].reshape((mat.shape[0],) + tuple(shape))


# -- batched layer ops ---------------------------------------------------------


class _BatchedConv:
    """Grouped conv with the replica *and* sample axes folded into the GEMM.

    The im2col matrix is laid out ``(R, G, M, B·L)`` — every replica's whole
    mini-batch becomes columns of one GEMM — so each forward/backward runs
    ``R·G`` large BLAS calls instead of the ``R·B·G`` tiny ones the serial
    layer issues, and the weight gradient contracts over ``B·L`` directly
    (no ``(R, B, OC/G, M)`` intermediate to materialize and reduce).
    """

    def __init__(self, layer: Conv2d, w_off: int, b_off: Optional[int]):
        self.k = layer.kernel_size
        self.s = layer.stride
        self.p = layer.padding
        self.g = layer.groups
        self.oc = layer.out_channels
        self.w_shape = layer.weight.data.shape  # (OC, C/G, k, k)
        self.w_off = w_off
        self.b_off = b_off
        #: set on the model's first op: its input gradient is discarded by
        #: the training loop, so backward skips the dcols GEMM + scatter
        self.skip_dx = False
        self._cols: Optional[np.ndarray] = None
        self._dims: Optional[Tuple[int, ...]] = None

    def _weight(self, params: np.ndarray) -> np.ndarray:
        """``(R, G, OC/G, C/G·k·k)`` — the batched GEMM operand."""
        oc, cg, kh, kw = self.w_shape
        return _view(params, self.w_off, self.w_shape).reshape(
            params.shape[0], self.g, oc // self.g, cg * kh * kw
        )

    def forward(self, params: np.ndarray, bufs: np.ndarray, x: np.ndarray,
                mask=None):
        r, b, c, h, w = x.shape
        k, s, p, g = self.k, self.s, self.p, self.g
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        cg = c // g
        m = cg * k * k
        if p > 0:
            xp = np.zeros((r, b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
            xp[:, :, :, p : p + h, p : p + w] = x
        else:
            xp = np.ascontiguousarray(x)
        sr, sb, sc, sh, sw = xp.strides
        win = np.lib.stride_tricks.as_strided(
            xp,
            shape=(r, b, g, cg, k, k, oh, ow),
            strides=(sr, sb, sc * cg, sc, sh, sw, sh * s, sw * s),
            writeable=False,
        )
        cols = np.empty((r, g, cg, k, k, b, oh, ow), dtype=x.dtype)
        np.copyto(cols, win.transpose(0, 2, 3, 4, 5, 1, 6, 7))
        cols = cols.reshape(r, g, m, b * oh * ow)
        self._cols = cols
        self._dims = (r, b, c, h, w, oh, ow)
        # (R, G, OC/G, M) @ (R, G, M, B·L) -> (R, G, OC/G, B·L)
        outf = np.empty((r, g, self.oc // g, b * oh * ow), dtype=x.dtype)
        np.matmul(self._weight(params), cols, out=outf)
        out = np.empty((r, b, self.oc, oh, ow), dtype=x.dtype)
        np.copyto(
            out.reshape(r, b, g, self.oc // g, oh, ow),
            outf.reshape(r, g, self.oc // g, b, oh, ow).transpose(
                0, 3, 1, 2, 4, 5
            ),
        )
        if self.b_off is not None:
            out += _view(params, self.b_off, (self.oc,))[:, None, :, None, None]
        return out

    def backward(self, params: np.ndarray, grads: np.ndarray, grad_out):
        r, b, c, h, w, oh, ow = self._dims
        k, s, p, g = self.k, self.s, self.p, self.g
        ocg = self.oc // g
        cg = c // g
        m = cg * k * k
        bl = b * oh * ow
        cols = self._cols
        ggrad = np.empty((r, g, ocg, b, oh, ow), dtype=grad_out.dtype)
        np.copyto(
            ggrad,
            grad_out.reshape(r, b, g, ocg, oh, ow).transpose(0, 2, 3, 1, 4, 5),
        )
        ggrad = ggrad.reshape(r, g, ocg, bl)
        # dW contracts over B·L in one GEMM per (replica, group)
        dw = np.empty((r, g, ocg, m), dtype=grad_out.dtype)
        np.matmul(ggrad, cols.swapaxes(-1, -2), out=dw)
        gw = _view(grads, self.w_off, self.w_shape)
        gw += dw.reshape((r,) + self.w_shape)
        if self.b_off is not None:
            gb = _view(grads, self.b_off, (self.oc,))
            gb += grad_out.sum(axis=(1, 3, 4))
        self._cols = None
        if self.skip_dx:
            return None
        dcols = np.empty((r, g, m, bl), dtype=grad_out.dtype)
        np.matmul(self._weight(params).swapaxes(-1, -2), ggrad, out=dcols)
        # inline batched col2im: scatter-add each kernel tap into the padded
        # input plane (same tap loop as functional.col2im, with the extra
        # replica axis)
        hp, wp = h + 2 * p, w + 2 * p
        dxp = np.zeros((r, b, c, hp, wp), dtype=grad_out.dtype)
        dxp6 = dxp.reshape(r, b, g, cg, hp, wp)
        dv = dcols.reshape(r, g, cg, k, k, b, oh, ow)
        for i in range(k):
            for j in range(k):
                dxp6[
                    :, :, :, :, i : i + s * oh : s, j : j + s * ow : s
                ] += dv[:, :, :, i, j].transpose(0, 3, 1, 2, 4, 5)
        if p > 0:
            dx = np.empty((r, b, c, h, w), dtype=grad_out.dtype)
            np.copyto(dx, dxp[:, :, :, p : p + h, p : p + w])
            return dx
        return dxp


class _BatchedBN:
    """Batch norm over ``(R, B, C)`` or ``(R, B, C, H, W)`` activations."""

    def __init__(self, layer, w_off, b_off, rm_off, rv_off, nbt_off, spatial):
        self.eps = layer.eps
        self.momentum = layer.momentum
        self.c = layer.num_features
        self.w_off, self.b_off = w_off, b_off
        self.rm_off, self.rv_off, self.nbt_off = rm_off, rv_off, nbt_off
        #: reduce over batch (+ spatial) axes, keeping (R, C)
        self.axes = (1, 3, 4) if spatial else (1,)
        self.spatial = spatial
        self._cache = None

    def _expand(self, v: np.ndarray) -> np.ndarray:
        return v[:, None, :, None, None] if self.spatial else v[:, None, :]

    def _sample_mask(self, mask: np.ndarray) -> np.ndarray:
        """``(R, B)`` validity mask broadcast over channel (+ spatial) axes."""
        return (
            mask[:, :, None, None, None] if self.spatial else mask[:, :, None]
        )

    @property
    def _sub(self) -> str:
        return "rbchw" if self.spatial else "rbc"

    def forward(self, params: np.ndarray, bufs: np.ndarray, x: np.ndarray,
                mask=None):
        # One-pass moments: Var = E[x²] − E[x]², with the raw sums gathered
        # by einsum so no centered copy of the activations is materialized.
        # The cancellation in the variance costs a few float ulps versus the
        # serial two-pass formula — within the batched path's documented
        # tolerance — and is clamped at zero for near-constant channels.
        sub = self._sub
        if mask is None:
            count = float(np.prod([x.shape[a] for a in self.axes]))
            sum_x = x.sum(axis=self.axes)  # (R, C)
            sum_x2 = np.einsum(f"{sub},{sub}->rc", x, x)
            corr = count / max(count - 1.0, 1.0)
        else:
            # padded rows hold garbage activations — weight them out of the
            # statistics so each replica normalizes over its real samples
            mask = mask.astype(x.dtype, copy=False)
            spatial_n = x[0, 0, 0].size if self.spatial else 1
            count = (mask.sum(axis=1) * spatial_n)[:, None]  # (R, 1)
            sum_x = np.einsum(f"{sub},rb->rc", x, mask)
            sum_x2 = np.einsum(f"{sub},{sub},rb->rc", x, x, mask)
            corr = count / np.maximum(count - 1.0, 1.0)
        mean = sum_x / count
        var = sum_x2 / count - np.square(mean)
        np.maximum(var, 0.0, out=var)
        m = self.momentum
        rm = _view(bufs, self.rm_off, (self.c,))
        rv = _view(bufs, self.rv_off, (self.c,))
        rm *= 1 - m
        rm += m * mean
        rv *= 1 - m
        rv += m * (var * corr)
        _view(bufs, self.nbt_off, (1,))[...] += 1
        inv_std = 1.0 / np.sqrt(var + self.eps)
        # fused affine: out = x·a + shift with a = w·inv_std folded per
        # channel, instead of normalize-then-scale (two fewer passes)
        weight = _view(params, self.w_off, (self.c,))
        a = weight * inv_std
        shift = _view(params, self.b_off, (self.c,)) - mean * a
        out = np.empty(x.shape, dtype=x.dtype)
        np.multiply(x, self._expand(a), out=out)
        out += self._expand(shift)
        self._cache = (x, mean, inv_std, count, mask)
        return out

    def backward(self, params: np.ndarray, grads: np.ndarray, grad_out):
        x, mean, inv_std, count, mask = self._cache
        sub = self._sub
        # x̂-sums recovered from raw sums: Σg·x̂ = inv·(Σg·x − mean·Σg);
        # x̂ itself is never materialized
        sum_g = grad_out.sum(axis=self.axes)  # (R, C); padded rows are 0
        sum_gx = np.einsum(f"{sub},{sub}->rc", grad_out, x)
        sum_gxhat = inv_std * (sum_gx - mean * sum_g)
        gw = _view(grads, self.w_off, (self.c,))
        gw += sum_gxhat
        gb = _view(grads, self.b_off, (self.c,))
        gb += sum_g
        # dx = inv·w·(g − Σg/n − x̂·Σgx̂/n) rearranged into per-channel
        # affine coefficients of (grad, x): dx = A·grad + B·x + C
        weight = _view(params, self.w_off, (self.c,))
        coef_a = inv_std * weight
        coef_b = -(np.square(inv_std) * weight) * sum_gxhat / count
        coef_c = -coef_a * sum_g / count - mean * coef_b
        dx = np.empty(grad_out.shape, dtype=grad_out.dtype)
        np.multiply(grad_out, self._expand(coef_a), out=dx)
        tmp = np.empty(grad_out.shape, dtype=grad_out.dtype)
        np.multiply(x, self._expand(coef_b), out=tmp)
        dx += tmp
        dx += self._expand(coef_c)
        if mask is not None:
            # B·x + C leaks into padded rows; re-mask so zero gradient rows
            # stay zero on the way down
            dx *= self._sample_mask(mask)
        self._cache = None
        return dx


class _BatchedLinear:
    def __init__(self, layer: Linear, w_off: int, b_off: Optional[int]):
        self.w_shape = layer.weight.data.shape  # (OF, F)
        self.w_off = w_off
        self.b_off = b_off
        self._x: Optional[np.ndarray] = None

    def forward(self, params: np.ndarray, bufs: np.ndarray, x: np.ndarray,
                mask=None):
        self._x = x
        w = _view(params, self.w_off, self.w_shape)  # (R, OF, F)
        out = np.matmul(x, w.swapaxes(-1, -2))  # (R, B, OF)
        if self.b_off is not None:
            out += _view(params, self.b_off, (self.w_shape[0],))[:, None, :]
        return out

    def backward(self, params: np.ndarray, grads: np.ndarray, grad_out):
        gw = _view(grads, self.w_off, self.w_shape)
        gw += np.matmul(grad_out.swapaxes(-1, -2), self._x)
        if self.b_off is not None:
            gb = _view(grads, self.b_off, (self.w_shape[0],))
            gb += grad_out.sum(axis=1)
        dx = np.matmul(grad_out, _view(params, self.w_off, self.w_shape))
        self._x = None
        return dx


class _PerSample:
    """Reshape adapter: run a parameterless layer on ``(R·B, ...)``."""

    def __init__(self, layer: Module):
        self.layer = layer

    def forward(self, params: np.ndarray, bufs: np.ndarray, x: np.ndarray,
                mask=None):
        r, b = x.shape[:2]
        self._rb = (r, b)
        y = self.layer.forward(x.reshape((r * b,) + x.shape[2:]))
        return y.reshape((r, b) + y.shape[1:])

    def backward(self, params: np.ndarray, grads: np.ndarray, grad_out):
        r, b = self._rb
        dx = self.layer.backward(
            grad_out.reshape((r * b,) + grad_out.shape[2:])
        )
        return dx.reshape((r, b) + dx.shape[1:])


def _cross_entropy(logits: np.ndarray, targets: np.ndarray, mask=None):
    """Per-replica softmax CE: ``(R,)`` losses + ``(R, B, C)`` gradient.

    With ``mask`` (``(R, B)``, 1.0 for real rows), padded rows contribute
    zero loss and zero gradient, and each replica averages over its own
    valid-row count — matching the serial per-client mean exactly.
    """
    r, b, c = logits.shape
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=2, keepdims=True)
    logp = shifted - np.log(denom)
    y = np.zeros_like(logits)
    np.put_along_axis(y, targets[:, :, None], 1.0, axis=2)
    if mask is None:
        losses = -(y * logp).sum(axis=(1, 2)) / b
        grad = (exp / denom - y) / b
        return losses, grad
    mask = mask.astype(logits.dtype, copy=False)
    y *= mask[:, :, None]
    counts = mask.sum(axis=1)  # (R,)
    losses = -(y * logp).sum(axis=(1, 2)) / counts
    grad = ((exp / denom) * mask[:, :, None] - y) / counts[:, None, None]
    return losses, grad


# -- the trainer --------------------------------------------------------------


class BatchedReplicaTrainer:
    """Runs groups of up to ``R`` clients' local rounds, vectorized.

    Compiled once from a template model (never trained — it only fixes the
    layer chain and the flat column layout); each :meth:`run_group` call
    trains its own ``(R, d)`` state from the given global snapshot.
    """

    def __init__(self, template: Module, d: int, num_buffer: int):
        self.d = d
        self.num_buffer = num_buffer
        self.ops: List[object] = []
        p_off = 0
        b_off = 0
        for layer in _chain_leaves(template):
            if isinstance(layer, Conv2d):
                w_off = p_off
                p_off += layer.weight.data.size
                bias_off = None
                if layer.bias is not None:
                    bias_off = p_off
                    p_off += layer.bias.data.size
                self.ops.append(_BatchedConv(layer, w_off, bias_off))
            elif isinstance(layer, (BatchNorm1d, BatchNorm2d)):
                w_off, bias_off = p_off, p_off + layer.weight.data.size
                p_off = bias_off + layer.bias.data.size
                rm, rv, nbt = (
                    b_off,
                    b_off + layer.num_features,
                    b_off + 2 * layer.num_features,
                )
                b_off = nbt + 1
                self.ops.append(
                    _BatchedBN(
                        layer, w_off, bias_off, rm, rv, nbt,
                        spatial=isinstance(layer, BatchNorm2d),
                    )
                )
            elif isinstance(layer, Linear):
                w_off = p_off
                p_off += layer.weight.data.size
                bias_off = None
                if layer.bias is not None:
                    bias_off = p_off
                    p_off += layer.bias.data.size
                self.ops.append(_BatchedLinear(layer, w_off, bias_off))
            elif isinstance(layer, _PER_SAMPLE):
                self.ops.append(_PerSample(layer))
            elif isinstance(layer, Dropout):
                raise UnsupportedModelError(
                    "Dropout draws per-replica RNG the batched path does "
                    "not model"
                )
            else:
                raise UnsupportedModelError(
                    f"layer {type(layer).__name__} has no batched "
                    "implementation"
                )
        if p_off != d or b_off != num_buffer:
            raise UnsupportedModelError(
                f"batched column layout covers {p_off}/{d} parameters and "
                f"{b_off}/{num_buffer} buffer entries — the model's flat "
                "layout does not match its layer chain"
            )
        # the first op's input gradient is discarded by the step loop
        if isinstance(self.ops[0], _BatchedConv):
            self.ops[0].skip_dx = True

    # -- data ------------------------------------------------------------------
    @staticmethod
    def _stack_batches(tasks, clients, rngs, batch_size: int, steps: int):
        """Per-step ``(x, y, mask)`` stacks drawn from each client's stream.

        Clients whose shards differ in size draw differently sized batches
        at the same step; shorter batches are padded to the step's maximum
        with zero rows and ``mask`` (``(R, B)``, 1.0 for real samples) marks
        the valid rows.  Padded rows contribute exact zeros to every
        masked reduction (batch-norm statistics, loss, gradients), so the
        trajectory matches the serial path.  When all batches already
        agree, ``mask`` is ``None`` and the fast unmasked path runs.
        Feature-shape mismatches — e.g. a custom dataset whose samples
        vary in shape — raise :class:`RaggedBatchError` and the caller
        retrains the group per-client.
        """
        per_client: List[List[Tuple[np.ndarray, np.ndarray]]] = []
        for task in tasks:
            rng = rngs(f"client/{task.client_id}/round/{task.round_idx}")
            per_client.append(
                list(
                    clients[task.client_id].batches(
                        batch_size, rng, num_batches=steps
                    )
                )
            )
        stacked = []
        try:
            for step in range(steps):
                sizes = [len(pc[step][1]) for pc in per_client]
                bmax = max(sizes)
                if min(sizes) == bmax:
                    xs = np.stack([pc[step][0] for pc in per_client])
                    ys = np.stack([pc[step][1] for pc in per_client])
                    stacked.append((xs, ys, None))
                    continue
                r = len(per_client)
                x0, y0 = per_client[0][step]
                xs = np.zeros((r, bmax) + x0.shape[1:], dtype=x0.dtype)
                ys = np.zeros((r, bmax), dtype=y0.dtype)
                mask = np.zeros((r, bmax), dtype=np.float64)
                for i, pc in enumerate(per_client):
                    xb, yb = pc[step]
                    nb = len(yb)
                    xs[i, :nb] = xb
                    ys[i, :nb] = yb
                    mask[i, :nb] = 1.0
                stacked.append((xs, ys, mask))
        except ValueError as exc:  # stack/assignment shape mismatch
            raise RaggedBatchError(
                f"clients in one batched group drew incompatible batch "
                f"shapes at step {step}: {exc}"
            ) from exc
        return stacked

    # -- training --------------------------------------------------------------
    def run_group(
        self,
        tasks: Sequence,
        global_params: np.ndarray,
        global_buffers: np.ndarray,
        clients,
        rngs,
        batch_size: int,
        default_steps: int,
        momentum: float,
        weight_decay: float,
    ):
        """Train ``len(tasks)`` clients at once; returns per-task
        ``(delta, buffer_delta, num_samples, mean_loss)`` tuples in task
        order.  All tasks must share the same realized local step count
        and learning rate (the backend groups them so)."""
        r = len(tasks)
        steps = (
            tasks[0].local_steps
            if tasks[0].local_steps is not None
            else default_steps
        )
        lr = tasks[0].lr
        dtype = global_params.dtype
        data = self._stack_batches(tasks, clients, rngs, batch_size, steps)

        params = np.repeat(global_params[None], r, axis=0)
        bufs = (
            np.repeat(global_buffers[None], r, axis=0)
            if self.num_buffer
            else np.zeros((r, 0), dtype=dtype)
        )
        grads = np.zeros_like(params)
        mom = np.zeros_like(params) if momentum else None
        loss_sums = np.zeros(r, dtype=np.float64)

        for xb, yb, mask in data:
            h = xb.astype(dtype, copy=False)
            for op in self.ops:
                h = op.forward(params, bufs, h, mask)
            losses, grad = _cross_entropy(h, yb, mask)
            loss_sums += losses
            for op in reversed(self.ops):
                grad = op.backward(params, grads, grad)
            # vectorized SGD over the whole (R, d) state (torch semantics)
            g = grads
            if weight_decay:
                g = g + weight_decay * params
            if mom is not None:
                mom *= momentum
                mom += g
                g = mom
            params -= lr * g
            grads.fill(0)

        out = []
        for i, task in enumerate(tasks):
            delta = params[i] - global_params
            buffer_delta = (
                bufs[i] - global_buffers
                if self.num_buffer
                else np.zeros(0, dtype=dtype)
            )
            out.append(
                (
                    delta,
                    buffer_delta,
                    len(clients[task.client_id]),
                    float(loss_sums[i] / steps),
                )
            )
        return out
