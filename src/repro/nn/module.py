"""Module system for the numpy neural-network substrate.

This is a deliberately small, explicit layer-graph framework in the style of
classic Caffe/micro-torch implementations: every :class:`Module` implements a
``forward`` that caches whatever the matching ``backward`` needs, and
``backward`` receives the gradient of the loss w.r.t. the module output and
returns the gradient w.r.t. the module input, accumulating parameter
gradients along the way.

Activation lifetime: a forward caches arrays for backward only while
``self.training``, and each backward drops what it read.  So an eval-mode
forward is inference (it leaves no activation behind and a backward after
it raises :data:`NO_CACHE`), and a model holds no activation between one
step's backward and the next step's forward.

Streaming: a layer that declares :attr:`Module.rowwise` computes each
sample of an eval-mode forward on its own, bit-identically for any split
of the batch.  An eval-mode :meth:`Sequential.forward` pushes
:data:`EVAL_BLOCK` samples at a time through every run of two or more
consecutive row-wise layers into one preallocated output, so inference
holds one block's activations per run instead of the whole batch's; a
row-mixing layer (``Linear``) still sees the whole batch.

Design notes
------------
* Parameters are :class:`Parameter` objects (``data`` + ``grad``); buffers
  (e.g. batch-norm running statistics) are :class:`Buffer` objects and are
  excluded from gradient-based training — mirroring the paper's Appendix D
  distinction between trainable and non-trainable state.
* Modules register children/parameters/buffers automatically via
  ``__setattr__`` so ``named_parameters()`` can walk the tree in a stable,
  deterministic order (insertion order), which the flat-parameter masking
  surface (:mod:`repro.nn.flat`) relies on.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NO_CACHE", "EVAL_BLOCK", "Parameter", "Buffer", "Module", "Sequential"]

#: what every layer's ``backward`` raises (``RuntimeError``) when it finds no
#: cache to read: no forward yet, an eval-mode forward, or a second backward
NO_CACHE = "backward requires a preceding training-mode forward"

#: samples per block an eval-mode :class:`Sequential` pushes through a run of
#: row-wise layers; the last block of a batch may be shorter
EVAL_BLOCK = 32


class Parameter:
    """A trainable tensor: value (``data``) plus accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.ascontiguousarray(data)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape}, dtype={self.data.dtype})"


class Buffer:
    """Non-trainable persistent state (e.g. BN running mean/variance)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.ascontiguousarray(data)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Buffer(shape={self.data.shape}, dtype={self.data.dtype})"


class Module:
    """Base class for all layers and models."""

    #: in eval mode, ``forward`` computes each sample on its own: any split
    #: of the batch gives bit-identical output.  Declare it only when that
    #: holds (``Linear`` does not: its GEMM kernel depends on the row count)
    rowwise: bool = False

    def __init__(self):
        self._params: Dict[str, Parameter] = {}
        self._buffers: Dict[str, Buffer] = {}
        self._children: Dict[str, "Module"] = {}
        self.training: bool = True

    # -- attribute plumbing ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Buffer):
            self.__dict__.setdefault("_buffers", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[name] = value
        object.__setattr__(self, name, value)

    # -- tree traversal ----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{cname}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Buffer]]:
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix=f"{prefix}{cname}.")

    def buffers(self) -> List[Buffer]:
        return [b for _, b in self.named_buffers()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children.values():
            yield from child.modules()

    # -- state -------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # a plain bool: no need for ``__setattr__``'s parameter/child routing
    def train(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", True)
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", False)
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters and buffers, keyed by dotted path."""
        out: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        for name, b in self.named_buffers():
            out[f"buffer:{name}"] = b.data.copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        bufs = dict(self.named_buffers())
        for key, value in state.items():
            if key.startswith("buffer:"):
                target = bufs[key[len("buffer:"):]].data
            else:
                target = params[key].data
            if target.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {target.shape} vs {value.shape}"
                )
            np.copyto(target, value)

    # -- computation (overridden by subclasses) -----------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


#: ``rowwise`` of a container layer: it holds when all its children's do
children_rowwise = property(
    lambda self: all(child.rowwise for child in self._children.values())
)


def _stream(layers: Sequence[Module], x: np.ndarray) -> np.ndarray:
    """``x`` through ``layers`` :data:`EVAL_BLOCK` samples at a time, each
    block's result copied into one output allocated at the first block."""
    out = None
    for start in range(0, len(x), EVAL_BLOCK):
        y = x[start : start + EVAL_BLOCK]
        for layer in layers:
            y = layer(y)
        if out is None:
            out = np.empty((len(x),) + y.shape[1:], dtype=y.dtype)
        out[start : start + len(y)] = y
    return out


class Sequential(Module):
    """Chains modules; backward runs them in reverse.

    An eval-mode forward over more than :data:`EVAL_BLOCK` samples streams
    blocks through each run of two or more consecutive row-wise layers (see
    the module docstring); a training-mode forward is the plain chain.
    """

    rowwise = children_rowwise

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)

    def append(self, layer: Module) -> "Sequential":
        setattr(self, f"layer{len(self.layers)}", layer)
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training or len(x) <= EVAL_BLOCK:
            for layer in self.layers:
                x = layer(x)
            return x
        for rowwise, run in groupby(self.layers, key=lambda m: m.rowwise):
            run = list(run)
            if rowwise and len(run) >= 2:
                x = _stream(run, x)
            else:
                for layer in run:
                    x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


def _kaiming_std(fan_in: int) -> float:
    """He-init standard deviation for ReLU networks."""
    return float(np.sqrt(2.0 / max(fan_in, 1)))


def kaiming_init(
    shape: Tuple[int, ...], fan_in: int, rng: Optional[np.random.Generator],
    dtype=np.float64,
) -> np.ndarray:
    """He-normal initialization; deterministic given ``rng``."""
    gen = rng if rng is not None else np.random.default_rng(0)
    return gen.normal(0.0, _kaiming_std(fan_in), size=shape).astype(dtype)
