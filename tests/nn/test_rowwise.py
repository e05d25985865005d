"""Row-wise equivalence matrix: eval-mode streaming is bit-exact.

A layer that declares ``rowwise`` promises that its eval-mode forward
computes each sample on its own, so any split of the batch gives the same
bytes.  ``Sequential`` relies on that promise to stream
``EVAL_BLOCK``-sample blocks through runs of such layers.  Every class in
``repro`` that declares it must have cases in :data:`CASES` (a new one
fails :func:`test_every_rowwise_class_is_in_the_matrix` until it does),
and every case is checked against whole-batch, per-sample, ragged and
``EVAL_BLOCK`` splits at N ∈ :data:`SIZES`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    ChannelConcat,
    ChannelShuffle,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualAdd,
    Sequential,
    Sigmoid,
    Tanh,
    build_model,
)
from repro.nn.models import MODELS
from repro.nn.module import EVAL_BLOCK, Module

from tests.conftest import held_arrays
from tests.nn.reference import whole_batch_forward

SIZES = (1, 2, 31, 32, 33, 257)
DTYPES = (np.float16, np.float32, np.float64)
#: block lengths a batch is cut into: per sample, ragged, the stream's own
SPLITS = (1, 7, EVAL_BLOCK)


def _bn(cls, c, dtype):
    """Eval-mode batch norm with non-trivial running statistics."""
    bn = cls(c, dtype=dtype)
    gen = np.random.default_rng(c)
    bn.running_mean.data[:] = gen.normal(size=c)
    bn.running_var.data[:] = gen.uniform(0.5, 2.0, size=c)
    bn.weight.data[:] = gen.normal(size=c)
    bn.bias.data[:] = gen.normal(size=c)
    return bn


def _conv(cin, cout, k, stride=1, padding=0, groups=1, bias=True):
    return lambda dtype: Conv2d(
        cin, cout, k, stride=stride, padding=padding, groups=groups,
        bias=bias, rng=np.random.default_rng(k * 100 + cout), dtype=dtype,
    )


def _conv_cases():
    out = []
    for k in (1, 3):
        for stride in (1, 2):
            for padding in (0, 1):
                for groups in (1, 2, 4):
                    out.append((
                        f"k{k}s{stride}p{padding}g{groups}",
                        _conv(4, 8, k, stride, padding, groups, bias=groups != 2),
                        (4, 7, 7),
                    ))
    return out


def _residual_main(dtype):
    return Sequential(
        _conv(4, 4, 3, padding=1, bias=False)(dtype),
        _bn(BatchNorm2d, 4, dtype),
        ReLU(),
        _conv(4, 4, 3, padding=1, bias=False)(dtype),
    )


def _projection(dtype):
    return Sequential(
        _conv(4, 8, 1, stride=2, bias=False)(dtype), _bn(BatchNorm2d, 8, dtype)
    )


#: rowwise class -> [(case label, build(dtype) -> module, sample shape)]
CASES = {
    ReLU: [("", lambda dt: ReLU(), (3, 5, 5))],
    LeakyReLU: [("", lambda dt: LeakyReLU(0.1), (3, 5, 5))],
    Sigmoid: [("", lambda dt: Sigmoid(), (6,))],
    Tanh: [("", lambda dt: Tanh(), (3, 4, 4))],
    MaxPool2d: [
        ("fast", lambda dt: MaxPool2d(2), (3, 8, 8)),
        ("k3s2p1", lambda dt: MaxPool2d(3, stride=2, padding=1), (3, 7, 7)),
    ],
    AvgPool2d: [
        ("k2", lambda dt: AvgPool2d(2), (3, 8, 8)),
        ("k3s2p1", lambda dt: AvgPool2d(3, stride=2, padding=1), (3, 7, 7)),
    ],
    GlobalAvgPool2d: [("", lambda dt: GlobalAvgPool2d(), (5, 6, 6))],
    Flatten: [("", lambda dt: Flatten(), (3, 4, 4))],
    ChannelShuffle: [("", lambda dt: ChannelShuffle(2), (8, 3, 3))],
    Dropout: [("", lambda dt: Dropout(0.5), (3, 4, 4))],
    Identity: [("", lambda dt: Identity(), (3, 4, 4))],
    Conv2d: _conv_cases(),
    BatchNorm1d: [("", lambda dt: _bn(BatchNorm1d, 6, dt), (6,))],
    BatchNorm2d: [("", lambda dt: _bn(BatchNorm2d, 4, dt), (4, 5, 5))],
    ResidualAdd: [
        ("identity", lambda dt: ResidualAdd(_residual_main(dt)), (4, 6, 6)),
        (
            "projection",
            lambda dt: ResidualAdd(
                Sequential(
                    _conv(4, 8, 3, stride=2, padding=1)(dt),
                    _bn(BatchNorm2d, 8, dt),
                ),
                _projection(dt),
            ),
            (4, 6, 6),
        ),
    ],
    ChannelConcat: [
        (
            "shuffle-unit",
            lambda dt: ChannelConcat(
                AvgPool2d(3, stride=2, padding=1),
                Sequential(
                    _conv(4, 4, 1, groups=2, bias=False)(dt),
                    ReLU(),
                    ChannelShuffle(2),
                    _conv(4, 4, 3, stride=2, padding=1, groups=4)(dt),
                ),
            ),
            (4, 6, 6),
        ),
    ],
    Sequential: [
        (
            "conv-trunk",
            lambda dt: Sequential(
                _conv(4, 8, 3, padding=1, bias=False)(dt),
                _bn(BatchNorm2d, 8, dt),
                ReLU(),
                MaxPool2d(2),
                Sequential(ResidualAdd(_conv(8, 8, 1)(dt)), Tanh()),
                GlobalAvgPool2d(),
            ),
            (4, 8, 8),
        ),
    ],
}


def _declares_rowwise(cls) -> bool:
    """``rowwise`` set on the class (``True``) or computed (a property)."""
    return cls.rowwise is True or isinstance(cls.rowwise, property)


def _repro_modules(cls=Module):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro.") and not sub.__name__.startswith("_"):
            yield sub
        yield from _repro_modules(sub)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and got.tobytes() == want.tobytes()
    )


def _split_forward(module, x, block):
    return np.concatenate(
        [module(x[i : i + block]) for i in range(0, len(x), block)]
    )


def test_every_rowwise_class_is_in_the_matrix():
    declared = {cls for cls in _repro_modules() if _declares_rowwise(cls)}
    assert declared == set(CASES), declared ^ set(CASES)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize(
    "build, shape",
    [
        pytest.param(build, shape, id=f"{cls.__name__}-{label}".rstrip("-"))
        for cls, cases in CASES.items()
        for label, build, shape in cases
    ],
)
def test_eval_forward_is_split_invariant(build, shape, dtype):
    module = build(dtype).eval()
    assert module.rowwise is True
    gen = np.random.default_rng(7)
    x_all = gen.normal(size=(max(SIZES),) + shape).astype(dtype)
    for n in SIZES:
        x = x_all[:n]
        want = whole_batch_forward(module, x)
        assert _same_bytes(module(x), want), n
        for block in SPLITS:
            assert _same_bytes(_split_forward(module, x, block), want), (n, block)
    assert held_arrays(module) == []


# -- registry models ---------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_eval_logits_equal_the_whole_batch_oracle(name, dtype):
    """At the default ``eval_batch`` (256) every registry model's streamed
    logits are the plain chain's bytes, and the blocks die with the call."""
    model = build_model(
        name, in_channels=1, num_classes=10, image_size=16,
        rng=np.random.default_rng(0), dtype=dtype,
    ).eval()
    x = np.random.default_rng(1).normal(size=(256, 1, 16, 16)).astype(dtype)
    want = whole_batch_forward(model, x)
    assert _same_bytes(model(x), want)
    assert held_arrays(model) == []


def test_batch_norm_mlp_streams_and_stays_exact():
    model = build_model(
        "mlp", in_channels=1, num_classes=5, image_size=8,
        rng=np.random.default_rng(0), batch_norm=True,
    ).eval()
    x = np.random.default_rng(1).normal(size=(100, 1, 8, 8))
    assert _same_bytes(model(x), whole_batch_forward(model, x))


# -- the streaming rule ------------------------------------------------------------


class _Spy(Module):
    """Records the batch length of every forward; row-wise or not."""

    def __init__(self, rowwise: bool):
        super().__init__()
        self.rowwise = rowwise
        self.seen = []

    def forward(self, x):
        self.seen.append(len(x))
        return x * 2.0

    def backward(self, grad_out):
        return grad_out * 2.0


def test_eval_streams_runs_of_two_or_more_rowwise_layers():
    a, b, mixer, lone, c = (_Spy(True), _Spy(True), _Spy(False), _Spy(True), _Spy(False))
    net = Sequential(a, b, mixer, lone, c).eval()
    net(np.ones((2 * EVAL_BLOCK + 5, 3)))
    blocks = [EVAL_BLOCK, EVAL_BLOCK, 5]
    assert a.seen == b.seen == blocks
    # a row-mixing layer, and a row-wise run of one, see the whole batch
    assert mixer.seen == lone.seen == c.seen == [2 * EVAL_BLOCK + 5]


def test_small_batches_and_training_mode_do_not_stream():
    a, b = _Spy(True), _Spy(True)
    net = Sequential(a, b).eval()
    net(np.ones((EVAL_BLOCK, 3)))
    net.train()
    net(np.ones((3 * EVAL_BLOCK, 3)))
    assert a.seen == b.seen == [EVAL_BLOCK, 3 * EVAL_BLOCK]


# -- negative pins -----------------------------------------------------------------


def test_linear_is_not_rowwise():
    """OpenBLAS picks its GEMM kernel by row count: a split batch can move
    the logits by an ulp, so ``Linear`` must see the whole batch."""
    assert Linear.rowwise is False
    assert Linear(3, 2).rowwise is False


def test_a_new_module_defaults_to_not_rowwise():
    class Custom(Module):
        def forward(self, x):
            return x

    assert Custom.rowwise is False
    assert Custom().rowwise is False


def test_containers_are_rowwise_only_when_every_child_is():
    assert Sequential(ReLU(), Tanh()).rowwise is True
    assert Sequential().rowwise is True
    assert Sequential(ReLU(), Linear(3, 3)).rowwise is False
    assert ResidualAdd(Linear(3, 3)).rowwise is False
    assert ResidualAdd(ReLU(), Linear(3, 3)).rowwise is False
    assert ChannelConcat(ReLU(), Linear(3, 3)).rowwise is False
    assert ChannelConcat(ReLU(), Sequential(Identity(), Flatten())).rowwise is True
