"""Gradient checks and behaviour tests for every layer."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    ChannelConcat,
    ChannelShuffle,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualAdd,
    Sequential,
)
from repro.nn.flat import FlatParamView

from tests.conftest import assert_activation_lifetime, numeric_gradient


def mse(preds, target):
    """Mean squared error and its gradient: the scalar the checks below
    differentiate."""
    diff = preds - target
    return float((diff**2).mean()), 2.0 * diff / diff.size


def gradcheck_params(model, x, rng, n_coords=30, tol=1e-5):
    """Check analytic parameter gradients against central differences."""
    view = FlatParamView(model)
    theta0 = view.get_flat()
    target = np.random.default_rng(0).normal(size=model(x).shape)

    def f(theta):
        view.set_flat(theta)
        return mse(model(x), target)[0]

    view.set_flat(theta0)
    model.zero_grad()
    model.backward(mse(model(x), target)[1])
    analytic = view.get_grad_flat()
    idx = rng.choice(theta0.size, size=min(n_coords, theta0.size), replace=False)
    numeric = numeric_gradient(f, theta0, idx)
    view.set_flat(theta0)
    # combined tolerance: relative where gradients are sizable, absolute near 0
    bound = 1e-7 + tol * (np.abs(numeric) + np.abs(analytic[idx]))
    assert np.all(np.abs(numeric - analytic[idx]) < bound)


def gradcheck_input(model, x, tol=1e-5):
    """Check analytic input gradients against central differences."""
    target = np.random.default_rng(0).normal(size=model(x).shape)

    def f(xv):
        return mse(model(xv.reshape(x.shape)), target)[0]

    model.zero_grad()
    g_in = model.backward(mse(model(x), target)[1]).ravel()
    flat = x.ravel().copy()
    idx = np.random.default_rng(1).choice(
        flat.size, size=min(25, flat.size), replace=False
    )
    numeric = numeric_gradient(f, flat, idx)
    bound = 1e-7 + tol * (np.abs(numeric) + np.abs(g_in[idx]))
    assert np.all(np.abs(numeric - g_in[idx]) < bound)


# ---------------------------------------------------------------- linear
def test_linear_gradcheck(rng):
    model = Linear(6, 4, rng=rng)
    gradcheck_params(model, rng.normal(size=(5, 6)), rng)
    gradcheck_input(model, rng.normal(size=(5, 6)))


def test_linear_shape_validation(rng):
    with pytest.raises(ValueError):
        Linear(6, 4, rng=rng)(rng.normal(size=(5, 3)))


# ---------------------------------------------------------------- conv
@pytest.mark.parametrize(
    "groups,stride,padding", [(1, 1, 1), (2, 1, 1), (4, 2, 1), (1, 2, 0)]
)
def test_conv_gradcheck(rng, groups, stride, padding):
    model = Conv2d(4, 4, 3, stride=stride, padding=padding, groups=groups, rng=rng)
    x = rng.normal(size=(3, 4, 6, 6))
    gradcheck_params(model, x, rng)
    gradcheck_input(model, x)


def test_conv_depthwise_equals_manual(rng):
    """Depthwise conv must convolve each channel independently."""
    conv = Conv2d(2, 2, 3, padding=1, groups=2, bias=False, rng=rng)
    x = rng.normal(size=(1, 2, 5, 5))
    out = conv(x)
    for c in range(2):
        single = Conv2d(1, 1, 3, padding=1, bias=False, rng=rng)
        single.weight.data[:] = conv.weight.data[c : c + 1]
        np.testing.assert_allclose(
            out[:, c : c + 1], single(x[:, c : c + 1]), atol=1e-12
        )


def test_conv_rejects_bad_groups():
    with pytest.raises(ValueError):
        Conv2d(3, 4, 3, groups=2)


def test_conv_shape_validation(rng):
    conv = Conv2d(3, 4, 3, rng=rng)
    with pytest.raises(ValueError):
        conv(rng.normal(size=(1, 2, 5, 5)))


# ---------------------------------------------------------------- batchnorm
def test_bn2d_normalizes_in_train_mode(rng):
    bn = BatchNorm2d(3)
    x = rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4))
    out = bn(x)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_bn_running_stats_converge(rng):
    bn = BatchNorm2d(2, momentum=0.5)
    for _ in range(40):
        bn(rng.normal(loc=2.0, scale=1.5, size=(16, 2, 4, 4)))
    np.testing.assert_allclose(bn.running_mean.data, 2.0, atol=0.2)
    np.testing.assert_allclose(bn.running_var.data, 1.5**2, atol=0.4)


def test_bn_eval_uses_running_stats(rng):
    bn = BatchNorm2d(2)
    for _ in range(10):
        bn(rng.normal(size=(4, 2, 4, 4)))
    bn.eval()
    x = rng.normal(size=(4, 2, 3, 3))
    mean = bn.running_mean.data[:, None, None]
    var = bn.running_var.data[:, None, None]
    expected = (x - mean) / np.sqrt(var + bn.eps)
    np.testing.assert_allclose(bn(x), expected, atol=1e-10)


def test_bn_gradcheck(rng):
    model = Sequential(Conv2d(2, 3, 1, rng=rng), BatchNorm2d(3))
    gradcheck_params(model, rng.normal(size=(4, 2, 3, 3)), rng)


def test_bn_backward_requires_train_forward(rng):
    bn = BatchNorm2d(2)
    bn.eval()
    bn(rng.normal(size=(4, 2, 3, 3)))
    with pytest.raises(RuntimeError):
        bn.backward(np.ones((4, 2, 3, 3)))


def test_bn_buffers_not_parameters():
    bn = BatchNorm2d(4)
    param_names = {n for n, _ in bn.named_parameters()}
    buffer_names = {n for n, _ in bn.named_buffers()}
    assert param_names == {"weight", "bias"}
    assert buffer_names == {"running_mean", "running_var", "num_batches_tracked"}


# ---------------------------------------------------------------- activations
def test_activation_gradcheck(rng):
    model = Sequential(Linear(4, 4, rng=rng), ReLU())
    # keep inputs away from ReLU kinks by shifting
    x = rng.normal(size=(6, 4)) + 0.05
    gradcheck_params(model, x, rng)


def test_relu_zeroes_negatives():
    out = ReLU()(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])


# ---------------------------------------------------------------- pooling
def test_maxpool_values(rng):
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = MaxPool2d(2)(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradient_routes_to_argmax():
    pool = MaxPool2d(2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    pool(x)
    g = pool.backward(np.ones((1, 1, 2, 2)))
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
    np.testing.assert_array_equal(g[0, 0], expected)


def test_maxpool_overlapping_padded_gradcheck(rng):
    """The argmax path (stride < kernel, padding): ResNet's stem pool."""
    model = Sequential(Conv2d(2, 2, 1, rng=rng), MaxPool2d(3, stride=2, padding=1))
    x = rng.normal(size=(2, 2, 6, 6))
    gradcheck_params(model, x, rng)
    gradcheck_input(model, x)


def test_avgpool_gradcheck(rng):
    model = Sequential(Conv2d(2, 2, 1, rng=rng), AvgPool2d(2))
    gradcheck_params(model, rng.normal(size=(3, 2, 4, 4)), rng)


def test_global_avgpool(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    out = GlobalAvgPool2d()(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)))


def test_global_avgpool_backward_spreads(rng):
    gap = GlobalAvgPool2d()
    x = rng.normal(size=(1, 2, 2, 2))
    gap(x)
    g = gap.backward(np.ones((1, 2)))
    np.testing.assert_allclose(g, 0.25)


# ---------------------------------------------------------------- shape / shuffle
def test_flatten_roundtrip(rng):
    f = Flatten()
    x = rng.normal(size=(3, 2, 4, 4))
    out = f(x)
    assert out.shape == (3, 32)
    np.testing.assert_array_equal(f.backward(out), x)


def test_channel_shuffle_is_permutation(rng):
    shuffle = ChannelShuffle(2)
    x = rng.normal(size=(1, 6, 2, 2))
    out = shuffle(x)
    # channels [0..5] grouped as (0,1,2),(3,4,5) -> interleaved 0,3,1,4,2,5
    np.testing.assert_array_equal(out[:, 0], x[:, 0])
    np.testing.assert_array_equal(out[:, 1], x[:, 3])
    np.testing.assert_array_equal(out[:, 2], x[:, 1])


def test_channel_shuffle_backward_inverts(rng):
    shuffle = ChannelShuffle(3)
    x = rng.normal(size=(2, 6, 3, 3))
    out = shuffle(x)
    np.testing.assert_array_equal(shuffle.backward(out), x)


# ---------------------------------------------------------------- blocks
def test_identity_passthrough(rng):
    x = rng.normal(size=(2, 3))
    ident = Identity()
    np.testing.assert_array_equal(ident(x), x)
    np.testing.assert_array_equal(ident.backward(x), x)


def test_residual_add_gradcheck(rng):
    block = ResidualAdd(
        Sequential(Conv2d(2, 2, 3, padding=1, rng=rng), ReLU())
    )
    gradcheck_params(block, rng.normal(size=(2, 2, 4, 4)), rng)


def test_residual_add_shape_mismatch(rng):
    block = ResidualAdd(Conv2d(2, 4, 1, rng=rng))
    with pytest.raises(ValueError, match="residual shape mismatch"):
        block(rng.normal(size=(1, 2, 3, 3)))


def test_channel_concat_gradcheck(rng):
    block = ChannelConcat(
        Conv2d(2, 2, 1, rng=rng), Conv2d(2, 3, 1, rng=rng)
    )
    x = rng.normal(size=(2, 2, 3, 3))
    assert block(x).shape == (2, 5, 3, 3)
    gradcheck_params(block, x, rng)


# ---------------------------------------------------------------- activation lifetime
# the array-caching layers no registry model is built from; the model-wide
# walk in test_models.py covers the rest
@pytest.mark.parametrize(
    "make,shape",
    [
        (lambda: BatchNorm2d(6), (4, 6, 3, 3)),
        (lambda: MaxPool2d(3, stride=2, padding=1), (2, 2, 6, 6)),
    ],
)
def test_layer_caches_only_in_training_and_backward_releases(rng, make, shape):
    assert_activation_lifetime(make(), rng.normal(size=shape))

