"""Hypothesis properties of the NN substrate's algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Conv2d, Linear
from repro.nn.functional import col2im, conv_out_size, im2col


@given(
    st.integers(1, 3),  # batch
    st.integers(1, 3),  # channels
    st.integers(4, 10),  # spatial
    st.sampled_from([(2, 1, 0), (3, 1, 1), (3, 2, 1), (2, 2, 0)]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_im2col_col2im_adjoint(n, c, hw, ksp, seed):
    """<im2col(x), y> == <x, col2im(y)> for random shapes/params."""
    k, s, p = ksp
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, hw, hw))
    cols = im2col(x, k, k, s, p)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, k, k, s, p)).sum())
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@given(
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_linear_is_linear(n, fin, fout, seed):
    """f(a·x + b·y) == a·f(x) + b·f(y) for a Linear layer's map less its
    bias."""
    rng = np.random.default_rng(seed)
    layer = Linear(fin, fout, rng=rng)
    layer.bias.data[:] = rng.normal(size=fout)

    def f(v):
        return layer(v) - layer.bias.data

    x = rng.normal(size=(n, fin))
    y = rng.normal(size=(n, fin))
    a, b = rng.normal(size=2)
    lhs = f(a * x + b * y)
    rhs = a * f(x) + b * f(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@given(
    st.integers(1, 2),
    st.sampled_from([1, 2, 4]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_grouped_conv_is_linear_operator(n, groups, seed):
    """Bias-free conv is linear in its input for any group count."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(4, 4, 3, padding=1, groups=groups, bias=False, rng=rng)
    x = rng.normal(size=(n, 4, 6, 6))
    y = rng.normal(size=(n, 4, 6, 6))
    np.testing.assert_allclose(
        conv(x + y), conv(x) + conv(y), atol=1e-9
    )


@given(
    st.integers(4, 64),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_conv_out_size_consistent_with_im2col(size, k, s, p):
    """conv_out_size agrees with the shape im2col actually produces."""
    if size + 2 * p < k:
        return
    x = np.zeros((1, 1, size, size))
    try:
        expected = conv_out_size(size, k, s, p)
    except ValueError:
        return
    cols = im2col(x, k, k, s, p)
    assert cols.shape[-1] == expected
    assert cols.shape[-2] == expected
