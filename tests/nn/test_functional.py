import numpy as np
import pytest

from repro.nn.functional import col2im, conv_out_size, im2col, one_hot, softmax


def test_conv_out_size_values():
    assert conv_out_size(28, 3, 1, 1) == 28
    assert conv_out_size(28, 3, 2, 1) == 14
    assert conv_out_size(4, 2, 2, 0) == 2


def test_conv_out_size_invalid():
    with pytest.raises(ValueError):
        conv_out_size(2, 5, 1, 0)


def test_im2col_shapes(rng):
    x = rng.normal(size=(2, 3, 8, 8))
    cols = im2col(x, 3, 3, 1, 1)
    assert cols.shape == (2, 3, 3, 3, 8, 8)
    cols = im2col(x, 2, 2, 2, 0)
    assert cols.shape == (2, 3, 2, 2, 4, 4)


def test_im2col_values_match_naive(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    cols = im2col(x, 3, 3, 1, 0)
    for y in range(3):
        for xx in range(3):
            np.testing.assert_allclose(
                cols[0, :, :, :, y, xx], x[0, :, y : y + 3, xx : xx + 3]
            )


def test_col2im_is_adjoint_of_im2col(rng):
    """<im2col(x), c> == <x, col2im(c)> — the defining adjoint identity."""
    x = rng.normal(size=(2, 3, 6, 6))
    for k, s, p in [(3, 1, 1), (3, 2, 1), (2, 2, 0)]:
        cols = im2col(x, k, k, s, p)
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, k, k, s, p)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_softmax_rows_sum_to_one(rng):
    p = softmax(rng.normal(size=(4, 7)) * 50)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p >= 0).all()


def test_softmax_stable_for_large_logits():
    p = softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_one_hot():
    y = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        y, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )


def test_one_hot_range_check():
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)
    with pytest.raises(ValueError):
        one_hot(np.array([[1]]), 3)
