import numpy as np
import pytest

from repro.nn import MLP, Linear, Sequential
from repro.nn.flat import FlatParamView

from tests.nn.flat_bn import FlatBatchNorm


def make_model(rng):
    return Sequential(Linear(4, 6, rng=rng), FlatBatchNorm(6), Linear(6, 2, rng=rng))


def test_flat_roundtrip(rng):
    model = make_model(rng)
    view = FlatParamView(model)
    theta = view.get_flat()
    assert theta.shape == (view.num_trainable,)
    view.set_flat(theta * 2)
    np.testing.assert_allclose(view.get_flat(), theta * 2)


def test_set_flat_writes_through_to_model(rng):
    model = make_model(rng)
    view = FlatParamView(model)
    view.set_flat(np.zeros(view.num_trainable))
    for p in model.parameters():
        np.testing.assert_array_equal(p.data, 0.0)


def test_get_flat_is_a_copy(rng):
    model = make_model(rng)
    view = FlatParamView(model)
    theta = view.get_flat()
    theta[:] = 123.0
    assert not np.allclose(view.get_flat(), 123.0)


def test_buffers_flat_roundtrip(rng):
    model = make_model(rng)
    view = FlatParamView(model)
    bufs = view.get_buffers_flat()
    # BN: mean(6) + var(6) + counter(1)
    assert bufs.shape == (13,)
    view.set_buffers_flat(np.arange(13.0))
    np.testing.assert_allclose(view.get_buffers_flat(), np.arange(13.0))


def test_length_validation(rng):
    view = FlatParamView(make_model(rng))
    with pytest.raises(ValueError):
        view.set_flat(np.zeros(3))
    with pytest.raises(ValueError):
        view.set_flat(np.zeros((view.num_trainable, 1)).ravel()[:-1])


def test_flat_view_consistent_with_mlp_count(rng):
    model = MLP(in_features=12, hidden=(8, 8), num_classes=3, rng=rng)
    view = FlatParamView(model)
    assert view.num_trainable == sum(p.size for p in model.parameters())
    assert view.num_buffer == 0
