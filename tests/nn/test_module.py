import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential
from repro.nn.module import Buffer, Module, Parameter

from tests.nn.flat_bn import FlatBatchNorm


def make_net(rng):
    return Sequential(Linear(4, 8, rng=rng), FlatBatchNorm(8), ReLU(), Linear(8, 2, rng=rng))


def test_named_parameters_stable_order(rng):
    net = make_net(rng)
    names = [n for n, _ in net.named_parameters()]
    assert names == [
        "layer0.weight",
        "layer0.bias",
        "layer1.weight",
        "layer1.bias",
        "layer3.weight",
        "layer3.bias",
    ]


def test_named_buffers_are_bn_stats(rng):
    net = make_net(rng)
    names = [n for n, _ in net.named_buffers()]
    assert names == [
        "layer1.running_mean",
        "layer1.running_var",
        "layer1.num_batches_tracked",
    ]


def test_zero_grad(rng):
    net = make_net(rng)
    x = rng.normal(size=(3, 4))
    net(x)
    net.backward(np.ones((3, 2)))
    assert any(np.abs(p.grad).sum() > 0 for p in net.parameters())
    net.zero_grad()
    assert all(np.abs(p.grad).sum() == 0 for p in net.parameters())


def test_train_eval_propagates(rng):
    net = make_net(rng)
    net.eval()
    assert all(not m.training for m in net.modules())
    net.train()
    assert all(m.training for m in net.modules())


def test_state_dict_roundtrip(rng):
    net = make_net(rng)
    x = rng.normal(size=(5, 4))
    net(x)  # move BN running stats
    state = net.state_dict()
    net2 = make_net(np.random.default_rng(99))
    net2.load_state_dict(state)
    for (_, a), (_, b) in zip(net.named_parameters(), net2.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    for (_, a), (_, b) in zip(net.named_buffers(), net2.named_buffers()):
        np.testing.assert_array_equal(a.data, b.data)


def test_load_state_dict_shape_mismatch(rng):
    net = make_net(rng)
    state = net.state_dict()
    state["layer0.weight"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        net.load_state_dict(state)


def test_num_parameters(rng):
    net = make_net(rng)
    expected = 4 * 8 + 8 + 8 + 8 + 8 * 2 + 2
    assert net.num_parameters() == expected


def test_parameter_and_buffer_repr_shapes():
    p = Parameter(np.zeros((2, 3)))
    b = Buffer(np.zeros(5))
    assert p.shape == (2, 3) and p.size == 6
    assert b.shape == (5,) and b.size == 5


def test_sequential_indexing(rng):
    net = make_net(rng)
    assert len(net) == 4
    assert isinstance(net[0], Linear)


def test_forward_backward_not_implemented():
    m = Module()
    with pytest.raises(NotImplementedError):
        m.forward(np.zeros(1))
    with pytest.raises(NotImplementedError):
        m.backward(np.zeros(1))
