import numpy as np
import pytest

from repro.nn import MLP, SGD, CrossEntropyLoss, ExponentialDecay
from repro.nn.module import Parameter


# ---------------------------------------------------------------- losses
def test_cross_entropy_uniform_logits():
    loss = CrossEntropyLoss()
    val = loss(np.zeros((4, 10)), np.arange(4) % 10)
    assert val == pytest.approx(np.log(10))


def test_cross_entropy_gradient_matches_softmax_minus_onehot(rng):
    loss = CrossEntropyLoss()
    logits = rng.normal(size=(6, 5))
    y = rng.integers(0, 5, 6)
    loss(logits, y)
    g = loss.backward()
    from repro.nn.functional import one_hot, softmax

    expected = (softmax(logits) - one_hot(y, 5)) / 6
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_cross_entropy_numeric_gradient(rng):
    loss = CrossEntropyLoss()
    logits = rng.normal(size=(3, 4))
    y = np.array([0, 2, 3])
    loss(logits, y)
    g = loss.backward()
    eps = 1e-7
    for i, j in [(0, 0), (1, 2), (2, 1)]:
        lp = logits.copy()
        lp[i, j] += eps
        lm = logits.copy()
        lm[i, j] -= eps
        num = (loss(lp, y) - loss(lm, y)) / (2 * eps)
        assert num == pytest.approx(g[i, j], rel=1e-5)


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        CrossEntropyLoss().backward()


# ---------------------------------------------------------------- SGD
def test_sgd_plain_step():
    p = Parameter(np.array([1.0, 2.0]))
    p.grad[:] = [0.5, -0.5]
    SGD([p], lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.95, 2.05])


def test_sgd_momentum_matches_pytorch_formula():
    """buf = m*buf + g; p -= lr*buf (PyTorch semantics)."""
    p = Parameter(np.array([0.0]))
    opt = SGD([p], lr=1.0, momentum=0.9)
    expected = 0.0
    buf = 0.0
    for _ in range(5):
        p.grad[:] = 1.0
        opt.step()
        buf = 0.9 * buf + 1.0
        expected -= buf
        assert p.data[0] == pytest.approx(expected)


def test_sgd_reset_state_clears_momentum():
    p = Parameter(np.array([0.0]))
    opt = SGD([p], lr=1.0, momentum=0.9)
    p.grad[:] = 1.0
    opt.step()
    opt.reset_state()
    p.grad[:] = 1.0
    opt.step()
    # without history the second step is a plain -1.0
    assert p.data[0] == pytest.approx(-2.0)


def test_sgd_validation():
    with pytest.raises(ValueError):
        SGD([], lr=-1.0)


def test_sgd_trains_mlp_to_lower_loss(rng):
    model = MLP(in_features=10, hidden=(16,), num_classes=3, rng=rng)
    x = rng.normal(size=(64, 10))
    y = rng.integers(0, 3, 64)
    loss = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=0.2, momentum=0.9)
    first = loss(model(x), y)
    for _ in range(30):
        opt.zero_grad()
        val = loss(model(x), y)
        model.backward(loss.backward())
        opt.step()
    assert val < first * 0.5


# ---------------------------------------------------------------- schedules
def test_exponential_decay_paper_rule():
    sched = ExponentialDecay(0.05, decay=0.98, every=10)
    assert sched.at_round(0) == pytest.approx(0.05)
    assert sched.at_round(9) == pytest.approx(0.05)
    assert sched.at_round(10) == pytest.approx(0.05 * 0.98)
    assert sched.at_round(25) == pytest.approx(0.05 * 0.98**2)

