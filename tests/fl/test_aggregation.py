import numpy as np
import pytest

from repro.fl.aggregation import (
    equal_weights,
    fedavg_weights,
    fold_buffer_delta,
    mean_buffer_delta,
    sticky_weights,
)


def test_fedavg_weights_uniform_p():
    p = np.full(100, 0.01)
    w = fedavg_weights(p, np.arange(10), 100)
    np.testing.assert_allclose(w, 0.1)  # (N/K)·p = 10·0.01


def test_fedavg_weights_sum_to_one_in_expectation():
    """E[Σ ν_i] over uniform draws equals 1 when p sums to 1."""
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(50))
    total = 0.0
    trials = 3000
    for _ in range(trials):
        ids = rng.choice(50, size=5, replace=False)
        total += fedavg_weights(p, ids, 50).sum()
    assert total / trials == pytest.approx(1.0, abs=0.02)


def test_sticky_weights_formula():
    p = np.full(100, 0.01)
    nu_s, nu_r = sticky_weights(
        p, np.arange(8), np.arange(90, 92), group_size=40, num_clients=100
    )
    np.testing.assert_allclose(nu_s, (40 / 8) * 0.01)
    np.testing.assert_allclose(nu_r, (60 / 2) * 0.01)


def test_sticky_weights_unbiased_monte_carlo():
    """Theorem 1: E[Σ ν_i Δ_i] = Σ p_i Δ_i under sticky sampling."""
    rng = np.random.default_rng(3)
    n, k, s, c = 60, 6, 24, 4
    p = rng.dirichlet(np.ones(n))
    deltas = rng.normal(size=n)
    target = float((p * deltas).sum())
    group = rng.choice(n, size=s, replace=False)
    total = 0.0
    trials = 20000
    for _ in range(trials):
        sticky_ids = rng.choice(group, size=c, replace=False)
        non_group = np.setdiff1d(np.arange(n), group)
        nonsticky_ids = rng.choice(non_group, size=k - c, replace=False)
        nu_s, nu_r = sticky_weights(p, sticky_ids, nonsticky_ids, s, n)
        total += (nu_s * deltas[sticky_ids]).sum()
        total += (nu_r * deltas[nonsticky_ids]).sum()
    estimate = total / trials
    assert estimate == pytest.approx(target, abs=0.02)


def test_equal_weights():
    w = equal_weights(np.arange(8))
    np.testing.assert_allclose(w, 0.125)
    assert len(equal_weights(np.array([]))) == 0


def test_empty_buckets():
    p = np.full(10, 0.1)
    nu_s, nu_r = sticky_weights(p, np.array([]), np.arange(3), 4, 10)
    assert len(nu_s) == 0 and len(nu_r) == 3
    assert len(fedavg_weights(p, np.array([]), 10)) == 0


def test_buffer_aggregation_is_unweighted_mean():
    acc = None
    for delta in (np.array([1.0, 2.0]), np.array([3.0, 4.0])):
        acc = fold_buffer_delta(acc, delta)
    np.testing.assert_allclose(mean_buffer_delta(acc, 2), [2.0, 3.0])


def test_buffer_aggregation_empty_raises():
    with pytest.raises(ValueError):
        mean_buffer_delta(None, 0)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_buffer_sum_is_the_sequential_loop(dtype):
    """Folding deltas as they arrive is the textbook loop — ``acc += delta``
    in order, in the deltas' own dtype (a 2-byte delta is not widened),
    then one ``/ n``."""
    rng = np.random.default_rng(1)
    deltas = [rng.normal(size=7).astype(dtype) for _ in range(5)]
    acc = None
    for delta in deltas:
        acc = fold_buffer_delta(acc, delta)
    plain = np.zeros(7, dtype=dtype)
    for delta in deltas:
        plain += delta
    got = mean_buffer_delta(acc, len(deltas))
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, plain / len(deltas))
