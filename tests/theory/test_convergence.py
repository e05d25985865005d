import numpy as np
import pytest

from repro.theory import variance_amplification


def uniform_p(n):
    return np.full(n, 1.0 / n)


def test_a_term_fedavg_limit():
    """§4.2: with p_i = 1/N and a single bucket, A = 1."""
    n, k = 100, 10
    # degenerate sticky config: everything sampled from the 'non-sticky' side
    a = variance_amplification(n, k, s=0, c=0, p=uniform_p(n))
    assert a == pytest.approx(1.0)


def test_a_term_paper_configuration():
    n, k, s, c = 2800, 30, 120, 24
    a = variance_amplification(n, k, s, c, uniform_p(n))
    expected = (k / n) * (s**2 / c + (n - s) ** 2 / (k - c)) / n
    assert a == pytest.approx(expected)
    assert a > 1.0  # sticky sampling pays a variance cost


def test_a_term_grows_with_skewed_weights():
    n, k, s, c = 100, 10, 40, 8
    skewed = np.zeros(n)
    skewed[0] = 0.9
    skewed[1:] = 0.1 / (n - 1)
    assert variance_amplification(n, k, s, c, skewed) > variance_amplification(
        n, k, s, c, uniform_p(n)
    )


def test_a_term_validation():
    with pytest.raises(ValueError):
        variance_amplification(10, 5, 4, 2, np.full(9, 1 / 9))
    with pytest.raises(ValueError):
        variance_amplification(10, 5, 4, 2, np.full(10, 0.2))  # sum != 1
    # a bucket with clients but no slots: those clients are never drawn,
    # so no unbiased estimator exists (both read A = 0.36 < FedAvg's 1)
    with pytest.raises(ValueError, match="no slots"):
        variance_amplification(10, 5, 4, 0, uniform_p(10))  # sticky, C = 0
    with pytest.raises(ValueError, match="no slots"):
        variance_amplification(10, 5, 6, 5, uniform_p(10))  # non-sticky, C = K
    # the edges stay legal: FedAvg (S = C = 0) and an all-sticky group
    assert variance_amplification(10, 5, 0, 0, uniform_p(10)) == pytest.approx(1.0)
    assert variance_amplification(10, 5, 10, 5, uniform_p(10)) == pytest.approx(1.0)

