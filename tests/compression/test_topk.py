import numpy as np
import pytest

from repro.compression.topk import ratio_to_k, top_k_indices


def test_top_k_selects_largest_magnitudes():
    x = np.array([0.1, -5.0, 2.0, -0.5, 3.0])
    idx = top_k_indices(x, 2)
    np.testing.assert_array_equal(idx, [1, 4])


def test_top_k_edge_cases():
    x = np.arange(5.0)
    assert len(top_k_indices(x, 0)) == 0
    np.testing.assert_array_equal(top_k_indices(x, 5), np.arange(5))
    np.testing.assert_array_equal(top_k_indices(x, 99), np.arange(5))


def test_ratio_to_k():
    assert ratio_to_k(0.2, 100) == 20
    assert ratio_to_k(0.0, 100) == 0
    assert ratio_to_k(1.0, 100) == 100
    assert ratio_to_k(0.205, 10) == 2  # rounds


def test_ratio_to_k_validation():
    with pytest.raises(ValueError):
        ratio_to_k(1.5, 10)
    with pytest.raises(ValueError):
        ratio_to_k(-0.1, 10)
