import numpy as np

from repro.utils.rng import RngFactory, child_rng


def test_same_seed_same_stream():
    a = child_rng(7, "sampler").integers(0, 1 << 30, size=10)
    b = child_rng(7, "sampler").integers(0, 1 << 30, size=10)
    np.testing.assert_array_equal(a, b)


def test_different_names_different_streams():
    a = child_rng(7, "sampler").integers(0, 1 << 30, size=10)
    b = child_rng(7, "bandwidth").integers(0, 1 << 30, size=10)
    assert not np.array_equal(a, b)


def test_different_seeds_different_streams():
    a = child_rng(7, "sampler").integers(0, 1 << 30, size=10)
    b = child_rng(8, "sampler").integers(0, 1 << 30, size=10)
    assert not np.array_equal(a, b)


def test_factory_matches_child_rng():
    factory = RngFactory(seed=42)
    a = factory("x").integers(0, 1 << 30, size=5)
    b = child_rng(42, "x").integers(0, 1 << 30, size=5)
    np.testing.assert_array_equal(a, b)
