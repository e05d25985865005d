import numpy as np
import pytest

from repro.datasets.partition import dirichlet_partition


def test_dirichlet_covers_all_samples(rng):
    labels = rng.integers(0, 5, 500)
    parts = dirichlet_partition(labels, 10, alpha=0.5, rng=rng)
    all_idx = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(all_idx, np.arange(500))


def test_dirichlet_no_duplicates(rng):
    labels = rng.integers(0, 3, 300)
    parts = dirichlet_partition(labels, 7, alpha=0.1, rng=rng)
    merged = np.concatenate(parts)
    assert len(np.unique(merged)) == len(merged)


def test_dirichlet_low_alpha_skews_more(rng):
    labels = np.repeat(np.arange(5), 200)

    def skew(alpha, seed):
        gen = np.random.default_rng(seed)
        parts = dirichlet_partition(labels, 20, alpha, gen)
        tvs = []
        for idx in parts:
            if len(idx) < 5:
                continue
            hist = np.bincount(labels[idx], minlength=5) / len(idx)
            tvs.append(0.5 * np.abs(hist - 0.2).sum())
        return np.mean(tvs)

    low = np.mean([skew(0.05, s) for s in range(5)])
    high = np.mean([skew(100.0, s) for s in range(5)])
    assert low > high + 0.2


def test_dirichlet_validation(rng):
    with pytest.raises(ValueError):
        dirichlet_partition(np.zeros(10, dtype=int), 3, alpha=0.0, rng=rng)
    with pytest.raises(ValueError):
        dirichlet_partition(np.zeros(10, dtype=int), 0, alpha=1.0, rng=rng)

