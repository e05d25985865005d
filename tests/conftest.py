"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.datasets import femnist_like
from repro.nn import MLP

#: live threads at each ``os.fork()`` of the running test
_FORKS: list = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=lambda: _FORKS.append(threading.active_count()))


@pytest.fixture(autouse=True)
def forks():
    """Every test forks only from a single-threaded process.

    A child forked beside a live thread can inherit a lock that thread
    held and deadlock on it; Python 3.12 warns on such a fork, which
    ``pytest.ini`` makes an error.  This holds every interpreter to it.
    The value is the live-thread count at each of the test's forks.
    """
    _FORKS.clear()
    yield _FORKS
    assert all(n == 1 for n in _FORKS), f"forked beside live threads: {_FORKS}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_dataset():
    """A small, fast federation used across FL-engine tests."""
    return femnist_like(
        num_clients=40,
        num_classes=4,
        image_size=8,
        samples_per_client=24,
        min_samples=5,
        seed=7,
    )


@pytest.fixture
def tiny_model(rng):
    return MLP(in_features=64, hidden=(16,), num_classes=4, rng=rng)


def held_arrays(model):
    """``(module type, attribute)`` of every ``ndarray`` a module tree holds
    outside its parameters and buffers — directly or inside a tuple/list.

    The activation-lifetime rule says this is empty after an eval-mode
    forward and after a training-mode forward + backward.
    """

    def has_array(value):
        if isinstance(value, np.ndarray):
            return True
        if isinstance(value, (tuple, list)):
            return any(has_array(v) for v in value)
        return False

    return [
        (type(m).__name__, name)
        for m in model.modules()
        for name, value in vars(m).items()
        if has_array(value)
    ]


def assert_activation_lifetime(module, x):
    """The lifetime rule on ``module`` for input ``x``: an eval-mode forward
    is inference (nothing cached, ``backward`` refuses), a training-mode
    forward caches, and the backward that reads the cache releases it (so a
    second backward is the same typed error)."""
    module.eval()
    out = module(x)
    assert held_arrays(module) == []
    with pytest.raises(RuntimeError, match="training-mode forward"):
        module.backward(np.ones_like(out))
    module.train()
    out = module(x)
    assert held_arrays(module) != []
    module.backward(np.ones_like(out))
    assert held_arrays(module) == []
    with pytest.raises(RuntimeError, match="training-mode forward"):
        module.backward(np.ones_like(out))


def numeric_gradient(f, theta, indices, eps=1e-6):
    """Central-difference gradient of scalar ``f`` at chosen coordinates."""
    out = np.zeros(len(indices))
    for j, idx in enumerate(indices):
        tp = theta.copy()
        tp[idx] += eps
        tm = theta.copy()
        tm[idx] -= eps
        out[j] = (f(tp) - f(tm)) / (2 * eps)
    return out
