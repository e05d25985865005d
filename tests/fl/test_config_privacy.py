"""The rules for a legal privacy setup, checked when ``PrivateStrategy`` is built.

Privacy is not a ``RunConfig`` field: a run is privatized by wrapping its
strategy, so every illegal combination of privacy knobs is refused by the
wrapper's constructor, before any run exists.
"""

import dataclasses

import pytest

from repro.compression import FedAvgStrategy, QuantizedStrategy, STCStrategy
from repro.datasets import femnist_like
from repro.fl import RunConfig, UniformSampler
from repro.privacy import PrivateStrategy


def private(inner=None, **knobs):
    return PrivateStrategy(inner or FedAvgStrategy(), **knobs)


def test_default_is_off_and_valid():
    """A run without the wrapper is non-private, and no field says
    otherwise."""
    dataset = femnist_like(
        num_clients=20, num_classes=4, image_size=8,
        samples_per_client=16, min_samples=4, seed=1,
    )
    config = RunConfig(
        dataset=dataset, model_name="mlp", strategy=FedAvgStrategy(),
        sampler=UniformSampler(4), rounds=5,
    )
    config.validate()
    assert not [
        f.name for f in dataclasses.fields(RunConfig) if "privacy" in f.name
    ]
    assert config.strategy.privacy_epsilon_spent() is None


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="privacy mode"):
        private(mode="laplace")


def test_negative_epsilon_rejected():
    for epsilon in (-1.0, 0.0):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            private(epsilon=epsilon, clip_norm=1.0)


def test_nonpositive_clip_norm_rejected():
    for clip_norm in (0.0, -2.0):
        with pytest.raises(ValueError, match="clip_norm must be positive"):
            private(epsilon=4.0, clip_norm=clip_norm)


def test_defense_fraction_range():
    for fraction in (1.0, -0.1):
        with pytest.raises(ValueError, match="defense_fraction"):
            private(mode="random_defense", defense_fraction=fraction)
    private(mode="random_defense", defense_fraction=0.0)


def test_gaussian_needs_a_budget_or_multiplier():
    with pytest.raises(ValueError, match="gaussian mode needs epsilon"):
        private(clip_norm=1.0)
    private(epsilon=4.0, clip_norm=1.0)
    private(noise_multiplier=1.0, clip_norm=1.0)
    # a budget beside an explicit multiplier: one of the two is ignored
    with pytest.raises(ValueError, match="not both"):
        private(epsilon=4.0, noise_multiplier=1.0, clip_norm=1.0)


def test_gaussian_noise_needs_clip_norm():
    # the clip bound is the mechanism's sensitivity: no default exists
    with pytest.raises(ValueError, match="clip"):
        private(epsilon=4.0)
    with pytest.raises(ValueError, match="clip"):
        private(noise_multiplier=1.0)
    # zero noise claims nothing, so it needs no bound
    private(noise_multiplier=0.0)


def test_random_defense_rejects_gaussian_knobs():
    # masking adds no noise: a user setting an epsilon expects masking +
    # DP, which this mode does not provide — fail loudly
    for knobs in (
        dict(epsilon=8.0, clip_norm=2.0),
        dict(epsilon=8.0),
        dict(noise_multiplier=1.0),
    ):
        with pytest.raises(ValueError, match="random_defense"):
            private(mode="random_defense", **knobs)


def test_defense_fraction_rejected_under_gaussian():
    with pytest.raises(ValueError, match="defense_fraction"):
        private(epsilon=4.0, clip_norm=1.0, defense_fraction=0.3)


def test_values_only_requires_gaussian_mode():
    with pytest.raises(ValueError, match="values_only"):
        private(mode="random_defense", values_only=True)


def test_gaussian_noise_over_client_chosen_indices_needs_waiver():
    # STC's clients pick their own top-k: the index set is a
    # data-dependent release the Gaussian mechanism does not cover
    with pytest.raises(ValueError, match="index release"):
        private(STCStrategy(q=0.2), epsilon=4.0, clip_norm=1.0)
    with pytest.warns(UserWarning, match="values only"):
        private(STCStrategy(q=0.2), epsilon=4.0, clip_norm=1.0,
                values_only=True)
    # dense strategies never need it
    private(epsilon=4.0, clip_norm=1.0)


class _Passthrough(FedAvgStrategy):
    """A wrapper-shaped strategy: anything with an ``inner``."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner


def test_quantized_inner_rejected():
    """Noise added after quantization would be off the quantizer's grid:
    privacy nests under quantization, never over it."""
    quantized = QuantizedStrategy(FedAvgStrategy(), bits=8)
    for inner in (quantized, _Passthrough(quantized)):
        with pytest.raises(ValueError, match="under quantization"):
            private(inner, epsilon=4.0, clip_norm=1.0)
        with pytest.raises(ValueError, match="under quantization"):
            private(inner, mode="random_defense")
    stack = QuantizedStrategy(private(epsilon=4.0, clip_norm=1.0), bits=8)
    assert stack.name == "fedavg+dp+q8"


def test_nested_privacy_rejected():
    once = private(noise_multiplier=1.0, clip_norm=1.0)
    for inner in (once, _Passthrough(once)):
        with pytest.raises(ValueError, match="already privatized"):
            private(inner, mode="random_defense")

