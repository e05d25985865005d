"""RunConfig.validate on the privacy knobs."""

import pytest

from repro.compression import FedAvgStrategy, STCStrategy
from repro.datasets import femnist_like
from repro.fl import RunConfig, UniformSampler


@pytest.fixture(scope="module")
def dataset():
    return femnist_like(
        num_clients=20, num_classes=4, image_size=8,
        samples_per_client=16, min_samples=4, seed=1,
    )


def make(dataset, **overrides):
    params = dict(
        dataset=dataset,
        model_name="mlp",
        strategy=FedAvgStrategy(),
        sampler=UniformSampler(4),
        rounds=5,
    )
    params.update(overrides)
    return RunConfig(**params)


def test_default_is_off_and_valid(dataset):
    config = make(dataset)
    assert config.privacy_mode == "off"
    config.validate()


def test_unknown_mode_rejected(dataset):
    with pytest.raises(ValueError, match="privacy_mode"):
        make(dataset, privacy_mode="laplace").validate()


def test_negative_epsilon_rejected(dataset):
    with pytest.raises(ValueError, match="privacy_epsilon"):
        make(dataset, privacy_epsilon=-1.0).validate()
    with pytest.raises(ValueError, match="privacy_epsilon"):
        make(dataset, privacy_epsilon=0.0).validate()


def test_nonpositive_clip_norm_rejected(dataset):
    with pytest.raises(ValueError, match="privacy_clip_norm"):
        make(dataset, privacy_clip_norm=0.0).validate()
    with pytest.raises(ValueError, match="privacy_clip_norm"):
        make(dataset, privacy_clip_norm=-2.0).validate()


def test_defense_fraction_range(dataset):
    with pytest.raises(ValueError, match="privacy_defense_fraction"):
        make(dataset, privacy_defense_fraction=1.0).validate()
    with pytest.raises(ValueError, match="privacy_defense_fraction"):
        make(dataset, privacy_defense_fraction=-0.1).validate()
    make(dataset, privacy_mode="random_defense",
         privacy_defense_fraction=0.0).validate()


def test_gaussian_needs_a_budget_or_multiplier(dataset):
    # the budget is the only way to set the noise level: z is calibrated
    # from it (an explicit multiplier is not a RunConfig knob)
    with pytest.raises(ValueError, match="gaussian"):
        make(dataset, privacy_mode="gaussian",
             privacy_clip_norm=1.0).validate()
    make(dataset, privacy_mode="gaussian", privacy_epsilon=4.0,
         privacy_clip_norm=1.0).validate()


def test_gaussian_noise_needs_clip_norm(dataset):
    # clip_norm defaults to None: gaussian noise must set it explicitly
    with pytest.raises(ValueError, match="clip"):
        make(dataset, privacy_mode="gaussian", privacy_epsilon=4.0).validate()


def test_random_defense_rejects_gaussian_knobs(dataset):
    # masking adds no noise: a user setting an epsilon expects masking +
    # DP, which this mode does not provide — fail loudly
    with pytest.raises(ValueError, match="random_defense"):
        make(dataset, privacy_mode="random_defense", privacy_epsilon=8.0,
             privacy_clip_norm=2.0).validate()
    with pytest.raises(ValueError, match="random_defense"):
        make(dataset, privacy_mode="random_defense",
             privacy_epsilon=8.0).validate()


def test_off_mode_rejects_set_privacy_knobs(dataset):
    # a user who sets a budget but forgets to flip the mode must not get
    # a silently non-private run
    for knobs in (
        dict(privacy_epsilon=8.0),
        dict(privacy_clip_norm=2.0),
        dict(privacy_defense_fraction=0.3),
        dict(privacy_epsilon=8.0, privacy_clip_norm=2.0),
        dict(privacy_values_only=True),
    ):
        with pytest.raises(ValueError, match="privacy_mode='off'"):
            make(dataset, **knobs).validate()


def test_defense_fraction_rejected_under_gaussian(dataset):
    with pytest.raises(ValueError, match="privacy_defense_fraction"):
        make(dataset, privacy_mode="gaussian", privacy_epsilon=4.0,
             privacy_clip_norm=1.0, privacy_defense_fraction=0.3).validate()


def test_values_only_requires_gaussian_mode(dataset):
    with pytest.raises(ValueError, match="privacy_values_only"):
        make(dataset, privacy_mode="random_defense",
             privacy_values_only=True).validate()


def test_gaussian_noise_over_client_chosen_indices_needs_waiver(dataset):
    # STC's clients pick their own top-k: the index set is a
    # data-dependent release the Gaussian mechanism does not cover
    with pytest.raises(ValueError, match="index release"):
        make(dataset, strategy=STCStrategy(q=0.2), privacy_mode="gaussian",
             privacy_epsilon=4.0, privacy_clip_norm=1.0).validate()
    make(dataset, strategy=STCStrategy(q=0.2), privacy_mode="gaussian",
         privacy_epsilon=4.0, privacy_clip_norm=1.0,
         privacy_values_only=True).validate()
    # dense strategies never need it
    make(dataset, privacy_mode="gaussian", privacy_epsilon=4.0,
         privacy_clip_norm=1.0).validate()
