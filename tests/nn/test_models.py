import numpy as np
import pytest

from repro.nn import (
    CrossEntropyLoss,
    MobileNetLite,
    ResNetLite,
    ShuffleNetLite,
    SimpleCNN,
    build_model,
)
from repro.nn.flat import FlatParamView
from repro.nn.models import MODELS

from tests.conftest import assert_activation_lifetime, held_arrays

ALL_MODELS = ["mlp", "cnn", "shufflenet", "mobilenet", "resnet"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_build_forward_backward(rng, name):
    model = build_model(
        name, in_channels=1, num_classes=7, image_size=16, rng=rng
    )
    x = rng.normal(size=(4, 1, 16, 16))
    y = rng.integers(0, 7, 4)
    loss = CrossEntropyLoss()
    logits = model(x)
    assert logits.shape == (4, 7)
    loss(logits, y)
    model.backward(loss.backward())
    grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
    assert np.isfinite(grads).all()
    assert np.abs(grads).sum() > 0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_keep_no_activation(rng, name):
    """The lifetime rule, model-wide: evaluation leaves nothing on the
    model and a training step's caches die in its backward."""
    model = build_model(
        name, in_channels=1, num_classes=7, image_size=16, rng=rng
    )
    assert held_arrays(model) == []
    assert_activation_lifetime(model, rng.normal(size=(4, 1, 16, 16)))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_models_accept_three_channels(rng, name):
    model = build_model(
        name, in_channels=3, num_classes=4, image_size=16, rng=rng
    )
    out = model(rng.normal(size=(2, 3, 16, 16)))
    assert out.shape == (2, 4)


def test_registry_contains_all():
    for name in ALL_MODELS:
        assert name in MODELS


def test_unknown_model_raises(rng):
    with pytest.raises(KeyError):
        build_model("transformer", in_channels=1, num_classes=2, image_size=8)


def test_shufflenet_stride1_requires_matching_channels(rng):
    from repro.nn.models.shufflenet import _shuffle_unit

    with pytest.raises(ValueError):
        _shuffle_unit(8, 16, groups=2, stride=1, rng=rng)
    with pytest.raises(ValueError):
        _shuffle_unit(16, 8, groups=2, stride=2, rng=rng)


def test_shufflenet_determinism(rng):
    a = ShuffleNetLite(rng=np.random.default_rng(5))
    b = ShuffleNetLite(rng=np.random.default_rng(5))
    np.testing.assert_array_equal(
        FlatParamView(a).get_flat(), FlatParamView(b).get_flat()
    )


def test_mobilenet_residual_only_when_shapes_match(rng):
    from repro.nn.layers import ResidualAdd
    from repro.nn.models.mobilenet import _inverted_residual

    assert isinstance(_inverted_residual(8, 8, 1, 2, rng), ResidualAdd)
    assert not isinstance(_inverted_residual(8, 16, 1, 2, rng), ResidualAdd)
    assert not isinstance(_inverted_residual(8, 8, 2, 2, rng), ResidualAdd)


def test_resnet34_layout_builds(rng):
    """The paper's ResNet-34 block layout (3,4,6,3) must be constructible."""
    model = ResNetLite(
        stage_widths=(8, 8, 16, 16),
        stage_repeats=(3, 4, 6, 3),
        rng=rng,
    )
    out = model(rng.normal(size=(1, 1, 32, 32)))
    assert out.shape == (1, 10)


def test_simplecnn_has_bn_buffers(rng):
    model = SimpleCNN(rng=rng)
    assert FlatParamView(model).num_buffer > 0


def test_models_param_counts_are_positive_and_ordered(rng):
    mlp = build_model("mlp", in_channels=1, num_classes=10, image_size=28, rng=rng)
    mobile = build_model(
        "mobilenet", in_channels=1, num_classes=10, image_size=28, rng=rng
    )
    assert FlatParamView(mlp).num_trainable > 0
    assert FlatParamView(mobile).num_trainable > 0


def test_model_eval_mode_deterministic(rng):
    model = MobileNetLite(in_channels=1, num_classes=3, rng=rng)
    x = rng.normal(size=(2, 1, 16, 16))
    model(x)  # populate running stats
    model.eval()
    np.testing.assert_array_equal(model(x), model(x))
