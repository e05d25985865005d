"""Model registry: build models by name with a uniform signature.

Experiment configurations refer to models by string name so that configs
are plain data.  Every builder accepts the same keyword arguments::

    build_model(name, in_channels=..., num_classes=..., image_size=...,
                rng=..., **model_kwargs)
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn.models.cnn import SimpleCNN
from repro.nn.models.mlp import MLP
from repro.nn.models.mobilenet import MobileNetLite
from repro.nn.models.resnet import ResNetLite
from repro.nn.models.shufflenet import ShuffleNetLite
from repro.nn.module import Module
from repro.utils.registry import Registry

__all__ = ["MODELS", "build_model"]

MODELS: Registry[Callable[..., Module]] = Registry("model")


@MODELS.register("mlp")
def _build_mlp(
    in_channels: int,
    num_classes: int,
    image_size: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Module:
    return MLP(
        in_features=in_channels * image_size * image_size,
        num_classes=num_classes,
        rng=rng,
        **kwargs,
    )


@MODELS.register("cnn")
def _build_cnn(
    in_channels: int,
    num_classes: int,
    image_size: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Module:
    return SimpleCNN(in_channels=in_channels, num_classes=num_classes, rng=rng, **kwargs)


@MODELS.register("shufflenet")
def _build_shufflenet(
    in_channels: int,
    num_classes: int,
    image_size: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Module:
    return ShuffleNetLite(
        in_channels=in_channels, num_classes=num_classes, rng=rng, **kwargs
    )


@MODELS.register("mobilenet")
def _build_mobilenet(
    in_channels: int,
    num_classes: int,
    image_size: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Module:
    return MobileNetLite(
        in_channels=in_channels, num_classes=num_classes, rng=rng, **kwargs
    )


@MODELS.register("resnet")
def _build_resnet(
    in_channels: int,
    num_classes: int,
    image_size: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Module:
    return ResNetLite(
        in_channels=in_channels, num_classes=num_classes, rng=rng, **kwargs
    )


def build_model(
    name: str,
    *,
    in_channels: int,
    num_classes: int,
    image_size: int,
    rng: Optional[np.random.Generator] = None,
    dtype=np.float64,
    **kwargs,
) -> Module:
    """Instantiate a registered model by name.

    ``image_size`` is the (square) spatial input size; only the MLP builder
    needs it, but all builders accept it for uniformity.  ``dtype`` is the
    run-level precision policy, threaded into every layer's parameters and
    buffers; whatever the builder returns is then cast to it, so a builder
    that drops ``dtype=`` still yields a model of the run's precision.
    """
    # imported here: repro.runtime's package imports this module
    from repro.runtime.dtype import cast_model_dtype

    builder = MODELS.get(name)
    model = builder(
        in_channels=in_channels,
        num_classes=num_classes,
        image_size=image_size,
        rng=rng,
        dtype=dtype,
        **kwargs,
    )
    return cast_model_dtype(model, dtype)
