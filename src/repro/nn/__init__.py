"""Numpy neural-network substrate.

A small, explicit layer-graph framework (forward caches / backward returns
input gradients) with the pieces the GlueFL evaluation needs: grouped and
depthwise convolution, batch normalization with running statistics, SGD with
momentum, and a flat-parameter view that serves as the masking surface.
"""

from repro.nn.module import Buffer, Module, Parameter, Sequential
from repro.nn.flat import FlatParamView
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD, ExponentialDecay
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    ChannelConcat,
    ChannelShuffle,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualAdd,
)
from repro.nn.models import (
    MLP,
    MODELS,
    MobileNetLite,
    ResNetLite,
    ShuffleNetLite,
    SimpleCNN,
    build_model,
)

__all__ = [
    "Module",
    "Parameter",
    "Buffer",
    "Sequential",
    "FlatParamView",
    "CrossEntropyLoss",
    "SGD",
    "ExponentialDecay",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ChannelShuffle",
    "Identity",
    "ResidualAdd",
    "ChannelConcat",
    "MLP",
    "SimpleCNN",
    "ShuffleNetLite",
    "MobileNetLite",
    "ResNetLite",
    "MODELS",
    "build_model",
]
